"""List the ``src/dyncfi`` lines that a Tier-1 run never executes.

Runs pytest in this process under a ``sys.settrace`` line collector (the
standard library only, so it works wherever the tests do) and prints, per
source file, every executable line that never ran, with its text, then a
total.  A line is executable when the compiler maps bytecode to it, as
``code.co_lines()`` reports over the module's nested code objects.
Commands the tests start in a subprocess are not traced.  Usage::

    PYTHONPATH=src python3 tests/coverage_probe.py [pytest args...]

The pytest arguments default to this directory.  The exit status is
pytest's when that is nonzero; otherwise it is 1 when the first line of
any ``raise`` statement never ran (each is listed again at the end), and
0 when every one did.  A helper script, not a test: pytest does not
collect it.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dyncfi"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode anywhere in ``path``'s module."""
    lines: set[int] = set()
    pending = [compile(path.read_text(), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _start, _end, line in code.co_lines()
                     if line is not None)
        pending.extend(c for c in code.co_consts if isinstance(c, CodeType))
    lines.discard(0)  # a module's RESUME sits at line 0
    return lines


def raise_lines(path: Path) -> set[int]:
    """First lines of the ``raise`` statements in ``path``."""
    return {node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise)}


def main(argv: list[str]) -> int:
    ran: dict[str, set[int]] = {}
    prefix = str(SRC) + "/"

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, _arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(argv or [str(Path(__file__).parent)])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unrun_total = 0
    unrun_raises: list[str] = []
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        text = path.read_text().splitlines()
        unrun = sorted(lines - ran.get(str(path), set()))
        raises = raise_lines(path)
        total += len(lines)
        unrun_total += len(unrun)
        for n in unrun:
            where = f"{path.relative_to(SRC.parents[1])}:{n}"
            print(f"{where}: {text[n - 1].strip()}")
            if n in raises:
                unrun_raises.append(where)
    print(f"{total - unrun_total} of {total} executable lines ran; "
          f"{unrun_total} never ran")
    for where in unrun_raises:
        print(f"raise never ran: {where}")
    return int(status) or int(bool(unrun_raises))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

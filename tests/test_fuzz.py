"""Mutated ELF, trace, sidecar and allowlist input ends in a coded error.

Byte-level mutations of a small valid workspace go through the parsers and
through ``dyncfi check``. Only :class:`DynCfiError` may escape a parser, and
the CLI must answer 0, 1 or 2; a traceback of any other kind fails the test.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import EXE_BASE, LIB_BASE, load_events, renumber, two_module_workspace

from dyncfi import (
    DynCfiError,
    TraceEvent,
    build_fixture,
    events_to_jsonl,
    load_sidecar,
    parse_module,
    parse_trace,
    sidecar_lines,
)
from dyncfi.cli import main

FUZZ = settings(max_examples=150, derandomize=True, deadline=None,
                database=None)

#: Replacement tokens that reach past the JSON and hex syntax checks.
TOKENS = (b"true", b"false", b"null", b"-1", b"0", b"1e999", b"[", b"{}",
          b'"0x100000000"', b'"-0x10"', b"4294967296", b"\xff", b"\x00",
          b" ", b"\n", b"#", b"0x")


def workspace_files() -> dict[str, bytes]:
    """A valid two-module workspace whose trace has every event kind."""
    specs, _images, _sidecar = two_module_workspace()
    files = {path: build_fixture(spec) for path, spec in specs.items()}
    files["boundaries.sidecar"] = "\n".join(
        line for spec in specs.values() for line in sidecar_lines(spec)).encode()
    events = renumber(load_events() + [
        TraceEvent(0, 0, "indirect-call", src=EXE_BASE + 0x1004,
                   dst=LIB_BASE + 0x1000, length=5),
        TraceEvent(0, 0, "indirect-jump", src=LIB_BASE + 0x1004,
                   dst=LIB_BASE + 0x100c),
        TraceEvent(0, 0, "direct-call", src=LIB_BASE + 0x100c,
                   dst=LIB_BASE + 0x1040, length=5),
        TraceEvent(0, 0, "exception-unwind", target=EXE_BASE + 0x1009),
        TraceEvent(0, 0, "return", src=LIB_BASE + 0x1044, dst=EXE_BASE + 0x1009),
        TraceEvent(0, 0, "plt-call", src=EXE_BASE + 0x1008,
                   dst=EXE_BASE + 0x900, length=5),
        TraceEvent(0, 0, "direct-jump", src=LIB_BASE + 0x1004,
                   dst=LIB_BASE + 0x100c),
        TraceEvent(0, 0, "return", src=LIB_BASE + 0x100c, dst=EXE_BASE + 0x100d),
        TraceEvent(0, 0, "code-write", addr=EXE_BASE + 0x1010),
        TraceEvent(0, 0, "unload", path="libfoo.so"),
    ])
    files["trace.jsonl"] = events_to_jsonl(events).encode()
    files["allow.txt"] = b"# extra grants\napp bar\n"
    return files


FILES = workspace_files()


@st.composite
def mutated(draw, name: str) -> bytes:
    buf = bytearray(FILES[name])
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, len(buf)))
        op = draw(st.sampled_from(("set", "insert", "delete", "token", "cut")))
        if op == "set" and pos < len(buf):
            buf[pos] = draw(st.integers(0, 255))
        elif op == "insert":
            buf[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        elif op == "delete":
            del buf[pos:pos + draw(st.integers(1, 16))]
        elif op == "token":
            buf[pos:pos + draw(st.integers(0, 4))] = draw(st.sampled_from(TOKENS))
        elif op == "cut":
            del buf[pos:]
    return bytes(buf)


@FUZZ
@given(st.sampled_from(("app", "libfoo.so")).flatmap(mutated))
def test_fuzz_parse_module(data):
    try:
        parse_module(data, "fuzz")
    except DynCfiError:
        pass


@FUZZ
@given(mutated("trace.jsonl"))
def test_fuzz_parse_trace(data):
    try:
        parse_trace(data)
    except DynCfiError:
        pass


@FUZZ
@given(mutated("boundaries.sidecar"))
def test_fuzz_load_sidecar(data):
    try:
        load_sidecar(data.decode("latin-1"))
    except DynCfiError:
        pass


@FUZZ
@given(st.sampled_from(sorted(FILES)).flatmap(
    lambda name: st.tuples(st.just(name), mutated(name))))
def test_fuzz_check_command(case):
    name, data = case
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp)
        for file, content in FILES.items():
            (ws / file).write_bytes(data if file == name else content)
        code = main(["check", "--trace", str(ws / "trace.jsonl"),
                     "--sidecar", str(ws / "boundaries.sidecar"),
                     "--allowlist", str(ws / "allow.txt"),
                     "-o", str(ws / "report.json")])
    assert code in (0, 1, 2)

"""The committed toolchain-built ELF corpus and its readelf oracle.

``tests/corpus/`` holds real shared objects made by gcc and GNU ld from
``tests/corpus/corpus.c`` (see the README there). The readelf helpers
here parse binutils output and share no code with the engine's parser.
"""

import pathlib
import re
import shutil
import subprocess

import pytest

CORPUS_DIR = pathlib.Path(__file__).resolve().parent / "corpus"
CORPUS_NONSTRIPPED_32 = str(CORPUS_DIR / "libcorpus32.so")
CORPUS_STRIPPED_32 = str(CORPUS_DIR / "libcorpus32-stripped.so")
CORPUS_64 = str(CORPUS_DIR / "libcorpus64.so")

requires_readelf = pytest.mark.skipif(
    shutil.which("readelf") is None, reason="readelf not available")
requires_objdump = pytest.mark.skipif(
    shutil.which("objdump") is None, reason="objdump not available")


def readelf_dynsym_exports(path: str) -> set[str]:
    """Defined GLOBAL/WEAK ``.dynsym`` names, version suffixes removed."""
    out = subprocess.run(["readelf", "--dyn-syms", "-W", path],
                         capture_output=True, text=True, check=True).stdout
    exports = set()
    for line in out.splitlines():
        m = re.match(r"\s*\d+:\s+[0-9a-f]+\s+(?:\d+|0x[0-9a-f]+)\s+\w+\s+(\w+)\s+\w+\s+(\S+)\s+(\S+)",
                     line)
        if not m:
            continue
        bind, ndx, name = m.groups()
        if bind not in ("GLOBAL", "WEAK") or ndx in ("UND", "ABS", "COM"):
            continue
        name = name.split("@")[0]
        if name:
            exports.add(name)
    return exports


def readelf_undefined_dynsyms(path: str) -> set[str]:
    """GLOBAL/WEAK ``.dynsym`` names whose section is UND (the imports)."""
    out = subprocess.run(["readelf", "--dyn-syms", "-W", path],
                         capture_output=True, text=True, check=True).stdout
    return {m.group(1) for m in re.finditer(
        r"^\s*\d+:\s+0+\s+\d+\s+\w+\s+(?:GLOBAL|WEAK)\s+\w+\s+UND\s+(\S+)",
        out, re.M)}


def objdump_plt_entries(path: str) -> set[tuple[int, str]]:
    """``(address, symbol)`` of every ``<symbol@plt>`` label in ``.plt``."""
    out = subprocess.run(["objdump", "-d", "-j", ".plt", path],
                         capture_output=True, text=True, check=True).stdout
    return {(int(m.group(1), 16), m.group(2))
            for m in re.finditer(r"^([0-9a-f]+) <([^@>]+)@plt>:$", out, re.M)}

"""ELF model: build/parse round trips, real objects, sidecar maps."""

import importlib.util
import os
import re
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncfi import (
    ElfFormatError,
    FixtureError,
    FixtureSpec,
    ProcessImage,
    SidecarError,
    SymbolSpec,
    build_fixture,
    derive_instruction_map,
    load_sidecar,
    parse_module,
    sidecar_lines,
)
from dyncfi.elf import RelocSpec
from elf_corpus import (
    CORPUS_64,
    CORPUS_DIR,
    CORPUS_NONSTRIPPED_32,
    CORPUS_STRIPPED_32,
    objdump_plt_entries,
    readelf_dynsym_exports,
    readelf_undefined_dynsyms,
    requires_objdump,
    requires_readelf,
)
from strategies import (
    expected_exports,
    expected_plt_entries,
    expected_relocations,
    expected_symbols,
)

# Host system libraries: checked as well wherever the host has them.
HOST_NONSTRIPPED_32 = "/usr/lib32/libpthread.so.0"
HOST_STRIPPED_32 = "/usr/lib32/libm.so.6"


def simple_spec(**kw) -> FixtureSpec:
    defaults = dict(
        path="libfoo.so",
        code=b"\x90" * 0x200,
        symbols=(SymbolSpec("foo", 0x1100, 0x20),),
    )
    defaults.update(kw)
    return FixtureSpec(**defaults)


# ---------------------------------------------------------------------------
# Fixture round trips
# ---------------------------------------------------------------------------

def test_minimal_export_round_trip():
    img = parse_module(build_fixture(simple_spec()), "libfoo.so")
    assert img.exports == ("foo",)
    rec = img.export_records[0]
    assert (rec.value, rec.size) == (0x1100, 0x20)
    assert not img.stripped


def test_stripped_fixture_drops_local_symbols():
    spec = simple_spec(symbols=(
        SymbolSpec("foo", 0x1100, 0x20),
        SymbolSpec("helper", 0x1140, 0x10, binding="local", exported=False),
    ))
    full = parse_module(build_fixture(spec), spec.path)
    stripped = parse_module(build_fixture(spec.stripped_twin()), spec.path)
    assert stripped.stripped
    assert "helper" not in {s.name for s in stripped.symbols}
    assert "helper" in {s.name for s in full.symbols}
    # exports identical between the twins
    assert full.exports == stripped.exports


def test_plt_entry_round_trip():
    spec = simple_spec(imports=("bar",), plt=("bar",))
    img = parse_module(build_fixture(spec), spec.path)
    assert len(img.plt_entries) == 1
    assert img.plt_entries[0].symbol == "bar"
    assert img.plt_entries[0].address == spec.plt_vaddr
    # every plt symbol appears in imports
    assert all(p.symbol in img.imports for p in img.plt_entries)


def test_plt_decoder_handles_pic_stub_form():
    # patch the emitted absolute stub (ff 25 abs32) into the ebx-relative
    # form (ff a3 disp32) and confirm the same entry is recovered
    import struct as _struct

    from dyncfi.elf import GOT_RESERVED_SLOTS

    spec = simple_spec(imports=("ext",), plt=("ext",))
    data = bytearray(build_fixture(spec))
    plt_sec = parse_module(bytes(data), spec.path).section(".plt")
    slot = spec.gotplt_vaddr + 4 * GOT_RESERVED_SLOTS
    data[plt_sec.file_offset:plt_sec.file_offset + 6] = \
        b"\xff\xa3" + _struct.pack("<i", slot - spec.gotplt_vaddr)
    img = parse_module(bytes(data), spec.path)
    assert [(p.address, p.symbol) for p in img.plt_entries] == \
        [(spec.plt_vaddr, "ext")]


def test_relocation_round_trip_reads_inplace_addend():
    spec = simple_spec(relocations=(RelocSpec(offset=0x3004, addend=0x1100),),
                       data=b"\x00" * 16)
    img = parse_module(build_fixture(spec), spec.path)
    rel = [r for r in img.relocations if r.kind == "relative"]
    assert rel and rel[0].offset == 0x3004 and rel[0].addend == 0x1100


def test_executable_ranges_disjoint_and_code_present():
    spec = simple_spec(imports=("bar",), plt=("bar",))
    img = parse_module(build_fixture(spec), spec.path)
    ranges = img.executable_ranges
    assert list(ranges) == sorted(ranges)
    for (a, b), (c, d) in zip(ranges, ranges[1:]):
        assert b <= c
    text = img.section(".text")
    assert text.data == spec.code


def test_stripped_flag_iff_no_symtab_records():
    full = parse_module(build_fixture(simple_spec()), "x")
    assert not full.stripped
    assert any(s.origin == "symtab" for s in full.symbols)
    twin = parse_module(build_fixture(simple_spec(stripped=True)), "x")
    assert twin.stripped
    assert not any(s.origin == "symtab" for s in twin.symbols)


def test_monotone_information_under_stripping():
    spec = simple_spec(symbols=(
        SymbolSpec("foo", 0x1100, 0x20),
        SymbolSpec("quux", 0x1130, 0x10),
        SymbolSpec("helper", 0x1150, 0x10, binding="local", exported=False),
    ))
    full = parse_module(build_fixture(spec), spec.path)
    stripped = parse_module(build_fixture(spec.stripped_twin()), spec.path)
    full_names = {(s.name, s.value) for s in full.symbols}
    stripped_names = {(s.name, s.value) for s in stripped.symbols}
    assert stripped_names <= full_names
    assert full.exports == stripped.exports
    # instruction map of the stripped twin is a subset
    full_map = set(derive_instruction_map(full).offsets)
    stripped_map = set(derive_instruction_map(stripped).offsets)
    assert stripped_map <= full_map


# ---------------------------------------------------------------------------
# Parse errors
# ---------------------------------------------------------------------------

def test_parse_rejects_bad_magic():
    with pytest.raises(ElfFormatError) as exc:
        parse_module(b"\x00" * 64, "bad")
    assert exc.value.code == "malformed-header"


def test_parse_rejects_truncated_sections():
    data = bytearray(build_fixture(simple_spec()))
    with pytest.raises(ElfFormatError) as exc:
        parse_module(bytes(data[:80]), "short")
    assert exc.value.code in ("truncated-section", "malformed-header")


def test_parse_reads_elf_class_from_header():
    """The header's EI_CLASS byte alone picks the ELF32 or ELF64 layout."""
    assert parse_module(open(CORPUS_NONSTRIPPED_32, "rb").read(),
                        "lib32").elf_class == 1
    data = open(CORPUS_64, "rb").read()
    img = parse_module(data, "lib64")
    assert img.elf_class == 2
    assert img.exports
    with pytest.raises(ElfFormatError) as exc:
        parse_module(data[:4] + b"\x03" + data[5:], "lib64")
    assert (exc.value.code, exc.value.message) == (
        "malformed-header", "lib64: unknown ELF class 3")


def test_build_rejects_inconsistent_specs():
    with pytest.raises(FixtureError):
        build_fixture(simple_spec(symbols=(SymbolSpec("out", 0x5000, 4),)))
    with pytest.raises(FixtureError):
        build_fixture(simple_spec(plt=("nope",)))  # plt symbol not imported
    with pytest.raises(FixtureError):
        build_fixture(simple_spec(symbols=(
            SymbolSpec("x", 0x1100, 4, binding="local", exported=True),)))
    with pytest.raises(FixtureError):
        build_fixture(simple_spec(code=b""))


def test_build_rejects_jmp_slot_relocation_spec():
    # FixtureSpec.from_dict never sets a kind, so only the API reaches this.
    spec = simple_spec(relocations=(RelocSpec(0x3000, kind="jmp-slot"),))
    with pytest.raises(FixtureError) as exc:
        build_fixture(spec)
    assert (exc.value.code, exc.value.message) == (
        "inconsistent-spec",
        f"{spec.path}: unsupported relocation kind 'jmp-slot' "
        f"(jmp-slot derives from plt)")


# ---------------------------------------------------------------------------
# Real toolchain-built objects, cross-checked against readelf
# ---------------------------------------------------------------------------

def host_library(path: str, expect_stripped: bool):
    return pytest.param(path, expect_stripped, marks=pytest.mark.skipif(
        not os.path.exists(path), reason=f"{path} not present"))


@requires_readelf
@pytest.mark.parametrize("path,expect_stripped", [
    pytest.param(CORPUS_NONSTRIPPED_32, False, id="corpus32-nonstripped"),
    pytest.param(CORPUS_STRIPPED_32, True, id="corpus32-stripped"),
    host_library(HOST_NONSTRIPPED_32, False),
    host_library(HOST_STRIPPED_32, True),
])
def test_real_library_exports_match_readelf(path, expect_stripped):
    data = open(path, "rb").read()
    img = parse_module(data, path)
    assert img.stripped == expect_stripped
    assert set(img.exports) == readelf_dynsym_exports(path)
    # every exported name is resolvable via the dynamic symbol table
    dynsym_names = {s.name for s in img.symbols if s.origin == "dynsym"}
    assert set(img.exports) <= dynsym_names


@requires_readelf
def test_elf64_exports_match_readelf():
    img = parse_module(open(CORPUS_64, "rb").read(), CORPUS_64)
    assert set(img.exports) == readelf_dynsym_exports(CORPUS_64)


@requires_readelf
def test_real_nonstripped_symbol_count_matches_readelf():
    out = subprocess.run(["readelf", "-s", "-W", CORPUS_NONSTRIPPED_32],
                         capture_output=True, text=True, check=True).stdout
    in_symtab = False
    expected = set()
    for line in out.splitlines():
        if line.startswith("Symbol table '.symtab'"):
            in_symtab = True
            continue
        m = re.match(r"\s*\d+:\s+([0-9a-f]+)\s+(?:\d+|0x[0-9a-f]+)\s+(\w+)\s+\w+\s+\w+\s+(\S+)\s+(\S+)",
                     line)
        if not in_symtab or not m:
            continue
        value, typ, ndx, name = m.groups()
        if typ in ("SECTION", "FILE") or ndx in ("UND", "ABS", "COM") or not name:
            continue
        # .symtab names are literal and may embed @VERSION suffixes
        expected.add((name, int(value, 16)))
    got = {(s.name, s.value) for s in
           parse_module(open(CORPUS_NONSTRIPPED_32, "rb").read(),
                        CORPUS_NONSTRIPPED_32).symbols
           if s.origin == "symtab"}
    assert got == expected


@requires_readelf
def test_corpus_imports_and_relocations_match_readelf():
    path = CORPUS_NONSTRIPPED_32
    img = parse_module(open(path, "rb").read(), path)
    assert set(img.imports) == readelf_undefined_dynsyms(path)
    relocs = subprocess.run(["readelf", "-r", "-W", path],
                            capture_output=True, text=True, check=True).stdout
    expected = set()
    for m in re.finditer(r"^([0-9a-f]+)\s+[0-9a-f]+\s+(R_386_\w+)(.*)$",
                         relocs, re.M):
        offset, rtype, rest = m.groups()
        kind = {"R_386_RELATIVE": "relative",
                "R_386_JUMP_SLOT": "jmp-slot"}.get(rtype)
        if kind is None:
            continue
        symbol = rest.split()[-1].split("@")[0] if kind == "jmp-slot" else None
        expected.add((int(offset, 16), kind, symbol))
    assert {"relative", "jmp-slot"} <= {kind for _, kind, _ in expected}
    assert {(r.offset, r.kind, r.symbol) for r in img.relocations} == expected


@requires_objdump
@pytest.mark.parametrize("path", [
    pytest.param(CORPUS_NONSTRIPPED_32, id="corpus32-nonstripped"),
    pytest.param(CORPUS_STRIPPED_32, id="corpus32-stripped"),
    pytest.param(CORPUS_64, id="corpus64"),
])
def test_corpus_plt_entries_match_objdump(path):
    img = parse_module(open(path, "rb").read(), path)
    expected = objdump_plt_entries(path)
    # the self-interposable exports' stubs as well as the imports' ones
    assert {"corpus_add", "corpus_weak", "ext_open", "ext_log"} <= \
        {sym for _, sym in expected}
    assert {(e.address, e.symbol) for e in img.plt_entries} == expected


@requires_readelf
@requires_objdump
@pytest.mark.parametrize("path", [
    pytest.param(CORPUS_NONSTRIPPED_32, id="corpus32-nonstripped"),
    pytest.param(CORPUS_STRIPPED_32, id="corpus32-stripped"),
])
@pytest.mark.parametrize("corpus_first", [True, False],
                         ids=["exporter-first", "importer-first"])
def test_corpus_name_indexes_match_toolchain(path, corpus_first):
    img = parse_module(open(path, "rb").read(), path)
    plt = objdump_plt_entries(path)
    assert img.plt_symbols == dict(plt)
    assert img.imported_names == \
        readelf_undefined_dynsyms(path) | {sym for _, sym in plt} == \
        {"ext_open", "ext_log", "corpus_add", "corpus_weak"}
    # corpus_version is exported at two versions, each its own function
    assert sorted(img.function_exports["corpus_version"]) == [0x11e0, 0x11f0]

    app_spec = FixtureSpec(path="app", code=b"\x90" * 0x40,
                           symbols=(SymbolSpec("main", 0x1000, 0x10),),
                           imports=("corpus_version",), plt=("corpus_version",))
    app_img = parse_module(build_fixture(app_spec), app_spec.path)
    loads = [(img, 0x40000000), (app_img, 0x08048000)]
    p = ProcessImage()
    loaded = [p.load_module(m, base, derive_instruction_map(m))
              for m, base in (loads if corpus_first else loads[::-1])]
    app = next(lm for lm in loaded if lm.module is app_img)
    assert {0x40000000 + 0x11e0, 0x40000000 + 0x11f0} <= \
        p.table.imported[app.module_id]
    assert p.table == p.rebuild_table()


def test_corpus_rebuild_is_byte_identical(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "corpus_build", CORPUS_DIR / "build.py")
    corpus_build = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus_build)
    try:
        toolchain = corpus_build.toolchain()
    except FileNotFoundError as exc:
        pytest.skip(f"corpus toolchain not available: {exc}")
    if toolchain != (CORPUS_DIR / corpus_build.TOOLCHAIN_FILE).read_text():
        pytest.skip("toolchain differs from the one recorded in TOOLCHAIN.txt")
    corpus_build.build(tmp_path)
    for name in corpus_build.OBJECTS:
        assert (tmp_path / name).read_bytes() == \
            (CORPUS_DIR / name).read_bytes(), name


# ---------------------------------------------------------------------------
# Instruction maps and sidecars
# ---------------------------------------------------------------------------

def test_imap_defaults_to_function_starts():
    spec = simple_spec(symbols=(SymbolSpec("f", 0x1100, 0x20),
                                SymbolSpec("g", 0x1200 - 0x20, 0x10)))
    img = parse_module(build_fixture(spec), spec.path)
    offsets = set(derive_instruction_map(img).offsets)
    assert {0x1100, 0x1200 - 0x20} <= offsets


def test_sidecar_offsets_adopted_verbatim():
    img = parse_module(build_fixture(simple_spec()), "libfoo.so")
    sc = load_sidecar("libfoo.so 0x1100\nlibfoo.so 0x1104\nlibfoo.so 0x1109\n")
    assert derive_instruction_map(img, sc).offsets == (0x1100, 0x1104, 0x1109)


def test_stripped_module_without_sidecar_knows_exports_only():
    spec = simple_spec(symbols=(
        SymbolSpec("foo", 0x1100, 0x20),
        SymbolSpec("helper", 0x1140, 0x10, binding="local", exported=False)),
        stripped=True)
    img = parse_module(build_fixture(spec), spec.path)
    assert derive_instruction_map(img).offsets == (0x1100,)


def test_sidecar_mismatch_and_validation_errors():
    img = parse_module(build_fixture(simple_spec()), "libfoo.so")
    with pytest.raises(SidecarError) as exc:
        derive_instruction_map(img, load_sidecar("other.so 0x1100\n"))
    assert exc.value.code == "sidecar-module-mismatch"
    with pytest.raises(SidecarError):
        derive_instruction_map(img, load_sidecar("libfoo.so 0x9999\n"))
    with pytest.raises(SidecarError):
        load_sidecar("libfoo.so 0x20 0x30 extra\n")
    with pytest.raises(SidecarError):
        load_sidecar("libfoo.so 0x20\nlibfoo.so 0x10\n")  # not ascending


def test_sidecar_ignores_comments_and_blank_lines():
    table = load_sidecar("# boundaries\n\nlibfoo.so 0x1100\n  \nlibfoo.so 0x1104\n")
    assert table["libfoo.so"].offsets == (0x1100, 0x1104)


# Only "\n" ends a sidecar line, so a path may hold U+2028 and friends.
@pytest.mark.parametrize("path", ["libfoo.so", "lib\u2028foo\u2029\u0085.so"],
                         ids=["plain", "raw-line-separators"])
def test_sidecar_path_line_separators(path):
    table = load_sidecar(f"{path} 0x1100\n{path} 0x1104\n")
    assert table[path].offsets == (0x1100, 0x1104)


def test_sidecar_lines_round_trip():
    spec = simple_spec(instruction_offsets=(0x1104, 0x1109))
    table = load_sidecar("\n".join(sidecar_lines(spec)))
    img = parse_module(build_fixture(spec), spec.path)
    offsets = set(derive_instruction_map(img, table).offsets)
    assert {0x1100, 0x1104, 0x1109} <= offsets


# ---------------------------------------------------------------------------
# Randomized round-trip property
# ---------------------------------------------------------------------------

@st.composite
def fixture_specs(draw):
    n_funcs = draw(st.integers(min_value=1, max_value=6))
    code_len = 0x40 * (n_funcs + 2)
    cursor = 0x1000
    symbols = []
    taken = set()
    for i in range(n_funcs):
        size = draw(st.sampled_from([0x8, 0x10, 0x20]))
        if cursor + size > 0x1000 + code_len:
            break
        name = f"f{i}"
        assert name not in taken
        taken.add(name)
        exported = draw(st.booleans())
        symbols.append(SymbolSpec(
            name=name, value=cursor, size=size,
            binding="global" if exported else draw(st.sampled_from(["local", "global"])),
            exported=exported))
        cursor += size + draw(st.sampled_from([0, 4]))
    imports = [f"imp{i}" for i in range(draw(st.integers(0, 3)))]
    plt = tuple(n for n in imports if draw(st.booleans()))
    stripped = draw(st.booleans())
    n_extra = draw(st.integers(0, 3))
    extra = tuple(sorted({0x1000 + draw(st.integers(1, code_len - 1))
                          for _ in range(n_extra)}))
    return FixtureSpec(path="librand.so", code=b"\x90" * code_len,
                       symbols=tuple(symbols), imports=tuple(imports),
                       plt=plt, instruction_offsets=extra, stripped=stripped)


@settings(max_examples=150, deadline=None)
@given(fixture_specs())
def test_round_trip_preserves_semantics(spec):
    img = parse_module(build_fixture(spec), spec.path)
    assert img.stripped == spec.stripped
    assert list(img.imports) == list(spec.imports)
    assert list(img.exports) == expected_exports(spec)
    got_syms = {(s.name, s.value, s.size, s.kind, s.binding)
                for s in img.symbols}
    for s in expected_symbols(spec):
        assert (s.name, s.value, s.size, s.kind, s.binding) in got_syms
    assert [(p.address, p.symbol) for p in img.plt_entries] == \
        [(p.address, p.symbol) for p in expected_plt_entries(spec)]
    got_relocs = {(r.offset, r.kind, r.addend) for r in img.relocations}
    for r in expected_relocations(spec):
        assert (r.offset, r.kind, r.addend) in got_relocs

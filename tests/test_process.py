"""Process image: loads, unloads, lookup-table maintenance, extents."""

import random

import pytest

import oracle
from strategies import (
    BASES,
    EXE_BASE,
    LIB_BASE,
    GeneratedModule,
    describe_module,
    imap_for,
    make_image,
    random_module_spec,
    random_process,
    check_table_targets_valid,
    two_module_workspace,
)

from dyncfi import (
    CallbackFinding,
    FixtureSpec,
    ProcessError,
    ProcessImage,
    ResolutionError,
    SymbolSpec,
    derive_instruction_map,
)


def load_pair():
    specs, images, _ = two_module_workspace()
    p = ProcessImage()
    exe = p.load_module(images["app"], EXE_BASE,
                        imap_for(specs["app"], images["app"], True))
    lib = p.load_module(images["libfoo.so"], LIB_BASE,
                        imap_for(specs["libfoo.so"], images["libfoo.so"], True))
    return p, exe, lib


def test_import_grant_regardless_of_load_order():
    specs, images, _ = two_module_workspace()
    foo_addr = LIB_BASE + 0x1000

    p1 = ProcessImage()
    exe1 = p1.load_module(images["app"], EXE_BASE,
                          imap_for(specs["app"], images["app"], True))
    p1.load_module(images["libfoo.so"], LIB_BASE,
                   imap_for(specs["libfoo.so"], images["libfoo.so"], True))
    assert foo_addr in p1.call_target_set(exe1.module_id)

    p2 = ProcessImage()
    p2.load_module(images["libfoo.so"], LIB_BASE,
                   imap_for(specs["libfoo.so"], images["libfoo.so"], True))
    exe2 = p2.load_module(images["app"], EXE_BASE,
                          imap_for(specs["app"], images["app"], True))
    assert foo_addr in p2.call_target_set(exe2.module_id)
    assert p1.table == p2.table


def test_local_functions_only_from_owning_module():
    p, exe, lib = load_pair()
    helper = LIB_BASE + 0x1080
    assert helper in p.call_target_set(lib.module_id)
    assert helper not in p.call_target_set(exe.module_id)


def test_stripped_module_has_no_local_entries_without_sidecar():
    specs, images, _ = two_module_workspace()
    p = ProcessImage()
    twin = images["libfoo.so"].stripped_twin()
    lm = p.load_module(twin, LIB_BASE, derive_instruction_map(twin))
    helper = LIB_BASE + 0x1080
    assert helper not in p.call_target_set(lm.module_id)
    assert helper not in p.table.snapshot()


def test_load_errors():
    specs, images, _ = two_module_workspace()
    p = ProcessImage()
    p.load_module(images["app"], EXE_BASE,
                  imap_for(specs["app"], images["app"], True))
    with pytest.raises(ProcessError) as exc:
        p.load_module(images["libfoo.so"], EXE_BASE,
                      imap_for(specs["libfoo.so"], images["libfoo.so"], True))
    assert exc.value.code == "overlapping-base"
    with pytest.raises(ProcessError) as exc:
        p.load_module(images["libfoo.so"], LIB_BASE + 123,
                      imap_for(specs["libfoo.so"], images["libfoo.so"], True))
    assert exc.value.code == "misaligned-base"


def test_code_at_virtual_offset_zero_counts_toward_span():
    # .text at offset 0 is mapped code, not metadata: two such modules at
    # one base overlap, and address lookup must never have to pick one.
    z, y = (make_image(FixtureSpec(path=path, code=b"\x90" * 0x40, text_vaddr=0,
                                   symbols=(SymbolSpec(path[0] + "fn", 0, 0x20),)))
            for path in ("z.so", "y.so"))
    p = ProcessImage()
    lm = p.load_module(z, 0x10000, derive_instruction_map(z))
    assert lm.span == (0x10000, 0x10040) == lm.exec_ranges[0]
    with pytest.raises(ProcessError) as exc:
        p.load_module(y, 0x10000, derive_instruction_map(y))
    assert exc.value.code == "overlapping-base"
    assert p.exec_module_at(0x10000) is lm


def test_load_rejects_base_past_address_space():
    spec = FixtureSpec(path="libhigh.so", code=b"\x90" * 0x40,
                       symbols=(SymbolSpec("hi_fn", 0x1000, 0x20),))
    img = make_image(spec)
    p = ProcessImage()
    with pytest.raises(ProcessError) as exc:
        p.load_module(img, 0xFFFFF000, derive_instruction_map(img))
    assert exc.value.code == "base-out-of-range"
    assert not p.loaded and p.epoch == 0
    # One page lower, the module fits below 2^32.
    lm = p.load_module(img, 0xFFFFE000, derive_instruction_map(img))
    assert lm.span[1] <= 1 << 32 and p.exec_module_at(0xFFFFF000) is lm


def test_unload_restores_prior_table():
    p, exe, lib = load_pair()
    before = p.table.snapshot()
    specs, images, _ = two_module_workspace()
    extra = FixtureSpec(path="libx.so", code=b"\x90" * 0x80,
                        symbols=(SymbolSpec("xfn", 0x1000, 0x20),))
    ximg = make_image(extra)
    lm = p.load_module(ximg, 0x50000000, derive_instruction_map(ximg))
    assert p.table.snapshot() != before
    p.unload_module(lm.module_id)
    assert p.table.snapshot() == before


def test_unload_revokes_importer_grant():
    """Unloading the exporter removes the importer's binding (oracle check)."""
    p, exe, lib = load_pair()
    foo_addr = LIB_BASE + 0x1000
    assert foo_addr in p.call_target_set(exe.module_id)
    p.unload_module(lib.module_id)
    assert foo_addr not in p.call_target_set(exe.module_id)
    # brute-force rebuild over the remaining module set agrees
    desc = {
        "modules": [{
            "id": exe.module_id, "path": "app", "base": EXE_BASE,
            "stripped": False,
            "sections": [{"lo": 0x1000, "hi": 0x1100, "exec": True},
                         {"lo": 0x900, "hi": 0x910, "exec": True}],
            "imap": list(exe.imap.offsets),
            "exports": [{"name": "main", "value": 0x1000, "size": 0x40,
                         "kind": "function"}],
            "locals": [{"name": "start", "value": 0x1050, "size": 0x20,
                        "kind": "function"}],
            "imports": ["foo"],
        }],
        "callbacks": sorted({f.address for f in p.callback_findings}),
        "allowlist": [],
    }
    expected = oracle.build_table(desc)
    got = {t: set(scopes) for t, scopes in p.table.snapshot().items()}
    assert got == expected


def test_unload_unknown_module_errors():
    p, exe, lib = load_pair()
    with pytest.raises(ProcessError) as exc:
        p.unload_module("nope@0x0")
    assert exc.value.code == "unknown-module"


def test_epoch_increments_on_every_mutation():
    specs, images, _ = two_module_workspace()
    p = ProcessImage()
    assert p.epoch == 0
    p.load_module(images["app"], EXE_BASE,
                  imap_for(specs["app"], images["app"], True))
    e1 = p.epoch
    lm = p.load_module(images["libfoo.so"], LIB_BASE,
                       imap_for(specs["libfoo.so"], images["libfoo.so"], True))
    e2 = p.epoch
    p.unload_module(lm.module_id)
    assert e1 > 0 and e2 > e1 and p.epoch > e2


# ---------------------------------------------------------------------------
# resolve_plt
# ---------------------------------------------------------------------------

def test_resolve_plt_returns_exporter_address():
    p, exe, lib = load_pair()
    target = p.resolve_plt(exe, EXE_BASE + 0x900)
    assert target == LIB_BASE + 0x1000
    assert p.plt_resolutions[(exe.module_id, EXE_BASE + 0x900)] == target


def test_resolve_plt_unresolved_symbol():
    specs, images, _ = two_module_workspace()
    p = ProcessImage()
    exe = p.load_module(images["app"], EXE_BASE,
                        imap_for(specs["app"], images["app"], True))
    with pytest.raises(ResolutionError) as exc:
        p.resolve_plt(exe, EXE_BASE + 0x900)
    assert exc.value.code == "unresolved-symbol"


def test_resolve_plt_first_loaded_exporter_wins():
    """Two exporters of 'foo': resolution follows load order."""
    lib_a = FixtureSpec(path="liba.so", code=b"\x90" * 0x80,
                        symbols=(SymbolSpec("foo", 0x1000, 0x10),))
    lib_b = FixtureSpec(path="libb.so", code=b"\x90" * 0x80,
                        symbols=(SymbolSpec("foo", 0x1010, 0x10),))
    app = FixtureSpec(path="app", code=b"\x90" * 0x80,
                      symbols=(SymbolSpec("main", 0x1000, 0x20),),
                      imports=("foo",), plt=("foo",))
    images = {s.path: make_image(s) for s in (lib_a, lib_b, app)}

    order = ["liba.so", "libb.so"]
    expected_base = 0x40000000  # liba loads first at this base
    p = ProcessImage()
    for path, base in zip(order, (0x40000000, 0x41000000)):
        p.load_module(images[path], base, derive_instruction_map(images[path]))
    exe = p.load_module(images["app"], EXE_BASE,
                        derive_instruction_map(images["app"]))
    assert p.resolve_plt(exe, EXE_BASE + 0x900) == expected_base + 0x1000
    # both exporters' addresses are in the allowed set, though
    targets = p.call_target_set(exe.module_id)
    assert {0x40000000 + 0x1000, 0x41000000 + 0x1010} <= targets


def test_resolve_plt_rejects_non_plt_address():
    p, exe, lib = load_pair()
    with pytest.raises(ProcessError):
        p.resolve_plt(exe, EXE_BASE + 0x1000)


def test_unresolved_imports_tolerated_until_used():
    spec = FixtureSpec(path="lonely.so", code=b"\x90" * 0x40,
                       symbols=(SymbolSpec("f", 0x1000, 0x10),),
                       imports=("ghost",))
    img = make_image(spec)
    p = ProcessImage()
    lm = p.load_module(img, 0x50000000, derive_instruction_map(img))
    # the load succeeds; the import is simply unresolved
    assert p.import_resolutions(lm.module_id) == {"ghost": None}
    # and nothing in the table grants the missing symbol
    assert p.call_target_set(lm.module_id) == {0x50000000 + 0x1000}


# ---------------------------------------------------------------------------
# function_extent
# ---------------------------------------------------------------------------

def test_extent_inside_function_interval():
    p, exe, lib = load_pair()
    assert p.function_extent(lib, LIB_BASE + 0x1010) == (LIB_BASE + 0x1000,
                                                         LIB_BASE + 0x1030)


def test_extent_in_stripped_module_is_export_granule():
    specs, images, _ = two_module_workspace()
    p = ProcessImage()
    twin = images["libfoo.so"].stripped_twin()
    lm = p.load_module(twin, LIB_BASE, derive_instruction_map(twin))
    # between bar (0x1040) and section end: the granule spans from bar on
    lo, hi = p.function_extent(lm, LIB_BASE + 0x1090)
    assert lo == LIB_BASE + 0x1040
    assert hi == LIB_BASE + 0x1200  # section end
    # before any export: granule runs from section start
    lo2, hi2 = p.function_extent(lm, LIB_BASE + 0x1035)
    assert (lo2, hi2) == (LIB_BASE + 0x1000, LIB_BASE + 0x1040)


def test_extent_outside_executable_sections_is_none():
    """An address of a loaded module in its .data, or in the unmapped gap
    before it, has no enclosing function or granule."""
    spec = FixtureSpec(path="libdata.so", code=b"\x90" * 0x40,
                       symbols=(SymbolSpec("f", 0x1000, 0x40),),
                       data=b"\0" * 0x10)
    img = make_image(spec)
    for image in (img, img.stripped_twin()):
        p = ProcessImage()
        lm = p.load_module(image, LIB_BASE, derive_instruction_map(image))
        assert p.function_extent(lm, LIB_BASE + 0x1010) == (LIB_BASE + 0x1000,
                                                            LIB_BASE + 0x1040)
        for off in (0x2000, 0x3000, 0x300C):
            assert lm.span[0] <= LIB_BASE + off < lm.span[1]
            assert p.function_extent(lm, LIB_BASE + off) is None, hex(off)


def test_extent_gap_fallback_in_nonstripped_module():
    # address in text but outside every function interval: granule carved
    # by all known function starts
    p, exe, lib = load_pair()
    # lib text: foo [0x1000,0x1030), bar [0x1040,0x1060), helpers from 0x1080
    lo, hi = p.function_extent(lib, LIB_BASE + 0x1035)
    assert (lo, hi) == (LIB_BASE + 0x1000, LIB_BASE + 0x1040)


def test_extent_at_text_offset_zero_ignores_metadata_sections():
    """Symbol and string tables sit unmapped at virtual offset 0.  With
    .text at offset 0 too, an address below their sizes is still code and
    still has its function's granule."""
    spec = FixtureSpec(path="libzero.so", code=b"\x90" * 0x40, text_vaddr=0,
                       symbols=(SymbolSpec("first", 0, 0),
                                SymbolSpec("second", 0x20, 0)))
    image = make_image(spec)
    assert any(not s.executable and s.virtual_offset == 0 and s.end > 0x24
               for s in image.sections)
    for fixture in (spec, spec.stripped_twin()):
        assert extents_match_oracle(fixture, make_image(fixture)) == 0x40
    p = ProcessImage()
    lm = p.load_module(image, LIB_BASE, derive_instruction_map(image))
    assert p.function_extent(lm, LIB_BASE + 0x24) == (LIB_BASE + 0x20,
                                                      LIB_BASE + 0x40)


def overlapping_functions_spec(rng: random.Random) -> FixtureSpec:
    """Functions that nest, overlap, share a start, have size 0 or leave
    gaps, with an optional .plt as a second executable section."""
    code_len = 0x100
    symbols: list[SymbolSpec] = []
    for j in range(rng.randint(1, 12)):
        if symbols and rng.random() < 0.25:
            value = rng.choice(symbols).value  # aliased start
        else:
            value = rng.randrange(0x1000, 0x1000 + code_len)
        size = rng.choice([0, 0, rng.randint(1, 0x20), rng.randint(1, 0x80)])
        size = min(size, 0x1000 + code_len - value)
        exported = rng.random() < 0.5
        binding = "global" if exported else rng.choice(["local", "global"])
        symbols.append(SymbolSpec(f"f{j}", value, size, binding=binding,
                                  exported=exported))
    plt = ("ext",) if rng.random() < 0.5 else ()
    return FixtureSpec(path="libnest.so", code=b"\x90" * code_len,
                       symbols=tuple(symbols), imports=plt, plt=plt)


def extents_match_oracle(spec: FixtureSpec, image) -> int:
    """Assert engine == oracle extent at every executable address."""
    p = ProcessImage()
    lm = p.load_module(image, LIB_BASE, derive_instruction_map(image))
    gm = GeneratedModule(spec=spec, image=image, base=LIB_BASE,
                         with_sidecar=False, planted_callback_values=[])
    desc = {"modules": [describe_module(gm, p)]}
    addrs = [a for lo, hi in lm.exec_ranges for a in range(lo, hi)]
    for addr in addrs:
        assert p.function_extent(lm, addr) == oracle.extent(desc, addr), (spec, hex(addr))
    return len(addrs)


def test_extent_matches_oracle_with_overlapping_functions():
    rng = random.Random(0xE87E)
    checked = 0
    for _ in range(200):
        spec = overlapping_functions_spec(rng)
        full = make_image(spec)
        checked += extents_match_oracle(spec, full)
        # The twin is made after the full image's views were cached.
        checked += extents_match_oracle(spec.stripped_twin(), full.stripped_twin())
    assert checked > 50_000


# ---------------------------------------------------------------------------
# Incremental/rebuild equivalence over randomized sequences
# ---------------------------------------------------------------------------

def test_incremental_table_equals_rebuild_over_random_sequences():
    rng = random.Random(0xC0FFEE)
    for _ in range(60):
        p, desc, generated = random_process(rng, max_modules=3)
        assert p.table == p.rebuild_table()
        assert len(p.table) == len(p.rebuild_table()) == len(p.table.snapshot())
        # unload a random module, table still equals rebuild
        if p.loaded:
            victim = rng.choice(sorted(p.loaded))
            p.unload_module(victim)
            assert p.table == p.rebuild_table()
            assert len(p.table) == len(p.rebuild_table()) == len(p.table.snapshot())
        assert not check_table_targets_valid(p)


def test_call_target_sets_match_oracle_after_each_unload():
    """Each cached per-module target set tracks unloads (oracle check)."""
    rng = random.Random(0xD1CE)
    for _ in range(40):
        p, desc, generated = random_process(rng, max_modules=4)
        surviving = list(generated)
        while surviving:
            for m in desc["modules"]:  # fills the per-epoch cache
                assert p.call_target_set(m["id"]) == oracle.call_targets(desc, m["id"])
            victim = surviving.pop(rng.randrange(len(surviving)))
            victim_id = f"{victim.path}@{victim.base:#x}"
            p.unload_module(victim_id)
            modules = [m for m in desc["modules"] if m["id"] != victim_id]
            desc = dict(desc, modules=modules)
            # A planted pointer survives while its scanner and its target do.
            desc["callbacks"] = sorted(
                {v for gm in surviving for v in gm.planted_callback_values
                 if oracle.module_of(desc, v) is not None})
            for m in modules:
                assert p.call_target_set(m["id"]) == oracle.call_targets(desc, m["id"])


def test_unload_keeps_callback_a_surviving_finding_names():
    p, exe, lib = load_pair()
    spec = FixtureSpec(path="libcb.so", code=b"\x90" * 0x40,
                       symbols=(SymbolSpec("cb_user", 0x1000, 0x10),))
    image = make_image(spec)
    other = p.load_module(image, BASES[2], derive_instruction_map(image))
    bar = LIB_BASE + 0x1040
    p.admit_callbacks([CallbackFinding(bar, "data-scan", exe.module_id),
                       CallbackFinding(bar, "data-scan", other.module_id)])
    p.unload_module(other.module_id)
    assert bar in p.table.callbacks
    assert p.table == p.rebuild_table()
    p.unload_module(exe.module_id)
    assert bar not in p.table.callbacks
    assert bar not in {f.address for f in p.callback_findings}
    assert p.table == p.rebuild_table()


def test_load_unload_inverse_over_random_modules():
    rng = random.Random(7)
    for _ in range(30):
        p, desc, generated = random_process(rng, max_modules=2,
                                            with_callbacks=False)
        before = p.table.snapshot()
        spec = random_module_spec(rng, 9, import_pool=["alpha0"])
        img = make_image(spec)
        lm = p.load_module(img, BASES[4], imap_for(spec, img, True))
        p.unload_module(lm.module_id)
        assert p.table.snapshot() == before


def test_every_table_target_is_valid_instruction():
    rng = random.Random(99)
    for _ in range(40):
        p, _desc, _gen = random_process(rng)
        assert check_table_targets_valid(p) == []

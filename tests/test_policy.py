"""Policy decisions: rule checks, callback heuristics, direct-transfer memo."""

import pathlib
import random
import struct
from collections import Counter

import oracle
from strategies import (
    EXE_BASE,
    LIB_BASE,
    NeverHitMemo,
    all_instruction_addresses,
    imap_for,
    load_events,
    make_image,
    random_process,
    two_module_workspace,
)
from elf_corpus import CORPUS_NONSTRIPPED_32, CORPUS_STRIPPED_32

from dyncfi import (
    FixtureSpec,
    ProcessImage,
    ReplayConfig,
    Replayer,
    SymbolSpec,
    TraceEvent,
    check_call,
    check_jump,
    derive_instruction_map,
    parse_module,
    scan_callbacks,
)
from dyncfi.elf import RelocSpec
from dyncfi.process import CallbackFinding, LoadedModule
from dyncfi.policy import (
    RULE_CALL_IMPORT,
    RULE_CALL_LOCAL,
    RULE_CALLBACK,
    RULE_JUMP_INTRA,
    RULE_JUMP_TAIL_CALL,
    RULE_VALID_INSTRUCTION,
)
from dyncfi.trace import DirectMemo


def loaded_pair(allowlist=frozenset()):
    specs, images, _ = two_module_workspace()
    p = ProcessImage(allowlist=allowlist)
    exe = p.load_module(images["app"], EXE_BASE,
                        imap_for(specs["app"], images["app"], True))
    lib = p.load_module(images["libfoo.so"], LIB_BASE,
                        imap_for(specs["libfoo.so"], images["libfoo.so"], True))
    return p, exe, lib


# ---------------------------------------------------------------------------
# check_call
# ---------------------------------------------------------------------------

def test_call_to_imported_export_allowed():
    p, exe, lib = loaded_pair()
    v = check_call(p, exe, LIB_BASE + 0x1000)
    assert v.allowed and v.rule == RULE_CALL_IMPORT
    assert v.target_set_size >= 1


def test_call_to_non_imported_export_denied():
    # exe imports foo but not bar: a call to bar must be denied
    p, exe, lib = loaded_pair()
    v = check_call(p, exe, LIB_BASE + 0x1040)
    assert not v.allowed and v.rule == RULE_CALL_IMPORT


def test_intra_module_local_call_allowed_then_denied_when_stripped():
    specs, images, _ = two_module_workspace()
    helper = LIB_BASE + 0x1080

    p = ProcessImage()
    lib = p.load_module(images["libfoo.so"], LIB_BASE,
                        imap_for(specs["libfoo.so"], images["libfoo.so"], True))
    v = check_call(p, lib, helper)
    assert v.allowed and v.rule == RULE_CALL_LOCAL

    # the stripped twin with no boundary knowledge cannot verify helper
    p2 = ProcessImage()
    twin = images["libfoo.so"].stripped_twin()
    p2.load_module(twin, LIB_BASE, derive_instruction_map(twin))
    v2 = check_call(p2, p2.exec_module_at(LIB_BASE + 0x1004), helper)
    assert not v2.allowed and v2.rule == RULE_VALID_INSTRUCTION


def test_stripped_module_coarsens_to_section_granularity():
    """With boundary knowledge, a stripped module admits any valid
    instruction of its own sections: a larger set than the precise one."""
    specs, images, _ = two_module_workspace()
    lib_spec = specs["libfoo.so"]

    p_full = ProcessImage()
    full = p_full.load_module(images["libfoo.so"], LIB_BASE,
                              imap_for(lib_spec, images["libfoo.so"], True))
    p_twin = ProcessImage()
    twin_img = images["libfoo.so"].stripped_twin()
    twin = p_twin.load_module(twin_img, LIB_BASE,
                              imap_for(lib_spec, twin_img, True))

    t_full = p_full.call_target_set(full.module_id)
    t_twin = p_twin.call_target_set(twin.module_id)
    assert t_full < t_twin  # strict superset under stripping

    v = check_call(p_twin, twin, LIB_BASE + 0x1080)
    assert v.allowed and v.rule == RULE_CALL_LOCAL
    assert "section-granularity" in v.reason


def test_call_to_own_export_allowed_even_when_stripped():
    specs, images, _ = two_module_workspace()
    p = ProcessImage()
    twin = images["libfoo.so"].stripped_twin()
    p.load_module(twin, LIB_BASE, derive_instruction_map(twin))
    v = check_call(p, p.exec_module_at(LIB_BASE + 0x1004), LIB_BASE + 0x1040)  # bar
    assert v.allowed and v.rule == RULE_CALL_LOCAL


def test_call_mid_instruction_denied_rule_valid_instruction():
    p, exe, lib = loaded_pair()
    v = check_call(p, exe, LIB_BASE + 0x1001)
    assert not v.allowed and v.rule == RULE_VALID_INSTRUCTION


def test_call_outside_modules_denied():
    p, exe, lib = loaded_pair()
    v = check_call(p, exe, 0x66660000)
    assert not v.allowed and v.rule == RULE_VALID_INSTRUCTION


def test_allowlist_grants_non_imported_call():
    p0, exe0, lib0 = loaded_pair()
    bar = LIB_BASE + 0x1040
    assert not check_call(p0, exe0, bar).allowed

    p, exe, lib = loaded_pair(allowlist=frozenset({("app", "bar")}))
    v = check_call(p, exe, bar)
    assert v.allowed
    assert "allowlist" in v.reason
    # and the allowed set grew by exactly that grant
    assert p.call_target_set(exe.module_id) - \
        p0.call_target_set(exe0.module_id) == {bar}


# ---------------------------------------------------------------------------
# check_jump
# ---------------------------------------------------------------------------

def test_jump_within_function_allowed():
    p, exe, lib = loaded_pair()
    v = check_jump(p, exe, EXE_BASE + 0x1004, EXE_BASE + 0x1010)
    assert v.allowed and v.rule == RULE_JUMP_INTRA


def test_jump_as_tail_call_to_import_allowed():
    p, exe, lib = loaded_pair()
    v = check_jump(p, exe, EXE_BASE + 0x1004, LIB_BASE + 0x1000)
    assert v.allowed and v.rule == RULE_JUMP_TAIL_CALL


def test_jump_mid_instruction_denied():
    p, exe, lib = loaded_pair()
    v = check_jump(p, exe, EXE_BASE + 0x1004, EXE_BASE + 0x1011)
    assert not v.allowed and v.rule == RULE_VALID_INSTRUCTION


def test_jump_escaping_function_denied_intra_rule():
    # valid instruction in the same module, outside the extent, not a target
    specs, images, _ = two_module_workspace()
    p = ProcessImage()
    lib = p.load_module(images["libfoo.so"], LIB_BASE,
                        imap_for(specs["libfoo.so"], images["libfoo.so"], True))
    # src inside foo; dst = instruction inside bar's body (not a start)
    v = check_jump(p, lib, LIB_BASE + 0x1004, LIB_BASE + 0x1044)
    assert not v.allowed and v.rule == RULE_JUMP_INTRA


def test_jump_cross_module_non_target_denied_tail_rule():
    p, exe, lib = loaded_pair()
    # instruction inside lib's foo body, not a function start
    v = check_jump(p, exe, EXE_BASE + 0x1004, LIB_BASE + 0x1004)
    assert not v.allowed and v.rule == RULE_JUMP_TAIL_CALL


def test_jump_target_set_counts_extent_and_call_targets():
    p, exe, lib = loaded_pair()
    v = check_jump(p, exe, EXE_BASE + 0x1004, EXE_BASE + 0x1010)
    # main's extent [0x1000,0x1040) holds offsets {1000,1004,1008,1010};
    # call targets: main, start, foo -- 0x1000 overlaps, union = 6
    assert v.target_set_size == 6


def test_jump_within_granule_of_text_at_offset_zero_is_intra_function():
    """The unmapped .dynsym at offset 0 overlaps .text at offset 0; a jump
    inside the second function's granule still stays in that function."""
    spec = FixtureSpec(path="libzero.so", code=b"\x90" * 0x40, text_vaddr=0,
                       symbols=(SymbolSpec("first", 0, 0),
                                SymbolSpec("second", 0x20, 0)),
                       instruction_offsets=(0x24, 0x28))
    image = make_image(spec)
    p = ProcessImage()
    lm = p.load_module(image, LIB_BASE, imap_for(spec, image, True))
    v = check_jump(p, lm, LIB_BASE + 0x24, LIB_BASE + 0x28)
    assert v.allowed and v.rule == RULE_JUMP_INTRA, v


def test_jump_walks_each_extent_once_per_epoch(monkeypatch):
    """A jump's target-set size needs the extent's instructions outside
    the call targets; that walk runs once per (module, extent) per epoch,
    so repeated jumps cost no more in a larger function."""
    walks: Counter = Counter()
    current: list[ProcessImage] = []
    walk = LoadedModule.instructions_in

    def counting(self, lo, hi):
        walks[(len(current), current[-1].epoch, self.module_id, lo, hi)] += 1
        return walk(self, lo, hi)

    monkeypatch.setattr(LoadedModule, "instructions_in", counting)
    rng = random.Random(0x7A11)
    jumps = 0
    for _ in range(10):
        p, desc, _gen = random_process(rng, with_callbacks=False)
        current.append(p)
        addrs = all_instruction_addresses(p)
        for _round in range(2):
            for src in addrs:
                for dst in addrs[::3]:
                    size = check_jump(p, p.exec_module_at(src), src, dst).target_set_size
                    assert size == oracle.check_jump(desc, src, dst)["size"]
                    jumps += 1
            # A new epoch re-counts: a callback inside a function turns one
            # of its instructions into a call target.
            inner = [a for a in addrs if not any(
                a in p.call_target_set(m) for m in p.loaded)]
            if inner:
                owner = p.exec_module_at(inner[0]).module_id
                p.admit_callbacks([CallbackFinding(inner[0], "data-scan", owner)])
                desc["callbacks"].append(inner[0])
    assert walks and max(walks.values()) == 1
    assert jumps > 10 * len(walks)


# ---------------------------------------------------------------------------
# Callback heuristics
# ---------------------------------------------------------------------------

def lib_with_code(code: bytes, extra=(), relocations=(), data=b"",
                  imports=(), plt=()):
    spec = FixtureSpec(
        path="libcb.so", code=code,
        symbols=(SymbolSpec("entry", 0x1000, len(code)),),
        imports=imports, plt=plt,
        relocations=relocations, data=data,
        instruction_offsets=tuple(extra))
    return spec, make_image(spec)


def test_push_imm32_finding():
    target = LIB_BASE + 0x1000
    code = b"\x90" * 8 + b"\x68" + struct.pack("<I", target) + b"\x90" * 8
    spec, img = lib_with_code(code)
    p = ProcessImage()
    lm = p.load_module(img, LIB_BASE, imap_for(spec, img, True))
    found = scan_callbacks(p, lm)
    assert [(f.pattern, f.address) for f in found] == [("push-imm32", target)]


def test_push_imm32_to_unmapped_address_not_admitted():
    code = b"\x68" + struct.pack("<I", 0x12345678) + b"\x90" * 8
    spec, img = lib_with_code(code)
    p = ProcessImage()
    lm = p.load_module(img, LIB_BASE, imap_for(spec, img, True))
    assert scan_callbacks(p, lm) == []


def test_mov_imm32_stack_slot_findings():
    target = LIB_BASE + 0x1000
    code = (b"\xc7\x44\x24\x08" + struct.pack("<I", target) +
            b"\xc7\x84\x24" + struct.pack("<i", 0x40) + struct.pack("<I", target) +
            b"\x90" * 4)
    spec, img = lib_with_code(code)
    p = ProcessImage()
    lm = p.load_module(img, LIB_BASE, imap_for(spec, img, True))
    found = scan_callbacks(p, lm)
    assert {f.pattern for f in found} == {"mov-imm32-to-stack-slot"}
    assert {f.address for f in found} == {target}


def test_lea_ebx_relative_resolves_against_gotplt():
    # lea eax, [ebx+disp32] with ebx = .got.plt; disp chosen to hit entry
    spec0 = FixtureSpec(path="libcb.so", code=b"\x90" * 16,
                        symbols=(SymbolSpec("entry", 0x1000, 16),),
                        imports=("ext",), plt=("ext",))
    disp = (LIB_BASE + 0x1000) - (LIB_BASE + spec0.gotplt_vaddr)
    code = b"\x8d\x83" + struct.pack("<i", disp) + b"\x90" * 10
    spec = FixtureSpec(path="libcb.so", code=code,
                       symbols=(SymbolSpec("entry", 0x1000, len(code)),),
                       imports=("ext",), plt=("ext",))
    img = make_image(spec)
    p = ProcessImage()
    lm = p.load_module(img, LIB_BASE, imap_for(spec, img, True))
    found = [f for f in scan_callbacks(p, lm) if f.pattern == "lea-ebx-relative"]
    assert [f.address for f in found] == [LIB_BASE + 0x1000]


def test_relative_relocation_finding():
    spec, img = lib_with_code(
        b"\x90" * 16,
        relocations=(RelocSpec(offset=0x3000, addend=0x1000),),
        data=b"\x00" * 8)
    p = ProcessImage()
    lm = p.load_module(img, LIB_BASE, imap_for(spec, img, True))
    found = [f for f in scan_callbacks(p, lm) if f.pattern == "relative-relocation"]
    assert [f.address for f in found] == [LIB_BASE + 0x1000]


def test_data_scan_finding():
    target = LIB_BASE + 0x1000
    spec, img = lib_with_code(b"\x90" * 16,
                              data=struct.pack("<I", target) + b"\x00" * 4)
    p = ProcessImage()
    lm = p.load_module(img, LIB_BASE, imap_for(spec, img, True))
    found = [f for f in scan_callbacks(p, lm) if f.pattern == "data-scan"]
    assert [f.address for f in found] == [target]


def test_admitted_callback_is_callable_from_any_module():
    # lib pushes a pointer to its local helper; exe may then call it
    specs, images, _ = two_module_workspace()
    helper = LIB_BASE + 0x1080
    code = b"\x68" + struct.pack("<I", helper) + b"\x90" * 0x100
    lib_spec = FixtureSpec(
        path="libfoo.so", code=code,
        symbols=(SymbolSpec("foo", 0x1000 + 0x40, 0x30),
                 SymbolSpec("helper", 0x1080, 0x18, binding="local",
                            exported=False)),
        instruction_offsets=(0x1044,))
    lib_img = make_image(lib_spec)
    p = ProcessImage()
    exe = p.load_module(images["app"], EXE_BASE,
                        imap_for(specs["app"], images["app"], True))
    lm = p.load_module(lib_img, LIB_BASE, imap_for(lib_spec, lib_img, True))
    epoch_before = p.epoch
    admitted = p.admit_callbacks(scan_callbacks(p, lm))
    assert admitted == 1 and p.epoch == epoch_before + 1
    v = check_call(p, exe, helper)
    assert v.allowed and v.rule == RULE_CALLBACK


def test_callback_soundness_every_admitted_address_is_instruction():
    rng = random.Random(0xCB)
    for _ in range(40):
        p, _desc, _gen = random_process(rng)
        for addr in {f.address for f in p.callback_findings}:
            assert p.is_instruction(addr)


def test_scan_matches_generator_expectation():
    rng = random.Random(0xF00D)
    for _ in range(60):
        p, desc, generated = random_process(rng)
        expected = set()
        for gm in generated:
            expected.update(gm.planted_callback_values)
        assert {f.address for f in p.callback_findings} == expected


# Two base assignments per module pair.  Under the first, a relative
# relocation in the higher module wraps at 32 bits onto the lower one;
# under the second, a lea sum passes 2^32 and must not wrap.
SCAN_BASES = ({"cba.so": 0x40000000, "cbb.so": 0x41000000},
              {"cba.so": 0xC0000000, "cbb.so": 0x08048000})
SCAN_GOTPLT = 0x2800


def planted_scan_spec(rng: random.Random, path: str, other: str) -> FixtureSpec:
    """A module whose code and .data plant every callback pattern, aimed
    at functions of itself and of ``other`` under both SCAN_BASES."""
    funcs = [0x1000 + 0x20 * i for i in range(8)]
    own = [bases[path] + f for bases in SCAN_BASES for f in funcs]
    foreign = [bases[other] + f for bases in SCAN_BASES for f in funcs]

    def imm() -> bytes:
        pick = rng.random()
        value = (rng.choice(own) if pick < 0.4 else rng.choice(foreign)
                 if pick < 0.8 else rng.randrange(2**32))
        return struct.pack("<I", value)

    code = bytearray()
    for _ in range(24):
        kind = rng.randrange(7)
        if kind == 0:
            code += b"\x68" + imm()
        elif kind == 1:
            code += b"\xc7\x44\x24" + bytes([rng.randrange(256)]) + imm()
        elif kind == 2:
            disp = struct.pack("<i", rng.randrange(-512, 512))
            code += b"\xc7\x84\x24" + disp + imm()
        elif kind == 3:  # lea disp32(%ebx) with any destination register
            disp = rng.choice(funcs) + rng.choice((0, 0, 1)) - SCAN_GOTPLT
            modrm = 0x83 | rng.randrange(8) << 3
            code += bytes([0x8D, modrm]) + struct.pack("<i", disp)
        elif kind == 4:  # lea sums that pass 2^32 under the second bases
            high = SCAN_BASES[1]["cba.so"] + SCAN_GOTPLT
            disp = SCAN_BASES[1]["cbb.so"] + rng.choice(funcs) + 2**32 - high
            code += b"\x8d\x83" + struct.pack("<i", disp)
        elif kind == 5:  # mod/rm that is not disp32(%ebx)
            code += bytes([0x8D, rng.choice((0x03, 0x43, 0x84, 0xC3))]) + imm()
        else:
            code += bytes(rng.randrange(256) for _ in range(rng.randrange(1, 6)))
    code += b"\x90" * (0x100 - len(code) % 0x100)
    symbols = tuple(SymbolSpec(f"{path[:3]}{i}", f, 0x20)
                    for i, f in enumerate(funcs))
    data = bytearray()
    relocs = []
    for _ in range(10):
        kind = rng.randrange(3)
        if kind == 0:
            data += imm()
        elif kind == 1:
            data += bytes(4)
        else:  # own function, or the other module's through 32-bit wraparound
            target = rng.choice(own + foreign)
            addend = (target - rng.choice(SCAN_BASES)[path]) & 0xFFFFFFFF
            relocs.append(RelocSpec(offset=0x3000 + len(data), addend=addend))
            data += bytes(4)
    data += bytes(rng.randrange(4))  # a trailing partial word is not scanned
    return FixtureSpec(
        path=path, code=bytes(code), symbols=symbols,
        imports=("ext",), plt=("ext",), relocations=tuple(relocs),
        data=bytes(data), instruction_offsets=tuple(f + 4 for f in funcs),
        gotplt_vaddr=SCAN_GOTPLT)


def scan_descriptor(lm) -> dict:
    """Oracle descriptor of one loaded module, with the scan's raw bytes."""
    mod = lm.module
    by_name = {}
    for s in mod.sections:
        by_name.setdefault(s.name, s)
    gotplt = by_name.get(".got.plt")
    return {
        "base": lm.base,
        "sections": [{"lo": s.virtual_offset, "hi": s.end, "exec": True}
                     for s in mod.sections if s.executable and s.size > 0],
        "imap": set(lm.imap.offsets),
        "code": [(s.virtual_offset, s.data) for s in mod.sections
                 if s.executable and s.size > 0],
        "gotplt": gotplt.virtual_offset if gotplt is not None else None,
        "relative": [r.addend for r in mod.relocations if r.kind == "relative"],
        "data": by_name[".data"].data if ".data" in by_name else b"",
    }


def compare_scans_with_oracle(loads) -> list[tuple[int, str]]:
    """Load (image, base, imap) in order; after each load, the engine's
    findings must equal the oracle's, list and order.  Returns them all."""
    p = ProcessImage()
    process = {"modules": []}
    admitted = []
    for image, base, imap in loads:
        lm = p.load_module(image, base, imap)
        process["modules"].append(scan_descriptor(lm))
        found = [(f.address, f.pattern) for f in scan_callbacks(p, lm)]
        assert found == oracle.callback_findings(process, process["modules"][-1])
        admitted.extend(found)
    return admitted


def test_scan_matches_brute_force_oracle_on_planted_images():
    rng = random.Random(0x5CA7)
    admitted = []
    for _ in range(12):
        specs = [planted_scan_spec(rng, "cba.so", "cbb.so"),
                 planted_scan_spec(rng, "cbb.so", "cba.so")]
        images = [(make_image(s), s) for s in specs]
        for bases in SCAN_BASES:
            for order in (images, images[::-1]):
                admitted += compare_scans_with_oracle(
                    (img, bases[s.path], imap_for(s, img, True))
                    for img, s in order)
    assert {pattern for _a, pattern in admitted} == {
        "push-imm32", "mov-imm32-to-stack-slot", "lea-ebx-relative",
        "relative-relocation", "data-scan"}
    # The wrapped relative sum reached a lower module at least once.
    low = SCAN_BASES[0]["cba.so"] + 0x1000
    assert any(pattern == "relative-relocation" and low <= a < low + 0x100
               for a, pattern in admitted)


def test_scan_matches_brute_force_oracle_on_corpus():
    images = [parse_module(pathlib.Path(path).read_bytes(), path)
              for path in (CORPUS_NONSTRIPPED_32, CORPUS_STRIPPED_32)]
    admitted = []
    for bases in ((0x40000000, 0x50000000), (0x08048000, 0xF0000000)):
        for order in ((0, 1), (1, 0)):
            admitted += compare_scans_with_oracle(
                (images[i], bases[i], derive_instruction_map(images[i]))
                for i in order)
    assert admitted


# ---------------------------------------------------------------------------
# Direct-transfer memo
# ---------------------------------------------------------------------------

def test_cache_hit_same_epoch_and_invalidation_on_epoch_bump():
    """A verdict is reused within its epoch; a load, a callback admission
    and an unload each drop it."""
    p, exe, lib = loaded_pair()
    memo = DirectMemo()
    src, dst = EXE_BASE + 0x1004, LIB_BASE + 0x1000
    key = ("direct-call", src, dst)
    extra = FixtureSpec(path="liby.so", code=b"\x90" * 0x40,
                        symbols=(SymbolSpec("y", 0x1000, 0x10),))
    yimg = make_image(extra)
    changes = {
        "load": lambda: p.load_module(yimg, 0x50000000,
                                      derive_instruction_map(yimg)),
        "callback admission": lambda: p.admit_callbacks(
            [CallbackFinding(LIB_BASE + 0x1040, "data-scan", exe.module_id)]),
        "unload": lambda: p.unload_module("liby.so@0x50000000"),
    }
    verdict = check_call(p, exe, dst)
    assert memo.lookup(key, p.epoch) is None
    for what, change in changes.items():
        memo.insert(key, verdict)
        assert memo.lookup(key, p.epoch) == verdict
        epoch = p.epoch
        change()
        assert p.epoch != epoch, what
        assert memo.lookup(key, p.epoch) is None, what
    assert (memo.hits, memo.misses) == (3, 4)


def test_cache_lookup_never_inserted_pair_misses():
    memo = DirectMemo()
    assert memo.lookup(("direct-call", 1, 2), epoch=0) is None
    assert (memo.hits, memo.misses) == (0, 1)


def test_cache_transparency_on_fixture_pair():
    """Repeated direct pairs hit the memo and replay exactly as when every
    direct event is checked."""
    _specs, images, sidecar = two_module_workspace()
    exe_src, lib_src = EXE_BASE + 0x1004, LIB_BASE + 0x1004
    events = load_events()
    for kind, src, dst in [("direct-call", exe_src, LIB_BASE + 0x1000),
                           ("direct-call", exe_src, LIB_BASE + 0x1040),
                           ("direct-jump", lib_src, LIB_BASE + 0x1080),
                           ("direct-call", exe_src, LIB_BASE + 0x1000),
                           ("direct-jump", lib_src, LIB_BASE + 0x1080)]:
        events.append(TraceEvent(seq=len(events) + 1, tid=0, kind=kind,
                                 src=src, dst=dst,
                                 length=5 if kind == "direct-call" else None))
    memoized = Replayer(ReplayConfig(sidecar=sidecar), dict(images))
    checked = Replayer(ReplayConfig(sidecar=sidecar), dict(images))
    checked.cache = NeverHitMemo()
    assert memoized.replay(events).to_json() == checked.replay(events).to_json()
    assert (memoized.cache.hits, memoized.cache.misses) == (2, 3)
    assert (checked.cache.hits, checked.cache.misses) == (0, 5)


def test_denial_stability_within_epoch():
    p, exe, lib = loaded_pair()
    bar = LIB_BASE + 0x1040
    v1 = check_call(p, exe, bar)
    v2 = check_call(p, exe, bar)
    assert v1 == v2 and not v1.allowed


def test_interposition_reports_call_local():
    """A module importing a name it also exports: intra-module wins."""
    spec = FixtureSpec(path="libself.so", code=b"\x90" * 0x40,
                       symbols=(SymbolSpec("dup", 0x1000, 0x10),),
                       imports=("dup",))
    img = make_image(spec)
    p = ProcessImage()
    lm = p.load_module(img, LIB_BASE, derive_instruction_map(img))
    v = check_call(p, lm, LIB_BASE + 0x1000)
    assert v.allowed and v.rule == RULE_CALL_LOCAL


def test_duplicate_exporters_grant_both_addresses():
    """Two modules exporting the same name: an importer may reach either,
    matching the brute-force oracle."""
    import oracle as oracle_mod

    lib_a = FixtureSpec(path="liba.so", code=b"\x90" * 0x40,
                        symbols=(SymbolSpec("shared", 0x1000, 0x10),))
    lib_b = FixtureSpec(path="libb.so", code=b"\x90" * 0x40,
                        symbols=(SymbolSpec("shared", 0x1008, 0x10),))
    app = FixtureSpec(path="app", code=b"\x90" * 0x40,
                      symbols=(SymbolSpec("main", 0x1000, 0x20),),
                      imports=("shared",))
    p = ProcessImage()
    bases = {"liba.so": 0x40000000, "libb.so": 0x41000000, "app": EXE_BASE}
    descs = []
    for spec in (lib_a, lib_b, app):
        img = make_image(spec)
        p.load_module(img, bases[spec.path], derive_instruction_map(img))
        descs.append({
            "id": f"{spec.path}@{bases[spec.path]:#x}", "path": spec.path,
            "base": bases[spec.path], "stripped": False,
            "sections": [{"lo": 0x1000, "hi": 0x1000 + len(spec.code),
                          "exec": True}],
            "imap": [s.value for s in spec.symbols],
            "exports": [{"name": s.name, "value": s.value, "size": s.size,
                         "kind": s.kind} for s in spec.symbols],
            "locals": [], "imports": list(spec.imports)})
    desc = {"modules": descs, "callbacks": [], "allowlist": []}
    for dst in (0x40000000 + 0x1000, 0x41000000 + 0x1008):
        ev = check_call(p, p.exec_module_at(EXE_BASE + 0x1000), dst)
        ov = oracle_mod.check_call(desc, EXE_BASE + 0x1000, dst)
        assert ev.allowed and ov["decision"] == "allow"
        assert ev.target_set_size == ov["size"]


# ---------------------------------------------------------------------------
# Oracle equivalence (small version; the big one lives in acceptance)
# ---------------------------------------------------------------------------

def test_engine_matches_brute_force_oracle_on_random_images():
    rng = random.Random(0xACE)
    for _ in range(25):
        p, desc, _gen = random_process(rng)
        addrs = all_instruction_addresses(p)
        for src in addrs:
            src_mod = p.exec_module_at(src)
            for dst in addrs:
                ev = check_call(p, src_mod, dst)
                ov = oracle.check_call(desc, src, dst)
                assert (ev.decision, ev.target_set_size) == \
                    (ov["decision"], ov["size"]), (hex(src), hex(dst))
                if ev.allowed:
                    assert ev.rule == ov["rule"], (hex(src), hex(dst))
                ej = check_jump(p, src_mod, src, dst)
                oj = oracle.check_jump(desc, src, dst)
                assert (ej.decision, ej.target_set_size) == \
                    (oj["decision"], oj["size"]), (hex(src), hex(dst))
                if ej.allowed:
                    assert ej.rule == oj["rule"], (hex(src), hex(dst))

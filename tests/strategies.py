"""Shared fixture generators: randomized modules, process images, traces.

Seeded ``random.Random`` drives the counted acceptance loops; hypothesis
strategies (built on the same helpers) drive the property tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from dyncfi import (
    FixtureSpec,
    ModuleImage,
    ProcessImage,
    RelocSpec,
    ShadowStack,
    SymbolSpec,
    TraceEvent,
    build_fixture,
    derive_instruction_map,
    load_sidecar,
    parse_module,
    scan_callbacks,
    sidecar_lines,
)
from dyncfi.elf import (
    GOT_RESERVED_SLOTS,
    PLT_ENTRY_SIZE,
    PltEntry,
    RelocationRecord,
)
from dyncfi.trace import DirectMemo

BASES = [0x08048000, 0x40000000, 0x41000000, 0x42000000, 0x43000000, 0x44000000]

NAME_POOL = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
             "theta", "iota", "kappa", "lam", "mu", "nu", "xi", "omicron"]

EXE_BASE = 0x08048000
LIB_BASE = 0x40000000


class NeverHitMemo(DirectMemo):
    """A direct memo that forgets everything: each direct event is checked."""

    def lookup(self, key, epoch):
        self.misses += 1
        return None


def make_image(spec: FixtureSpec) -> ModuleImage:
    return parse_module(build_fixture(spec), spec.path)


# Expected parse results of a fixture spec, accounting for what stripping
# removes.

def expected_symbols(spec: FixtureSpec) -> list[SymbolSpec]:
    if spec.stripped:
        return [s for s in spec.symbols if s.exported]
    return list(spec.symbols)


def expected_exports(spec: FixtureSpec) -> list[str]:
    return [s.name for s in spec.symbols if s.exported]


def expected_relocations(spec: FixtureSpec) -> list[RelocationRecord]:
    out = [RelocationRecord(offset=r.offset, kind="relative", addend=r.addend)
           for r in spec.relocations]
    for i, sym in enumerate(spec.plt):
        slot = spec.gotplt_vaddr + 4 * (GOT_RESERVED_SLOTS + i)
        plt_addr = spec.plt_vaddr + PLT_ENTRY_SIZE * i
        out.append(RelocationRecord(offset=slot, kind="jmp-slot",
                                    addend=plt_addr + 6, symbol=sym))
    return out


def expected_plt_entries(spec: FixtureSpec) -> list[PltEntry]:
    return [PltEntry(address=spec.plt_vaddr + PLT_ENTRY_SIZE * i, symbol=sym)
            for i, sym in enumerate(spec.plt)]


def check_table_targets_valid(process: ProcessImage) -> list[int]:
    """Lookup-table targets that are not valid instruction starts (should
    be [])."""
    return [t for t in sorted(process.table.snapshot())
            if not process.is_instruction(t)]


def shadow_frames(stack: ShadowStack) -> tuple[int, ...]:
    """A shadow stack's return addresses, bottom of the stack first."""
    return tuple(stack._frames)


def imap_for(spec: FixtureSpec, image: ModuleImage, with_sidecar: bool):
    if with_sidecar:
        return derive_instruction_map(
            image, load_sidecar("\n".join(sidecar_lines(spec))))
    return derive_instruction_map(image)


@dataclass
class GeneratedModule:
    spec: FixtureSpec
    image: ModuleImage
    base: int
    with_sidecar: bool
    planted_callback_values: list[int]

    @property
    def path(self) -> str:
        return self.spec.path

    def scan_visible_function_starts(self) -> list[int]:
        return scan_visible_starts(self.spec, self.base, self.with_sidecar)


def scan_visible_starts(spec: FixtureSpec, base: int,
                        with_sidecar: bool) -> list[int]:
    """Absolute function entries a scan can prove valid (in the imap)."""
    if spec.stripped and not with_sidecar:
        values = [s.value for s in spec.symbols
                  if s.kind == "function" and s.exported]
    else:
        values = [s.value for s in spec.symbols if s.kind == "function"]
    return [base + v for v in values]


def random_module_spec(rng: random.Random, index: int, *,
                       import_pool: list[str],
                       max_symbols: int = 8,
                       allow_stripped: bool = True,
                       extra_offsets: bool = True) -> FixtureSpec:
    """One module with disjoint function intervals carved from .text."""
    path = f"m{index}.so"
    n_funcs = rng.randint(1, max(1, max_symbols - 1))
    code_len = 0x40 * (n_funcs + 2)
    cursor = 0x1000
    symbols: list[SymbolSpec] = []
    offsets: list[int] = []
    for name in rng.sample(NAME_POOL, k=n_funcs):
        size = rng.choice([0x10, 0x20, 0x30])
        gap = rng.choice([0, 0, 0x8])
        if cursor + size + gap > 0x1000 + code_len:
            break
        exported = rng.random() < 0.6
        symbols.append(SymbolSpec(
            name=f"{name}{index}", value=cursor, size=size,
            binding="global" if exported else rng.choice(["local", "global"]),
            exported=exported))
        if extra_offsets:
            offsets.extend(cursor + d for d in (2, 5, 9) if d < size)
        cursor += size + gap
    imports = []
    if import_pool:
        imports = rng.sample(import_pool,
                             k=rng.randint(0, min(3, len(import_pool))))
    if rng.random() < 0.2:
        imports.append(f"unresolved{index}")
    plt = tuple(n for n in imports if rng.random() < 0.4)
    stripped = allow_stripped and rng.random() < 0.3
    return FixtureSpec(
        path=path, code=b"\x90" * code_len,
        symbols=tuple(symbols), imports=tuple(imports), plt=plt,
        instruction_offsets=tuple(sorted(set(offsets))),
        stripped=stripped)


def plant_callbacks(rng: random.Random, spec: FixtureSpec, base: int,
                    candidates: list[int]) -> tuple[FixtureSpec, list[int]]:
    """Point .data words / relative relocations at function entries.

    ``candidates`` must be addresses that are provably valid instruction
    starts at scan time, so the expected admission set is exact.
    """
    planted: list[int] = []
    data = bytearray()
    relocs: list[RelocSpec] = []
    if candidates and rng.random() < 0.5:
        value = rng.choice(candidates)
        data += value.to_bytes(4, "little")
        planted.append(value)
    else:
        data += b"\x00" * 4
    if candidates and rng.random() < 0.4:
        value = rng.choice(candidates)
        relocs.append(RelocSpec(offset=spec.data_vaddr + len(data),
                                addend=(value - base) & 0xFFFFFFFF))
        data += b"\x00" * 4
        planted.append(value)
    return replace(spec, data=bytes(data), relocations=tuple(relocs)), planted


def random_process(rng: random.Random, *, max_modules: int = 3,
                   max_symbols: int = 8, with_callbacks: bool = True
                   ) -> tuple[ProcessImage, dict, list[GeneratedModule]]:
    """A loaded ProcessImage plus the oracle descriptor of the same state."""
    n_modules = rng.randint(1, max_modules)
    generated: list[GeneratedModule] = []
    process = ProcessImage()
    export_pool: list[str] = []
    planted_all: list[int] = []
    for i in range(n_modules):
        spec = random_module_spec(rng, i, import_pool=export_pool,
                                  max_symbols=max_symbols)
        base = BASES[i]
        with_sidecar = bool(spec.instruction_offsets) or rng.random() < 0.7
        if with_callbacks:
            candidates: list[int] = []
            for gm in generated:
                candidates.extend(gm.scan_visible_function_starts())
            candidates.extend(scan_visible_starts(spec, base, with_sidecar))
            spec, planted = plant_callbacks(rng, spec, base, candidates)
        else:
            planted = []
        image = make_image(spec)
        gm = GeneratedModule(spec=spec, image=image, base=base,
                             with_sidecar=with_sidecar,
                             planted_callback_values=planted)
        generated.append(gm)
        planted_all.extend(planted)
        export_pool.extend(s.name for s in spec.symbols
                           if s.exported and s.kind == "function")
        lm = process.load_module(image, base, imap_for(spec, image, with_sidecar))
        process.admit_callbacks(scan_callbacks(process, lm))
    desc = {"modules": [describe_module(gm, process) for gm in generated],
            "callbacks": sorted(set(planted_all)),
            "allowlist": []}
    return process, desc, generated


def describe_module(gm: GeneratedModule, process: ProcessImage) -> dict:
    """Oracle descriptor straight from the generator's ground truth."""
    spec = gm.spec
    module_id = f"{spec.path}@{gm.base:#x}"
    lm = process.loaded[module_id]
    sections = [{"lo": spec.text_vaddr, "hi": spec.text_vaddr + len(spec.code),
                 "exec": True}]
    if spec.plt:
        sections.append({"lo": spec.plt_vaddr,
                         "hi": spec.plt_vaddr + 16 * len(spec.plt), "exec": True})
    exports = [{"name": s.name, "value": s.value, "size": s.size, "kind": s.kind}
               for s in spec.symbols if s.exported]
    locals_ = [] if spec.stripped else [
        {"name": s.name, "value": s.value, "size": s.size, "kind": s.kind}
        for s in spec.symbols if not s.exported]
    return {
        "id": module_id,
        "path": spec.path,
        "base": gm.base,
        "stripped": spec.stripped,
        "sections": sections,
        "imap": list(lm.imap.offsets),
        "exports": exports,
        "locals": locals_,
        "imports": list(spec.imports),
    }


def all_instruction_addresses(process: ProcessImage) -> list[int]:
    out: list[int] = []
    for lm in process.loaded.values():
        out.extend(lm.base + off for off in lm.imap.offsets)
    return sorted(out)


# ---------------------------------------------------------------------------
# Shadow-stack op sequences
# ---------------------------------------------------------------------------

def balanced_shadow_ops(rng: random.Random, *, max_depth: int = 64,
                        n_calls: int = 20) -> list[tuple]:
    """Properly nested ("call", site, ra) / ("ret", claimed) sequences."""
    ops: list[tuple] = []
    stack: list[int] = []
    site = 0x8049000
    calls_left = n_calls
    while calls_left or stack:
        do_call = calls_left and (len(stack) < max_depth and
                                  (not stack or rng.random() < 0.55))
        if do_call:
            length = rng.choice([2, 3, 5])
            ops.append(("call", site, site + length))
            stack.append(site + length)
            site += rng.choice([7, 11, 13])
            calls_left -= 1
        else:
            ops.append(("ret", stack.pop()))
    return ops


# ---------------------------------------------------------------------------
# The deterministic two-module workspace used by many tests
# ---------------------------------------------------------------------------

def two_module_workspace(*, locals_in_lib: int = 2, extra_offsets: bool = True):
    """exe (imports foo, one PLT entry) + lib (exports foo/bar, local helpers)."""
    exe_offsets = (0x1004, 0x1008, 0x1010) if extra_offsets else ()
    exe_spec = FixtureSpec(
        path="app", code=b"\x90" * 0x100,
        symbols=(SymbolSpec("main", 0x1000, 0x40),
                 SymbolSpec("start", 0x1050, 0x20, binding="local",
                            exported=False)),
        imports=("foo",), plt=("foo",),
        instruction_offsets=exe_offsets,
    )
    helper_syms = tuple(
        SymbolSpec(f"helper{i}", 0x1080 + 0x20 * i, 0x18, binding="local",
                   exported=False)
        for i in range(locals_in_lib))
    lib_offsets = ()
    if extra_offsets:
        lib_offsets = ((0x1004, 0x100c, 0x1044) +
                       tuple(0x1084 + 0x20 * i for i in range(locals_in_lib)))
    lib_spec = FixtureSpec(
        path="libfoo.so", code=b"\x90" * 0x200,
        symbols=(SymbolSpec("foo", 0x1000, 0x30),
                 SymbolSpec("bar", 0x1040, 0x20)) + helper_syms,
        instruction_offsets=lib_offsets,
    )
    specs = {s.path: s for s in (exe_spec, lib_spec)}
    images = {p: make_image(s) for p, s in specs.items()}
    sidecar = load_sidecar("\n".join(sidecar_lines(exe_spec) +
                                     sidecar_lines(lib_spec)))
    return specs, images, sidecar


def load_events() -> list[TraceEvent]:
    return [
        TraceEvent(seq=1, tid=0, kind="load", path="app", base=EXE_BASE),
        TraceEvent(seq=2, tid=0, kind="load", path="libfoo.so", base=LIB_BASE),
    ]


def renumber(events: list[TraceEvent]) -> list[TraceEvent]:
    return [replace(e, seq=i + 1) for i, e in enumerate(events)]

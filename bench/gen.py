"""Seeded known-answer workload generator for the replay benchmark.

Fabricates ELF32 module sets with ``dyncfi.elf.build_fixture`` and writes
JSONL traces together with the violations each trace must produce.  The
answer comes from the generator's own model of the policy, never from the
engine: every transfer it emits is legal by construction, except the ~1%
it injects on purpose, each recorded as ``(seq, rule)``.

Injected classes and the rule that must report them:

    mid-instruction indirect jump          valid-instruction
    call to a non-imported foreign function call-import
    stale return address                   return-shadow-match
    indirect jump escaping its function    jump-intra-function
    code-write                             self-modifying-code

None of them cascades: a denied jump moves nothing, a denied call still
pushes its shadow frame (the engine does the same), a stale return still
consumes the top frame, and code-write changes no state.  A jump can only
escape its function in a non-stripped module, because a stripped module
admits every one of its valid instructions as a call target; that class
is therefore drawn only where the current module keeps its symbols.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from dyncfi.elf import FixtureSpec, RelocSpec, SymbolSpec, build_fixture, sidecar_lines

RULE_VALID_INSTRUCTION = "valid-instruction"
RULE_CALL_IMPORT = "call-import"
RULE_RETURN_SHADOW = "return-shadow-match"
RULE_JUMP_INTRA = "jump-intra-function"
RULE_SELF_MODIFYING = "self-modifying-code"
INJECTED_RULES = (RULE_VALID_INSTRUCTION, RULE_CALL_IMPORT, RULE_RETURN_SHADOW,
                  RULE_JUMP_INTRA, RULE_SELF_MODIFYING)

PATTERNS = ("push-imm32", "mov-imm32-to-stack-slot", "lea-ebx-relative",
            "relative-relocation", "data-scan")

BASE0 = 0x40000000
BASE_STRIDE = 0x01000000
TEXT_VADDR = 0x1000
FUNC_SIZES = (0x10, 0x20, 0x30)
EXTRA_DELTAS = (2, 5, 9, 12)     # non-entry instruction starts per function
CALL_SITES = (1, 3, 6, 10)       # call-site offsets; site + CALL_LEN < 0x10
CALL_LEN = 5
JUMP_SITE = 7
PATTERN_AT = 0x10                # callback pattern offset in a 0x30 carrier
CARRIER_SIZE = 0x30
ZIPF_S = 1.5                     # assumed skew of the hot set, not measured
TAIL_CALL_SHARE = 0.5            # assumed share of indirect jumps that tail-call
MAX_DEPTH = 48

#: Event-kind weights of a legal step (injections come on top).  These are
#: assumptions with no measured trace behind them; bench/README.md names
#: the metrics that depend on them.
MIX = {"indirect-call": 10, "direct-call": 10, "plt-call": 8, "return": 28,
       "indirect-jump": 16, "direct-jump": 26, "exception-unwind": 2}

_HOT = {"modules": 4, "functions": 1000, "stripped": False, "export_share": 0.5,
        "imports": 120, "plt": 40, "callbacks_per_pattern": 1, "traces": 48,
        "transfers": 1500, "threads": 2, "skewed": True, "churn": None}

#: The benchmark's workloads at their stated sizes; BENCHMARK.json records
#: why each one is there.  ``transfers`` counts walk steps per trace, per
#: epoch on load-churn.
WORKLOADS: dict[str, dict] = {
    "replay-hot": _HOT,
    "load-churn": {"modules": 6, "functions": 700, "stripped": False,
                   "export_share": 0.6, "imports": 260, "plt": 90,
                   "callbacks_per_pattern": 8, "traces": 48, "transfers": 30,
                   "threads": 1, "skewed": False,
                   "churn": {"plugins": 2, "cycles": 2}},
    "stripped-cold": dict(_HOT, stripped=True, skewed=False),
}

INJECT_RATE = 0.01


@dataclass
class Func:
    name: str
    start: int                  # module-relative
    size: int
    exported: bool
    extras: tuple[int, ...]     # module-relative non-entry instruction starts


@dataclass
class Module:
    index: int
    path: str
    base: int
    stripped: bool
    funcs: list[Func]
    imports: list[str] = field(default_factory=list)
    plt: list[str] = field(default_factory=list)
    plt_vaddr: int = 0
    callbacks: list[int] = field(default_factory=list)   # function indices
    spec: FixtureSpec | None = None


def _align(value: int, to: int) -> int:
    return (value + to - 1) // to * to


def build_modules(rng: random.Random, shape: dict, prefix: str) -> list[Module]:
    """Module models plus their fixture specs (imports reference peers)."""
    modules: list[Module] = []
    n_carriers = 3 * shape["callbacks_per_pattern"]
    for i in range(shape["modules"]):
        funcs = []
        cursor = TEXT_VADDR
        for j in range(shape["functions"]):
            size = CARRIER_SIZE if j < n_carriers else rng.choice(FUNC_SIZES)
            funcs.append(Func(name=f"{prefix}{i}_f{j}", start=cursor, size=size,
                              exported=j > 0 and rng.random() < shape["export_share"],
                              extras=tuple(cursor + d for d in EXTRA_DELTAS)))
            cursor += size
        modules.append(Module(index=i, path=f"{prefix}{i}.so",
                              base=BASE0 + i * BASE_STRIDE,
                              stripped=shape["stripped"], funcs=funcs))
    for m in modules:
        pool = [f.name for o in modules if o is not m for f in o.funcs if f.exported]
        m.imports = rng.sample(pool, min(shape["imports"], len(pool)))
        m.plt = m.imports[:max(1, shape["plt"])]
        m.spec = _spec_for(rng, m, shape["callbacks_per_pattern"])
    return modules


def _spec_for(rng: random.Random, m: Module, per_pattern: int) -> FixtureSpec:
    text_end = m.funcs[-1].start + m.funcs[-1].size
    m.plt_vaddr = _align(text_end, 0x100) + 0x100
    gotplt_vaddr = _align(m.plt_vaddr + 16 * len(m.plt), 0x100) + 0x100
    data_vaddr = _align(gotplt_vaddr + 4 * (3 + len(m.plt)), 0x1000) + 0x1000
    code = bytearray(b"\x90" * (text_end - TEXT_VADDR))
    hidden = [j for j, f in enumerate(m.funcs) if not f.exported and j > 0]
    targets = rng.sample(hidden, min(len(hidden), 5 * per_pattern))
    m.callbacks = targets
    data = bytearray()
    relocs = []
    for k, fj in enumerate(targets):
        pattern = PATTERNS[k % len(PATTERNS)]
        off = m.funcs[fj].start
        if k % len(PATTERNS) < 3:       # byte patterns live in carrier functions
            carrier = m.funcs[(k // len(PATTERNS)) * 3 + k % len(PATTERNS)]
            at = carrier.start + PATTERN_AT - TEXT_VADDR
            if pattern == "push-imm32":
                code[at:at + 5] = b"\x68" + (m.base + off).to_bytes(4, "little")
            elif pattern == "mov-imm32-to-stack-slot":
                code[at:at + 8] = (b"\xc7\x44\x24\x04"
                                   + (m.base + off).to_bytes(4, "little"))
            else:
                code[at:at + 6] = (b"\x8d\x83" + (off - gotplt_vaddr).to_bytes(
                    4, "little", signed=True))
        elif pattern == "relative-relocation":
            relocs.append(RelocSpec(offset=data_vaddr + len(data), addend=off))
            data += b"\x00" * 4
        else:
            data += (m.base + off).to_bytes(4, "little")
    symbols = tuple(SymbolSpec(name=f.name, value=f.start, size=f.size,
                               binding="global" if f.exported else "local",
                               exported=f.exported) for f in m.funcs)
    return FixtureSpec(
        path=m.path, code=bytes(code), symbols=symbols,
        imports=tuple(m.imports), plt=tuple(m.plt),
        relocations=tuple(relocs), data=bytes(data),
        instruction_offsets=tuple(x for f in m.funcs for x in f.extras),
        stripped=m.stripped, text_vaddr=TEXT_VADDR, plt_vaddr=m.plt_vaddr,
        gotplt_vaddr=gotplt_vaddr, data_vaddr=data_vaddr)


# ---------------------------------------------------------------------------
# Trace generation
# ---------------------------------------------------------------------------

@dataclass
class Frame:
    ret: int
    caller: tuple[int, int]     # (module, function) the return lands in


@dataclass
class Thread:
    stack: list[Frame] = field(default_factory=list)
    cur: tuple[int, int] = (0, 0)


class _Pool:
    """Choices over a list, Zipf-skewed by a seeded rank order or uniform."""

    def __init__(self, rng: random.Random, items: list, skewed: bool) -> None:
        self.items = list(items)
        self.rng = rng
        self.cum = None
        if skewed and self.items:
            rng.shuffle(self.items)
            total = 0.0
            self.cum = []
            for rank in range(1, len(self.items) + 1):
                total += rank ** -ZIPF_S
                self.cum.append(total)

    def __bool__(self) -> bool:
        return bool(self.items)

    def pick(self):
        if self.cum is None:
            return self.rng.choice(self.items)
        return self.rng.choices(self.items, cum_weights=self.cum)[0]


class TraceWriter:
    """Random walk over the module model emitting legal events, plus
    injected violations with their expected rules."""

    def __init__(self, rng: random.Random, modules: list[Module], shape: dict) -> None:
        self.rng = rng
        self.modules = modules
        self.shape = shape
        self.by_name = {f.name: (m.index, j) for m in modules
                        for j, f in enumerate(m.funcs) if f.exported}
        self.lines: list[str] = []
        self.answer: list[tuple[int, str]] = []
        self.kinds: dict[str, int] = {}
        self.seq = 0
        self.loaded: list[int] = []
        self.threads = {tid: Thread() for tid in range(1, shape["threads"] + 1)}
        self.stale: list[int] = []
        # Direct sites always reach the same target, as in real code.
        self.call_target: dict[tuple, object] = {}
        self.jump_target: dict[tuple[int, int], int] = {}
        self.mix_kinds = list(MIX)
        self.mix_cum = list(itertools.accumulate(MIX.values()))

    # -- output ------------------------------------------------------------

    def _emit(self, tid: int, kind: str, body: str) -> int:
        self.seq += 1
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        self.lines.append(f'{{"seq": {self.seq}, "tid": {tid}, "kind": "{kind}"{body}}}')
        return self.seq

    def _transfer(self, tid: int, kind: str, src: int, dst: int,
                  length: int | None = None) -> int:
        body = f', "src": "{src:#x}", "dst": "{dst:#x}"'
        if length is not None:
            body += f', "len": {length}'
        return self._emit(tid, kind, body)

    # -- model -------------------------------------------------------------

    def _addr(self, mi: int, fj: int) -> int:
        return self.modules[mi].base + self.modules[mi].funcs[fj].start

    def _func(self, loc: tuple[int, int]) -> Func:
        return self.modules[loc[0]].funcs[loc[1]]

    def load(self, indices: list[int]) -> None:
        for mi in indices:
            m = self.modules[mi]
            self._emit(0, "load", f', "path": "{m.path}", "base": "{m.base:#x}"')
            self.loaded.append(mi)
        self._rebuild_pools()

    def unload(self, mi: int) -> None:
        for tid in self.threads:
            self._unwind_all(tid)
        m = self.modules[mi]
        self._emit(0, "unload", f', "path": "{m.path}", "base": "{m.base:#x}"')
        self.loaded.remove(mi)
        self._rebuild_pools()

    def _rebuild_pools(self) -> None:
        """Allowed targets per loaded module for the current epoch."""
        rng, skewed = self.rng, self.shape["skewed"]
        loaded = set(self.loaded)
        callbacks = [(mi, fj) for mi in self.loaded
                     for fj in self.modules[mi].callbacks]
        self.callback_set = set(callbacks)
        self.own: dict[int, _Pool] = {}
        self.icall: dict[int, _Pool] = {}
        self.plt: dict[int, _Pool] = {}
        self.allowed: dict[int, set[tuple[int, int]]] = {}
        for mi in self.loaded:
            m = self.modules[mi]
            own = [(mi, fj) for fj in range(len(m.funcs))]
            imported = [self.by_name[n] for n in m.imports
                        if self.by_name[n][0] in loaded]
            self.own[mi] = _Pool(rng, own, skewed)
            self.icall[mi] = _Pool(rng, own + imported + callbacks, skewed)
            self.allowed[mi] = set(own) | set(imported) | self.callback_set
            self.plt[mi] = _Pool(rng, [k for k, n in enumerate(m.plt)
                                       if self.by_name[n][0] in loaded], skewed)

    def _unwind_all(self, tid: int) -> None:
        th = self.threads[tid]
        while th.stack:
            self._return(tid)
        th.cur = (self.loaded[0], 0)

    # -- legal steps --------------------------------------------------------

    def _call(self, tid: int, kind: str) -> None:
        th = self.threads[tid]
        mi, fj = th.cur
        site = self.rng.choice(CALL_SITES)
        src = self._addr(mi, fj) + site
        m = self.modules[mi]
        if kind == "indirect-call":
            callee = self.icall[mi].pick()
            dst = self._addr(*callee)
        elif kind == "plt-call":
            key = (mi, fj, site, kind)
            k = self.call_target.get(key)
            if k is None or self.by_name[m.plt[k]][0] not in self.loaded:
                k = self.call_target[key] = self.plt[mi].pick()
            dst = m.base + m.plt_vaddr + 16 * k
            callee = self.by_name[m.plt[k]]
        else:
            key = (mi, fj, site, kind)
            callee = self.call_target.get(key)
            if callee is None:
                callee = self.call_target[key] = self.own[mi].pick()
            dst = self._addr(*callee)
        self._transfer(tid, kind, src, dst, CALL_LEN)
        th.stack.append(Frame(src + CALL_LEN, th.cur))
        th.cur = callee

    def _return(self, tid: int, claimed: int | None = None) -> int:
        th = self.threads[tid]
        f = self._func(th.cur)
        frame = th.stack.pop()
        src = self.modules[th.cur[0]].base + f.start + f.size - 1
        seq = self._transfer(tid, "return", src,
                             frame.ret if claimed is None else claimed)
        self.stale.append(frame.ret)
        th.cur = frame.caller
        return seq

    def _jump(self, tid: int, kind: str) -> None:
        th = self.threads[tid]
        mi, fj = th.cur
        f = self._func(th.cur)
        base = self.modules[mi].base
        src = base + f.start + JUMP_SITE
        if kind == "indirect-jump" and self.rng.random() < TAIL_CALL_SHARE:
            target = self.icall[mi].pick()          # tail call
            self._transfer(tid, kind, src, self._addr(*target))
            th.cur = target
            return
        if kind == "direct-jump":
            dst = self.jump_target.get(th.cur)
            if dst is None:
                dst = self.jump_target[th.cur] = (
                    base + self.rng.choice((f.start,) + f.extras))
        else:
            dst = base + self.rng.choice((f.start,) + f.extras)
        self._transfer(tid, kind, src, dst)

    def _unwind(self, tid: int) -> bool:
        th = self.threads[tid]
        depth = len(th.stack)
        if depth < 2:
            return False
        k = self.rng.randrange(depth - 1)
        ret = th.stack[k].ret
        if any(fr.ret == ret for fr in th.stack[k + 1:]):
            return False
        self._emit(tid, "exception-unwind", f', "target": "{ret:#x}"')
        th.cur = th.stack[k + 1].caller
        del th.stack[k + 1:]
        return True

    def step(self) -> None:
        tid = self.rng.randrange(1, len(self.threads) + 1)
        if self.rng.random() < self.shape.get("inject_rate", INJECT_RATE):
            self._inject(tid)
            return
        th = self.threads[tid]
        kind = self.rng.choices(self.mix_kinds, cum_weights=self.mix_cum)[0]
        if kind == "return" and not th.stack:
            kind = "direct-call"
        if kind in ("indirect-call", "direct-call", "plt-call"):
            if len(th.stack) >= MAX_DEPTH:
                kind = "return"
            elif kind == "plt-call" and not self.plt[th.cur[0]]:
                kind = "direct-call"
        if kind == "return":
            self._return(tid)
        elif kind.endswith("call"):
            self._call(tid, kind)
        elif kind.endswith("jump"):
            self._jump(tid, kind)
        elif not self._unwind(tid):
            self._jump(tid, "direct-jump")

    # -- injected violations --------------------------------------------------

    def _inject(self, tid: int) -> None:
        th = self.threads[tid]
        mi, fj = th.cur
        m = self.modules[mi]
        f = m.funcs[fj]
        src = m.base + f.start + JUMP_SITE
        rule = self.rng.choice(INJECTED_RULES)
        if rule == RULE_RETURN_SHADOW and not th.stack:
            rule = RULE_SELF_MODIFYING
        if rule == RULE_JUMP_INTRA and m.stripped:
            rule = RULE_VALID_INSTRUCTION
        if rule == RULE_CALL_IMPORT:
            foreign = self._foreign_target(mi)
            if foreign is None:
                rule = RULE_SELF_MODIFYING
        if rule == RULE_VALID_INSTRUCTION:
            seq = self._transfer(tid, "indirect-jump", src, m.base + f.start + 1)
        elif rule == RULE_CALL_IMPORT:
            call_src = m.base + f.start + self.rng.choice(CALL_SITES)
            seq = self._transfer(tid, "indirect-call", call_src,
                                 self._addr(*foreign), CALL_LEN)
            th.stack.append(Frame(call_src + CALL_LEN, th.cur))
            th.cur = foreign
        elif rule == RULE_RETURN_SHADOW:
            top = th.stack[-1].ret
            stale = next((r for r in reversed(self.stale) if r != top), top + 1)
            seq = self._return(tid, claimed=stale)
        elif rule == RULE_JUMP_INTRA:
            other = self.rng.randrange(len(m.funcs) - 1)
            other += other >= fj
            seq = self._transfer(tid, "indirect-jump", src,
                                 m.base + self.rng.choice(m.funcs[other].extras))
        else:
            seq = self._emit(tid, "code-write", f', "addr": "{src:#x}"')
        self.answer.append((seq, rule))

    def _foreign_target(self, mi: int) -> tuple[int, int] | None:
        others = [o for o in self.loaded if o != mi]
        for _ in range(32):
            if not others:
                return None
            oi = self.rng.choice(others)
            target = (oi, self.rng.randrange(len(self.modules[oi].funcs)))
            if target not in self.allowed[mi]:
                return target
        return None


def write_trace(rng: random.Random, modules: list[Module], shape: dict) -> TraceWriter:
    w = TraceWriter(rng, modules, shape)
    w.load(list(range(len(modules))))
    churn = shape["churn"]
    if churn is None:
        for _ in range(shape["transfers"]):
            w.step()
        return w
    plugins = list(range(len(modules) - churn["plugins"], len(modules)))
    for _ in range(shape["transfers"]):
        w.step()
    for cycle in range(churn["cycles"]):
        for mi in plugins:
            w.unload(mi)
            for _ in range(shape["transfers"]):
                w.step()
            w.load([mi])
            for _ in range(shape["transfers"]):
                w.step()
    return w


def generate(workload: str, seed: int, out_dir: Path,
             shape: dict | None = None) -> dict:
    """Write modules, sidecar, traces and answers; return the manifest.

    ``shape`` overrides the workload's stated sizes (the self-test uses
    tiny ones).  Same workload, seed and shape give the same files.
    """
    shape = dict(WORKLOADS[workload], **(shape or {}))
    rng = random.Random(f"{workload}/{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    modules = build_modules(rng, shape, f"lib{workload.split('-')[0]}")
    sidecar: list[str] = []
    for m in modules:
        (out_dir / m.path).write_bytes(build_fixture(m.spec))
        sidecar.extend(sidecar_lines(m.spec))
    (out_dir / "boundaries.sidecar").write_text("\n".join(sidecar) + "\n")
    traces = []
    kinds: dict[str, int] = {}
    for t in range(shape["traces"]):
        w = write_trace(rng, modules, shape)
        name = f"trace{t:03d}.jsonl"
        (out_dir / name).write_text("\n".join(w.lines) + "\n")
        traces.append({"file": name, "events": w.seq,
                       "violations": [list(a) for a in w.answer]})
        for k, n in w.kinds.items():
            kinds[k] = kinds.get(k, 0) + n
    total = sum(kinds.values())
    manifest = {
        "workload": workload, "seed": seed,
        "sizes": {"modules": shape["modules"], "functions": shape["functions"],
                  "traces": shape["traces"],
                  "events_per_trace": total / shape["traces"],
                  "kind_share": {k: kinds[k] / total for k in sorted(kinds)}},
        "modules": [m.path for m in modules], "sidecar": "boundaries.sidecar",
        "traces": traces,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest

"""Trace replay: parse control-flow event streams, drive the policy.

Trace format: line-delimited JSON, one event per line, UTF-8, addresses
as hex strings below 2^32, ``seq`` starting at 1 and strictly increasing.
Event kinds and their payloads:

    load             path, base
    unload           path [, base]
    direct-call      src, dst, len        checked once per (src,dst) per epoch
    indirect-call    src, dst, len        checked every occurrence
    direct-jump      src, dst             checked once per (src,dst) per epoch
    indirect-jump    src, dst             checked every occurrence
    plt-call         src, dst(plt), len   resolved, then treated as direct
    return           src, dst(claimed)
    exception-unwind target
    code-write       [addr]               always a violation

Direct transfers are verified once per unique pair per epoch, mirroring
translation-time checks, and never enter the reduction metric; indirect
transfers (calls, jumps, returns) are checked per occurrence and feed the
metric.  Call events carry the instruction length so return addresses are
computable without a decoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import dair as dair_mod
from .dair import DairTracker, compute_universe
from .elf import ModuleImage, SidecarTable, derive_instruction_map, parse_module
from .errors import MutationError, ResolutionError, TraceError
from .policy import (
    ALLOW,
    DENY,
    RULE_PLT_DIRECT,
    Verdict,
    check_call,
    check_jump,
    scan_callbacks,
)
from .process import ADDRESS_LIMIT, LoadedModule, ProcessImage
from .shadow import ShadowStack

EVENT_KINDS = frozenset({
    "load", "unload", "direct-call", "indirect-call", "direct-jump",
    "indirect-jump", "return", "plt-call", "exception-unwind", "code-write",
})
CALL_KINDS = frozenset({"direct-call", "indirect-call", "plt-call"})
TRANSFER_EVENT_KINDS = frozenset({
    "direct-call", "indirect-call", "direct-jump", "indirect-jump",
    "return", "plt-call",
})

RULE_SELF_MODIFYING = "self-modifying-code"
RULE_UNWIND_MISS = "unwind-miss"
RULE_UNWIND = "exception-unwind"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    seq: int
    tid: int
    kind: str
    path: str | None = None
    base: int | None = None
    src: int | None = None
    dst: int | None = None
    length: int | None = None
    target: int | None = None
    addr: int | None = None

    def to_obj(self) -> dict:
        out: dict = {"seq": self.seq, "tid": self.tid, "kind": self.kind}
        if self.path is not None:
            out["path"] = self.path
        for name, value in (("base", self.base), ("src", self.src),
                            ("dst", self.dst), ("target", self.target),
                            ("addr", self.addr)):
            if value is not None:
                out[name] = hex(value)
        if self.length is not None:
            out["len"] = self.length
        return out


def parse_trace(source: str | bytes) -> list[TraceEvent]:
    """Parse a trace; every line yields an event or a positioned error."""
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceError("malformed-trace",
                             f"not UTF-8 text: {exc.reason}") from None
    events: list[TraceEvent] = []
    last_seq = 0
    # Only "\n" ends a line: JSON allows U+2028 and friends raw in strings.
    for lineno, line in enumerate(source.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and over-long integers.
            raise TraceError("malformed-trace",
                             f"bad JSON: {getattr(exc, 'msg', exc)}",
                             line=lineno) from None
        if not isinstance(obj, dict):
            raise TraceError("malformed-trace", "event is not an object",
                             line=lineno)
        event = _event_from_obj(obj, lineno)
        if not events and event.seq != 1:
            raise TraceError("malformed-trace",
                             f"seq must start at 1, got {event.seq}", line=lineno)
        if event.seq <= last_seq:
            raise TraceError("malformed-trace",
                             f"seq {event.seq} not increasing (last {last_seq})",
                             line=lineno)
        last_seq = event.seq
        events.append(event)
    return events


def _event_from_obj(obj: dict, lineno: int) -> TraceEvent:
    def fail(msg: str):
        raise TraceError("malformed-trace", msg, line=lineno)

    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in EVENT_KINDS:
        fail(f"unknown event kind {kind!r}")
    # type() rather than isinstance(): JSON true/false are bools, not ints.
    seq = obj.get("seq")
    if type(seq) is not int or seq < 1:
        fail(f"bad seq {seq!r}")
    tid = obj.get("tid", 0)
    if type(tid) is not int or tid < 0:
        fail(f"bad tid {tid!r}")

    def addr_field(name: str, required: bool) -> int | None:
        raw = obj.get(name)
        if raw is None:
            if required:
                fail(f"{kind} event missing {name!r}")
            return None
        try:
            value = int(raw, 16) if isinstance(raw, str) else raw
        except ValueError:
            value = None
        if type(value) is not int or not 0 <= value < ADDRESS_LIMIT:
            fail(f"bad address {raw!r} in {name!r}")
        return value

    path = obj.get("path")
    if kind in ("load", "unload") and not isinstance(path, str):
        fail(f"{kind} event missing 'path'")
    base = addr_field("base", required=(kind == "load"))
    src = addr_field("src", required=kind in TRANSFER_EVENT_KINDS)
    dst = addr_field("dst", required=kind in TRANSFER_EVENT_KINDS)
    target = addr_field("target", required=(kind == "exception-unwind"))
    addr = addr_field("addr", required=False)
    length = obj.get("len")
    if (kind in CALL_KINDS or length is not None) and not (
            type(length) is int and length > 0):
        fail(f"{kind} event needs a positive 'len', got {length!r}")
    return TraceEvent(seq=seq, tid=tid, kind=kind,
                      path=path if isinstance(path, str) else None,
                      base=base, src=src, dst=dst, length=length,
                      target=target, addr=addr)


def events_to_jsonl(events: list[TraceEvent]) -> str:
    return "\n".join(json.dumps(e.to_obj(), sort_keys=True) for e in events) + "\n"


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

@dataclass
class ReplayConfig:
    abort_on_violation: bool = False
    universe_mode: str = dair_mod.UNIVERSE_EXEC_BYTES
    allowlist: frozenset[tuple[str, str]] = frozenset()
    sidecar: SidecarTable | None = None
    module_root: Path | None = None


@dataclass(frozen=True, slots=True)
class EventVerdict:
    seq: int
    kind: str
    decision: str
    rule: str
    target_set_size: int
    reason: str

    def to_obj(self) -> dict:
        return {"seq": self.seq, "kind": self.kind, "decision": self.decision,
                "rule": self.rule, "target_set_size": self.target_set_size,
                "reason": self.reason}


@dataclass
class EnforcementReport:
    verdicts: list[EventVerdict] = field(default_factory=list)
    dair: DairTracker = field(default_factory=DairTracker)
    epochs: list[dict] = field(default_factory=list)
    kind_counts: dict = field(default_factory=dict)
    aborted_at: int | None = None

    @property
    def violations(self) -> list[dict]:
        """One entry per DENY verdict, in event order."""
        return [{"seq": v.seq, "kind": v.kind, "rule": v.rule,
                 "detail": v.reason}
                for v in self.verdicts if v.decision == DENY]

    @property
    def events_processed(self) -> int:
        return sum(self.kind_counts.values())

    @property
    def clean(self) -> bool:
        return all(v.decision != DENY for v in self.verdicts)

    def to_dict(self) -> dict:
        violations = self.violations
        return {
            "summary": {
                "events": self.events_processed,
                "per_kind": dict(sorted(self.kind_counts.items())),
                "allows": len(self.verdicts) - len(violations),
                "denies": len(violations),
                "outcome": {
                    "clean": not violations,
                    "violations": len(violations),
                    "aborted_at": self.aborted_at,
                },
                "verdicts": [v.to_obj() for v in self.verdicts],
            },
            "violations": violations,
            "dair": self.dair.to_report_dict(),
            "epochs": self.epochs,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


class DirectMemo:
    """Direct-transfer verdicts keyed by ``(kind, src, dst)``, epoch-bound.

    Entries survive only while the process-image epoch is unchanged: a
    load, unload or callback admission may add or revoke a binding, so it
    drops the whole memo and forces revalidation.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, int, int], Verdict] = {}
        self._epoch: int | None = None
        self.hits = 0
        self.misses = 0

    def lookup(self, key: tuple[str, int, int], epoch: int) -> Verdict | None:
        if self._epoch != epoch:
            self._entries.clear()
            self._epoch = epoch
        verdict = self._entries.get(key)
        if verdict is None:
            self.misses += 1
        else:
            self.hits += 1
        return verdict

    def insert(self, key: tuple[str, int, int], verdict: Verdict) -> None:
        """Store the verdict of a key just missed in the current epoch."""
        self._entries[key] = verdict


class Replayer:
    """Applies a parsed event stream to a fresh process image.

    ``modules`` maps trace paths to pre-parsed images; paths not found
    there are read from ``config.module_root`` (or the filesystem as
    given).  ``cache`` is the direct-transfer memo; its ``hits`` and
    ``misses`` count lookups.  The instance keeps its final process state
    after :meth:`replay`, which the adversarial generator uses for
    snapshots.
    """

    def __init__(self, config: ReplayConfig | None = None,
                 modules: dict[str, ModuleImage] | None = None) -> None:
        self.config = config or ReplayConfig()
        self.modules = dict(modules or {})
        self.process = ProcessImage(allowlist=self.config.allowlist)
        self.cache = DirectMemo()
        self.shadows: dict[int, ShadowStack] = {}
        self._universe_cache: tuple[int, int] | None = None  # (epoch, S)

    # -- helpers -----------------------------------------------------------

    def _image_for(self, path: str, seq: int) -> ModuleImage:
        img = self.modules.get(path)
        if img is not None:
            return img
        fs_path = Path(path)
        if not fs_path.is_absolute() and self.config.module_root is not None:
            fs_path = self.config.module_root / path
        try:
            data = fs_path.read_bytes()
        except (OSError, ValueError) as exc:  # ValueError: NUL in the path
            raise TraceError("malformed-trace",
                             f"cannot read module file {path!r}: {exc}",
                             seq=seq) from None
        img = parse_module(data, path)
        self.modules[path] = img
        return img

    def _imap_for(self, img: ModuleImage):
        # Derived once per (image, sidecar) and kept on the image, so
        # reloads and later Replayers sharing the image skip the work.
        sidecar = self.config.sidecar
        key = sidecar if sidecar is not None and img.path in sidecar else None
        maps = img.instruction_maps
        imap = maps.get(key)
        if imap is None:
            imap = maps[key] = derive_instruction_map(img, key)
        return imap

    def _shadow(self, tid: int) -> ShadowStack:
        if tid not in self.shadows:
            self.shadows[tid] = ShadowStack()
        return self.shadows[tid]

    def _universe(self) -> int:
        if self._universe_cache is None or self._universe_cache[0] != self.process.epoch:
            s = compute_universe(self.process, self.config.universe_mode)
            self._universe_cache = (self.process.epoch, s)
        return self._universe_cache[1]

    def _require_mapped(self, addr: int, what: str, seq: int) -> LoadedModule:
        lm = self.process.exec_module_at(addr)
        if lm is None:
            raise TraceError("address-outside-modules",
                             f"{what} {hex(addr)} not in any loaded module",
                             seq=seq)
        return lm

    # -- main loop ----------------------------------------------------------

    def replay(self, events: list[TraceEvent]) -> EnforcementReport:
        report = EnforcementReport()
        for event in events:
            self._apply(event, report)
            report.kind_counts[event.kind] = report.kind_counts.get(event.kind, 0) + 1
            if report.aborted_at is not None:
                break
        return report

    def _note_epoch(self, report: EnforcementReport, event: TraceEvent,
                    action: str, path: str | None) -> None:
        report.epochs.append({
            "seq": event.seq, "epoch": self.process.epoch, "action": action,
            "path": path,
            "modules": sorted(self.process.loaded),
        })

    def _record(self, report: EnforcementReport, event: TraceEvent,
                verdict: Verdict) -> None:
        report.verdicts.append(EventVerdict(
            seq=event.seq, kind=event.kind, decision=verdict.decision,
            rule=verdict.rule, target_set_size=verdict.target_set_size,
            reason=verdict.reason))
        if (verdict.decision == DENY and report.aborted_at is None
                and self.config.abort_on_violation):
            report.aborted_at = event.seq

    def _apply(self, event: TraceEvent, report: EnforcementReport) -> None:
        kind = event.kind
        p = self.process

        if kind == "load":
            img = self._image_for(event.path, event.seq)
            imap = self._imap_for(img)
            lm = p.load_module(img, event.base, imap)
            self._note_epoch(report, event, "load", event.path)
            admitted = p.admit_callbacks(scan_callbacks(p, lm))
            if admitted:
                self._note_epoch(report, event, "callback-scan", event.path)
            return

        if kind == "unload":
            lm = p.by_path(event.path, event.base)
            if lm is None:
                raise TraceError("malformed-trace",
                                 f"unload of module not loaded: {event.path}",
                                 seq=event.seq)
            p.unload_module(lm.module_id)
            self._note_epoch(report, event, "unload", event.path)
            return

        if kind == "code-write":
            where = hex(event.addr) if event.addr is not None else "unknown address"
            self._record(report, event, Verdict(
                DENY, RULE_SELF_MODIFYING,
                f"code generation or self-modification at {where}", 0))
            return

        if kind == "exception-unwind":
            shadow = self._shadow(event.tid)
            before = len(shadow)
            if shadow.unwind_to(event.target):
                self._record(report, event, Verdict(
                    ALLOW, RULE_UNWIND,
                    f"resynchronized to {hex(event.target)}, removed "
                    f"{before - len(shadow)} frames", 1))
            else:
                self._record(report, event, Verdict(
                    DENY, RULE_UNWIND_MISS,
                    f"no shadow frame matches {hex(event.target)}", 1))
            return

        # Transfer events: indirect ones are checked at every occurrence,
        # direct ones once per (kind, src, dst) per epoch.
        src_mod = self._require_mapped(event.src, f"{kind} source", event.seq)
        if kind == "return":
            verdict = self._shadow(event.tid).pop_and_check(event.dst)
        elif kind == "indirect-call":
            verdict = check_call(p, src_mod, event.dst)
        elif kind == "indirect-jump":
            verdict = check_jump(p, src_mod, event.src, event.dst)
        else:
            key = (kind, event.src, event.dst)
            verdict = self.cache.lookup(key, p.epoch)
            if verdict is None:
                if kind == "direct-call":
                    verdict = check_call(p, src_mod, event.dst)
                elif kind == "direct-jump":
                    verdict = check_jump(p, src_mod, event.src, event.dst)
                else:
                    verdict = self._check_plt_call(src_mod, event)
                self.cache.insert(key, verdict)
        self._record(report, event, verdict)
        if kind in dair_mod.TRANSFER_KINDS:
            # A return's target-set size is 1: its shadow frame.
            report.dair.record_transfer(kind, verdict.target_set_size,
                                        self._universe(), event.seq)
        if kind in CALL_KINDS:
            self._shadow(event.tid).push_call(event.src, event.src + event.length)

    def _check_plt_call(self, src_mod: LoadedModule,
                        event: TraceEvent) -> Verdict:
        p, module_id = self.process, src_mod.module_id
        if event.dst - src_mod.base not in src_mod.module.plt_symbols:
            raise TraceError("address-outside-modules",
                             f"{hex(event.dst)} is not a PLT entry of "
                             f"{module_id}", seq=event.seq)
        try:
            target = p.resolve_plt(src_mod, event.dst)
        except ResolutionError as exc:
            return Verdict(DENY, RULE_PLT_DIRECT, exc.message,
                           len(p.call_target_set(module_id)))
        verdict = check_call(p, src_mod, target)
        if verdict.allowed:
            return Verdict(ALLOW, RULE_PLT_DIRECT,
                           f"PLT entry {hex(event.dst)} inlined to "
                           f"{hex(target)}", verdict.target_set_size)
        return verdict


def replay(events: list[TraceEvent], config: ReplayConfig | None = None,
           modules: dict[str, ModuleImage] | None = None) -> EnforcementReport:
    """Replay a parsed trace and return the enforcement report."""
    return Replayer(config, modules).replay(events)


# ---------------------------------------------------------------------------
# Adversarial trace generation
# ---------------------------------------------------------------------------

MUTATION_CLASSES = ("ret", "call", "jump", "jump-cross", "tailcall")


@dataclass(frozen=True)
class MutationSpec:
    """Which event to redirect and how.

    ``kind`` selects the mutation class; ``event_seq`` pins a specific
    event (default: the first eligible one).
    """

    kind: str
    event_seq: int | None = None


_ELIGIBLE = {"ret": "return", "call": "indirect-call", "jump": "indirect-jump",
             "jump-cross": "indirect-jump", "tailcall": "indirect-jump"}


def generate_adversarial_trace(
        events: list[TraceEvent], mutation: MutationSpec,
        config: ReplayConfig | None = None,
        modules: dict[str, ModuleImage] | None = None) -> list[TraceEvent]:
    """Redirect one indirect transfer of a clean trace.

    Classes: ``ret`` (stale return address -> shadow mismatch), ``call``
    (non-imported function -> denied call), ``jump`` (mid-instruction
    target -> denied instruction-validity), ``jump-cross`` (cross-module
    non-target -> denied tail call), ``tailcall`` (imported function
    entry -> still allowed; documents the policy's permissiveness).

    Raises:
        MutationError: base trace not clean, no eligible event, or no
            target satisfying the mutation class exists.
    """
    if mutation.kind not in MUTATION_CLASSES:
        raise MutationError("mutation-out-of-range",
                            f"unknown mutation class {mutation.kind!r}")
    base = Replayer(config, modules)
    if not base.replay(events).clean:
        raise MutationError("mutation-out-of-range",
                            "base trace is not clean")

    wanted_kind = _ELIGIBLE[mutation.kind]
    candidates = [i for i, e in enumerate(events)
                  if e.kind == wanted_kind
                  and (mutation.event_seq is None or e.seq == mutation.event_seq)]
    if not candidates:
        raise MutationError(
            "mutation-out-of-range",
            f"no {wanted_kind} event"
            + (f" with seq {mutation.event_seq}" if mutation.event_seq else ""))

    last_error: MutationError | None = None
    # One prefix replay, advanced to the state just before each candidate;
    # it reuses the module images the base replay parsed.
    pre = Replayer(config, base.modules)
    done = 0
    for idx in candidates:
        pre.replay(events[done:idx])
        done = idx
        p = pre.process
        victim = events[idx]
        src_mod = p.exec_module_at(victim.src)
        if src_mod is None:
            continue
        try:
            new_dst = _mutated_target(mutation.kind, p, src_mod, victim)
        except MutationError as exc:
            last_error = exc
            continue
        return events[:idx] + [replace(victim, dst=new_dst)] + events[idx + 1:]
    raise last_error or MutationError("mutation-out-of-range",
                                      f"no mutable {wanted_kind} event")


def _mutated_target(kind: str, p: ProcessImage, src_mod, victim: TraceEvent) -> int:
    targets = p.call_target_set(src_mod.module_id)

    if kind == "ret":
        # Any loaded function entry different from the true return address
        # stands in for a stack-sprayed value.
        for lm in p.loaded.values():
            for off in sorted(lm.module.defined_function_starts):
                cand = lm.base + off
                if cand != victim.dst:
                    return cand
        return victim.dst + 2

    if kind == "call":
        for lm in p.loaded.values():
            if lm.module_id == src_mod.module_id:
                continue
            for off in sorted(lm.module.defined_function_starts):
                cand = lm.base + off
                if lm.is_instruction(cand) and cand not in targets:
                    return cand
        raise MutationError("mutation-out-of-range",
                            "every loaded function is callable from the source")

    if kind == "jump":
        for lm in p.loaded.values():
            for lo, hi in lm.exec_ranges:
                for cand in lm.instructions_in(lo, hi):
                    if cand + 1 < hi and not lm.is_instruction(cand + 1):
                        return cand + 1
        raise MutationError("mutation-out-of-range",
                            "no mid-instruction address available")

    if kind == "jump-cross":
        for lm in p.loaded.values():
            if lm.module_id == src_mod.module_id:
                continue
            for lo, hi in lm.exec_ranges:
                for cand in lm.instructions_in(lo, hi):
                    if cand not in targets:
                        return cand
        raise MutationError("mutation-out-of-range",
                            "no cross-module non-target instruction available")

    # tailcall: entry of a function the source module imports.
    extent = p.function_extent(src_mod, victim.src)
    for name in src_mod.module.imports:
        exporter = p.resolve_import(name)
        if exporter is None or exporter.module_id == src_mod.module_id:
            continue
        value = exporter.module.export_value(name)
        if value is None:
            continue
        cand = exporter.base + value
        if cand in targets and (extent is None or not extent[0] <= cand < extent[1]):
            return cand
    raise MutationError("mutation-out-of-range",
                        "source module has no resolved imported function")

"""Trace replay: parse control-flow event streams, drive the policy.

Trace format: line-delimited JSON, one event per line, UTF-8, addresses
as hex strings below 2^32, ``seq`` starting at 1 and strictly increasing.
Event kinds and their payloads (``EVENT_FIELDS`` holds the required ones;
bracketed fields are optional):

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

``len`` is the call instruction's length, 1 to 15 bytes.

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

#: Each event kind's required fields.  Any address field present on any
#: kind must be valid; so must ``len``, which every call kind requires.
EVENT_FIELDS: dict[str, frozenset[str]] = {
    "load": frozenset({"path", "base"}),
    "unload": frozenset({"path"}),
    "direct-call": frozenset({"src", "dst", "len"}),
    "indirect-call": frozenset({"src", "dst", "len"}),
    "direct-jump": frozenset({"src", "dst"}),
    "indirect-jump": frozenset({"src", "dst"}),
    "return": frozenset({"src", "dst"}),
    "plt-call": frozenset({"src", "dst", "len"}),
    "exception-unwind": frozenset({"target"}),
    "code-write": frozenset(),
}
EVENT_KINDS = frozenset(EVENT_FIELDS)
CALL_KINDS = frozenset(k for k, req in EVENT_FIELDS.items() if "len" in req)
ADDRESS_FIELDS = ("base", "src", "dst", "target", "addr")
MAX_INSTRUCTION_LEN = 15  # the architectural limit of one x86 instruction

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
        for name in ADDRESS_FIELDS:
            value = getattr(self, name)
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
    # Checks run in field order (kind, seq, tid, path, the address fields,
    # len); the first bad field names the error.
    kind = obj.get("kind")
    required = EVENT_FIELDS.get(kind) if isinstance(kind, str) else None
    if required is None:
        raise _malformed(f"unknown event kind {kind!r}", lineno)
    # type() rather than isinstance(): JSON true/false are bools, not ints.
    seq = obj.get("seq")
    if type(seq) is not int or seq < 1:
        raise _malformed(f"bad seq {seq!r}", lineno)
    tid = obj.get("tid", 0)
    if type(tid) is not int or tid < 0:
        raise _malformed(f"bad tid {tid!r}", lineno)
    path = obj.get("path")
    if not isinstance(path, str):
        if "path" in required:
            raise _malformed(f"{kind} event missing 'path'", lineno)
        path = None
    addrs = []
    for name in ADDRESS_FIELDS:
        raw = obj.get(name)
        if raw is None:
            if name in required:
                raise _malformed(f"{kind} event missing {name!r}", lineno)
            addrs.append(None)
            continue
        try:
            value = int(raw, 16) if isinstance(raw, str) else raw
        except ValueError:
            value = None
        if type(value) is not int or not 0 <= value < ADDRESS_LIMIT:
            raise _malformed(f"bad address {raw!r} in {name!r}", lineno)
        addrs.append(value)
    length = obj.get("len")
    if length is not None or "len" in required:
        if type(length) is not int or length < 1:
            raise _malformed(
                f"{kind} event needs a positive 'len', got {length!r}", lineno)
        if length > MAX_INSTRUCTION_LEN:
            raise _malformed(
                f"{kind} event 'len' {length} exceeds the "
                f"{MAX_INSTRUCTION_LEN}-byte x86 instruction limit", lineno)
    base, src, dst, target, addr = addrs
    return TraceEvent(seq, tid, kind, path, base, src, dst, length, target, addr)


def _malformed(msg: str, lineno: int) -> TraceError:
    return TraceError("malformed-trace", msg, line=lineno)


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


@dataclass
class EnforcementReport:
    """Replay results; each ``verdicts`` row is ``(seq, kind, verdict)``.

    A row holds the check's own :class:`Verdict`, so the rows of memoized
    direct transfers share one object.
    """

    verdicts: list[tuple[int, str, Verdict]] = field(default_factory=list)
    dair: DairTracker = field(default_factory=DairTracker)
    epochs: list[dict] = field(default_factory=list)
    kind_counts: dict = field(default_factory=dict)
    aborted_at: int | None = None

    @property
    def violations(self) -> list[dict]:
        """One entry per DENY verdict, in event order."""
        return [{"seq": seq, "kind": kind, "rule": v.rule, "detail": v.reason}
                for seq, kind, v in self.verdicts if v.decision == DENY]

    @property
    def events_processed(self) -> int:
        return sum(self.kind_counts.values())

    @property
    def clean(self) -> bool:
        return all(v.decision != DENY for _seq, _kind, v in self.verdicts)

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
                "verdicts": [
                    {"seq": seq, "kind": kind, "decision": v.decision,
                     "rule": v.rule, "target_set_size": v.target_set_size,
                     "reason": v.reason}
                    for seq, kind, v in self.verdicts],
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
        report.verdicts.append((event.seq, event.kind, verdict))
        if (verdict.decision == DENY and report.aborted_at is None
                and self.config.abort_on_violation):
            report.aborted_at = event.seq

    def _apply(self, event: TraceEvent, report: EnforcementReport) -> None:
        kind = event.kind
        p = self.process

        if kind == "load":
            img = self._image_for(event.path, event.seq)
            sidecar = self.config.sidecar
            listed = sidecar is not None and img.path in sidecar
            imap = derive_instruction_map(img, sidecar if listed else None)
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
        # The clean base replay mapped every transfer's source.
        src_mod = p.exec_module_at(victim.src)
        try:
            new_dst = _mutated_target(mutation.kind, p, src_mod, victim)
        except MutationError as exc:
            last_error = exc
            continue
        return events[:idx] + [replace(victim, dst=new_dst)] + events[idx + 1:]
    raise last_error  # _mutated_target raised for every candidate


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

"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrapping the public callables the replay engine
reaches, from outside the package: module-level bindings in
``dyncfi.trace`` (which imported them by name) and methods on the engine's
classes.  Each span is ``(name, start, end, parent, trace_id)`` where
``parent`` is the index of the enclosing span or -1.  Nothing is written
while tracing; :meth:`Tracer.write` dumps the spans when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter

from dyncfi import dair, elf, process, shadow, trace

#: (owner, attribute, span name) for every timed boundary.
SPANNED = (
    (trace, "parse_trace", "trace.parse_trace"),
    (trace.Replayer, "replay", "trace.replay"),
    (trace.EnforcementReport, "to_json", "trace.to_json"),
    (trace, "check_call", "policy.check_call"),
    (trace, "check_jump", "policy.check_jump"),
    (trace, "scan_callbacks", "policy.scan_callbacks"),
    (trace, "derive_instruction_map", "elf.derive_instruction_map"),
    (trace, "compute_universe", "dair.compute_universe"),
    (process.ProcessImage, "function_extent", "process.function_extent"),
    (process.ProcessImage, "load_module", "process.load_module"),
    (process.ProcessImage, "unload_module", "process.unload_module"),
    (process.ProcessImage, "call_target_set", "process.call_target_set"),
    (process.ProcessImage, "admit_callbacks", "process.admit_callbacks"),
    (shadow.ShadowStack, "push_call", "shadow.push_call"),
    (shadow.ShadowStack, "pop_and_check", "shadow.pop_and_check"),
    (shadow.ShadowStack, "unwind_to", "shadow.unwind_to"),
    (dair.DairTracker, "record_transfer", "dair.record_transfer"),
    (elf, "parse_module", "elf.parse_module"),
    (elf, "load_sidecar", "elf.load_sidecar"),
)

#: Boundaries hit several times per event: counted, not spanned, to keep
#: the traced run's overhead down.
COUNTED = (
    (process.ProcessImage, "exec_module_at", "process.exec_module_at"),
)


class Tracer:
    """Installs wrappers on :meth:`install`; :meth:`uninstall` restores."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.trace_id = ""
        self.counts: Counter[str] = Counter()
        self.gauges: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name in SPANNED:
            self._patch(owner, attr, self._spanned(getattr(owner, attr), name))
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, self._counted(getattr(owner, attr), name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _gauge(self, name: str, value: int) -> None:
        if value > self.gauges.get(name, -1):
            self.gauges[name] = value

    def _observe(self, name: str, args, result) -> None:
        """Counters read at the boundary where the work happens."""
        if name == "shadow.push_call":
            self._gauge("shadow.max_depth", len(args[0]))
        elif name in ("process.load_module", "process.unload_module",
                      "process.admit_callbacks"):
            self._gauge("process.table_targets.max", len(args[0].table))
            if name == "process.admit_callbacks" and result:
                for f in args[0].callback_findings[-result:]:
                    self.counts[f"policy.callbacks.{f.pattern}"] += 1

    def _spanned(self, orig, name: str):
        spans, stack, observe = self.spans, self._stack, self._observe

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.trace_id)
            observe(name, args, result)
            return result
        return wrapper

    def _counted(self, orig, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)
        return wrapper

    def write(self, path: Path) -> None:
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def aggregate(path: Path) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Total seconds, calls and self seconds per span name from a span file.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread never overlap, so that is the part of
    the interval no child covers.
    """
    spans = [tuple(json.loads(line)) for line in path.read_text().splitlines()]
    child = [0.0] * len(spans)
    for name, start, end, parent, _tid in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, (name, start, end, _parent, _tid) in enumerate(spans):
        total[name] = total.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + end - start - child[i]
    return total, calls, self_s

"""Benchmark child process: set up, check traces back to back, report.

Run by ``run.py`` as a fresh process per run so that its peak RSS belongs
to one workload: the untraced run reports its own ``VmHWM``, the
high-water RSS of this process's address space, which starts afresh at
exec and so excludes the parent that generated the inputs.  Usage::

    python3 bench/worker.py DIR --seconds S --trace 0|1

``DIR`` holds the generator's manifest, module files, sidecar and traces.
Each trace is checked the way ``dyncfi check`` does it, through the public
API (parse_trace -> Replayer(config, modules).replay -> to_json), with
modules parsed once per run and passed in through ``modules=``.  Reading a
trace file is not timed.  The result is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import sys
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dyncfi import elf, trace  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 7
#: verdict_s_p90 needs at least ten samples beyond it.
MIN_SAMPLES = 100
DIRECT_KINDS = ("direct-call", "direct-jump", "plt-call")
#: Each event of these kinds makes exactly one check_call or check_jump.
INDIRECT_KINDS = ("indirect-call", "indirect-jump")


def peak_rss_mb() -> float:
    """This process's high-water resident set size, in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup(work: Path, manifest: dict) -> tuple[dict, elf.SidecarTable, float]:
    """Parse every module file and the sidecar; returns the elapsed time.

    File reads and a full garbage collection happen before the clock
    starts, so each repeat begins from the same heap state.
    """
    blobs = {p: (work / p).read_bytes() for p in manifest["modules"]}
    sidecar_text = (work / manifest["sidecar"]).read_text()
    gc.collect()
    start = perf_counter()
    modules = {p: elf.parse_module(data, p) for p, data in blobs.items()}
    sidecar = elf.load_sidecar(sidecar_text)
    return modules, sidecar, perf_counter() - start


@dataclass
class Outcome:
    seconds: float                  # parse + replay + to_json
    events: int
    digest: str                     # sha256 of the report JSON, "" if raised
    report_bytes: int = 0
    replayer: trace.Replayer | None = None
    report: trace.EnforcementReport | None = None


class Checker:
    """Checks traces against their known answers and keeps the tallies."""

    def __init__(self, work: Path, manifest: dict, modules: dict,
                 sidecar: elf.SidecarTable) -> None:
        self.work = work
        self.traces = manifest["traces"]
        self.modules = modules
        self.config = trace.ReplayConfig(sidecar=sidecar)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, i: int) -> Outcome:
        """Time one trace to verdict and compare it with the known answer."""
        entry = self.traces[i % len(self.traces)]
        text = (self.work / entry["file"]).read_text()
        self.attempted += 1
        try:
            start = perf_counter()
            events = trace.parse_trace(text)
            replayer = trace.Replayer(self.config, self.modules)
            report = replayer.replay(events)
            out = report.to_json()
            elapsed = perf_counter() - start
        except Exception as exc:  # a raising trace is a failed trace
            self._fail(f"{entry['file']}: {type(exc).__name__}: {exc}")
            return Outcome(0.0, entry["events"], "")
        got = [[v["seq"], v["rule"]] for v in report.violations]
        if got != entry["violations"]:
            first = next(pair for pair in zip_longest(got, entry["violations"])
                         if pair[0] != pair[1])
            self._fail(f"{entry['file']}: first differing violation {first[0]}, "
                       f"expected {first[1]}")
        return Outcome(elapsed, report.events_processed,
                       hashlib.sha256(out.encode()).hexdigest(), len(out),
                       replayer, report)

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    def tallies(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures}


def run_untraced(work: Path, manifest: dict, seconds: float) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        modules, sidecar, elapsed = setup(work, manifest)
        setup_times.append(elapsed)
    checker = Checker(work, manifest, modules, sidecar)
    checker.check(0)                                 # warm-up, not sampled
    samples = []
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline or len(samples) < MIN_SAMPLES:
        outcome = checker.check(i)
        samples.append((outcome.seconds, outcome.events))
        i += 1
    return dict(checker.tallies(), setup_s=statistics.median(setup_times),
                samples=samples, peak_rss_mb=peak_rss_mb())


def run_traced(work: Path, manifest: dict, seconds: float) -> dict:
    """Alternate untraced and traced passes over the trace set.

    Each pass checks every trace once, so counts per pass repeat exactly
    for a given seed.  The untraced pass supplies the reference digests
    and the time the tracing overhead is measured against.
    """
    tracer = Tracer()
    tracer.install()
    tracer.trace_id = "setup"
    try:
        modules, sidecar, _elapsed = setup(work, manifest)
    finally:
        tracer.uninstall()
    checker = Checker(work, manifest, modules, sidecar)
    n = len(manifest["traces"])
    counts = {"events": 0, "direct_events": 0, "indirect_checks": 0,
              "fastpath_hits": 0, "fastpath_misses": 0, "report_bytes": 0}
    untraced_s = traced_s = 0.0
    mismatched = 0
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        reference = []
        for i in range(n):
            outcome = checker.check(i)
            untraced_s += outcome.seconds
            reference.append(outcome.digest)
        tracer.install()
        try:
            for i in range(n):
                tracer.trace_id = f"{passes}/{i}"
                outcome = checker.check(i)
                traced_s += outcome.seconds
                if not outcome.digest or outcome.digest != reference[i]:
                    mismatched += 1
                if outcome.report is None:
                    continue
                kinds = outcome.report.kind_counts
                counts["events"] += outcome.events
                counts["direct_events"] += sum(kinds.get(k, 0) for k in DIRECT_KINDS)
                counts["indirect_checks"] += sum(kinds.get(k, 0)
                                                 for k in INDIRECT_KINDS)
                counts["fastpath_hits"] += outcome.replayer.cache.hits
                counts["fastpath_misses"] += outcome.replayer.cache.misses
                counts["report_bytes"] += outcome.report_bytes
        finally:
            tracer.uninstall()
        passes += 1
    tracer.write(work / "spans.jsonl")
    return dict(checker.tallies(), passes=passes, counts=counts,
                tracer_counts=dict(tracer.counts), gauges=tracer.gauges,
                untraced_s=untraced_s, traced_s=traced_s,
                digest_mismatches=mismatched)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    manifest = json.loads((args.dir / "manifest.json").read_text())
    run = run_traced if args.trace else run_untraced
    print(json.dumps(run(args.dir, manifest, args.seconds)))


if __name__ == "__main__":
    main()

"""Known-answer replay benchmark for dyncfi.

Usage, from the root of a checkout::

    python3 bench/run.py --workload replay-hot --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` runs the
separate traced run that gives the per-layer metrics, and ``--trace both``
(the default) runs the two in turn.  Every metric is printed as
``name value unit``; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when any trace's violations differ from the generator's known answer
(``failed_share`` > 0), when a trace raised, or when the traced run's
reports are not byte-identical to the untraced ones.

Closed loop, one client: one process and one thread check traces back to
back.  Inputs are generated from ``--seed`` into a scratch directory of
the checkout, and each run measures in a fresh child process (worker.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import dyncfi  # noqa: E402

if not Path(dyncfi.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"dyncfi imported from {dyncfi.__file__}, not from this checkout")

import gen  # noqa: E402
import tracer  # noqa: E402

WORK_ROOT = ROOT / ".bench_work"
#: Printed for people, but not part of the JSON result: failed_share is
#: carried by ``failed``/``attempted`` and is 0 whenever the run counts.
PRINTED_ONLY = ("failed_share", "verdict_samples")

#: Span names reported as ``<name>.s`` (seconds per pass) and ``.calls``.
TIMED_CALLS = (
    "policy.check_jump", "policy.check_call", "process.function_extent",
    "dair.record_transfer", "process.load_module", "process.unload_module",
    "process.call_target_set", "elf.derive_instruction_map",
    "policy.scan_callbacks", "dair.compute_universe",
)
#: Span names reported as seconds per pass only.
TIMED = ("shadow.push_call", "shadow.pop_and_check", "shadow.unwind_to",
         "trace.to_json", "trace.parse_trace", "process.admit_callbacks")


def end_to_end(result: dict) -> dict[str, tuple[float, str]]:
    times = sorted(t for t, _events in result["samples"])
    busy = sum(times)
    events = sum(e for _t, e in result["samples"])
    n = len(times)
    return {
        "events_per_s": (events / busy, "1/s"),
        "verdict_s_p50": (statistics.median(times), "s"),
        "verdict_s_p90": (times[math.ceil(0.9 * n) - 1], "s"),
        "verdict_samples": (n, "count"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (result["setup_s"], "s"),
        "failed_share": (result["failed"] / result["attempted"], "ratio"),
    }


def per_layer(result: dict, spans: Path) -> dict[str, tuple[float, str]]:
    """Per-pass figures: each pass checks every trace once."""
    total, calls, self_s = tracer.aggregate(spans)
    passes = result["passes"]
    counts = result["counts"]
    tcounts = result["tracer_counts"]
    gauges = result["gauges"]
    out: dict[str, tuple[float, str]] = {}

    def per_pass(name: str, table: dict) -> float:
        return table.get(name, 0) / passes

    for name in TIMED_CALLS:
        out[f"{name}.s"] = (per_pass(name, total), "s")
        out[f"{name}.calls"] = (per_pass(name, calls), "count")
    for name in TIMED:
        out[f"{name}.s"] = (per_pass(name, total), "s")
    out["trace.replay.self_s"] = (per_pass("trace.replay", self_s), "s")
    exec_calls = tcounts.get("process.exec_module_at", 0)
    out["process.exec_module_at.calls"] = (exec_calls / passes, "count")
    out["process.exec_module_at.per_event"] = (
        exec_calls / max(counts["events"], 1), "ratio")
    lookups = counts["fastpath_hits"] + counts["fastpath_misses"]
    out["policy.fastpath_lookups"] = (lookups / passes, "count")
    out["policy.fastpath_hit_rate"] = (
        counts["fastpath_hits"] / lookups if lookups else 0.0, "ratio")
    # Every indirect call or jump makes exactly one check; the other
    # check_call/check_jump calls are direct-path checks (memo misses).
    direct = counts["direct_events"]
    direct_checks = (calls.get("policy.check_call", 0)
                     + calls.get("policy.check_jump", 0) - counts["indirect_checks"])
    out["trace.direct_memo_hit_rate"] = (
        1 - direct_checks / direct if direct else 0.0, "ratio")
    out["trace.report_bytes"] = (counts["report_bytes"] / passes, "bytes")
    out["shadow.max_depth"] = (gauges.get("shadow.max_depth", 0), "frames")
    out["process.table_targets.max"] = (
        gauges.get("process.table_targets.max", 0), "count")
    for pattern in gen.PATTERNS:
        out[f"policy.callbacks.{pattern}"] = (
            per_pass(f"policy.callbacks.{pattern}", tcounts), "count")
    # Set-up is traced once, not per pass.
    out["elf.parse_module.s"] = (total.get("elf.parse_module", 0.0), "s")
    out["elf.parse_module.calls"] = (calls.get("elf.parse_module", 0), "count")
    out["elf.load_sidecar.s"] = (total.get("elf.load_sidecar", 0.0), "s")
    out["trace.overhead_ratio"] = (result["untraced_s"] / result["traced_s"], "ratio")
    return out


def _child(work: Path, seconds: float, traced: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), str(work),
           "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    # A child measures for ``seconds`` after set-up; the slack covers set-up
    # and the minimum sample count.
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=2 * seconds + 120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, modes: tuple[bool, ...],
        shape: dict | None = None) -> dict:
    """Generate the inputs, run one child per mode, return the result.

    ``modes`` lists the runs to make, False for untraced and True for
    traced; ``shape`` overrides the workload's sizes (self-test only).
    """
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        manifest = gen.generate(workload, seed, work, shape)
        metrics: dict[str, tuple[float, str]] = {}
        attempted = failed = 0
        correct = True
        failures: list[str] = []
        for traced in modes:
            result = _child(work, seconds, traced)
            attempted += result["attempted"]
            failed += result["failed"]
            failures += result["failures"]
            if traced:
                metrics.update(per_layer(result, work / "spans.jsonl"))
                if result["digest_mismatches"]:
                    correct = False
                    failures.append(f"{result['digest_mismatches']} traced "
                                    "reports differ from the untraced ones")
            else:
                metrics.update(end_to_end(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    return {"correct": correct and failed == 0, "attempted": attempted,
            "failed": failed, "failures": failures, "sizes": manifest["sizes"],
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    args = parser.parse_args(argv)
    modes = {"0": (False,), "1": (True,), "both": (False, True)}[args.trace]
    result = run(args.workload, args.seed, args.seconds, modes)

    sizes = result["sizes"]
    print(f"# {args.workload} seed {args.seed}: {sizes['modules']} modules x "
          f"{sizes['functions']} functions, {sizes['traces']} traces x "
          f"{sizes['events_per_trace']:.0f} events")
    print("# event kinds: " + ", ".join(
        f"{k} {v:.1%}" for k, v in sizes["kind_share"].items()))
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    reported = {name: {"value": value, "unit": unit}
                for name, (value, unit) in result["metrics"].items()
                if name not in PRINTED_ONLY}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": reported}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Fast self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks, on every workload shape, that the generator is deterministic,
that its known answers match the engine's verdicts (with a raised
injection rate so every violation class occurs), and that a run emits
every metric BENCHMARK.json names, with its unit.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import unittest
from pathlib import Path

import run  # puts the checkout's src/ on sys.path first
import gen
import worker
from dyncfi import elf, trace

TINY = {
    "replay-hot": {"modules": 3, "functions": 40, "imports": 12, "plt": 4,
                   "traces": 3, "transfers": 400},
    "load-churn": {"modules": 4, "functions": 40, "imports": 12, "plt": 4,
                   "traces": 3, "transfers": 40},
    "stripped-cold": {"modules": 3, "functions": 40, "imports": 12, "plt": 4,
                      "traces": 3, "transfers": 400},
}
SEED = 7


def _digest(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def _scratch() -> tempfile.TemporaryDirectory:
    run.WORK_ROOT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.WORK_ROOT)


class GeneratorTest(unittest.TestCase):
    def test_inputs_depend_on_the_seed_alone(self):
        with _scratch() as d:
            for workload, shape in TINY.items():
                a, b, c = (Path(d) / f"{workload}-{x}" for x in "abc")
                gen.generate(workload, SEED, a, shape)
                gen.generate(workload, SEED, b, shape)
                gen.generate(workload, SEED + 1, c, shape)
                self.assertEqual(_digest(a), _digest(b), workload)
                self.assertNotEqual(_digest(a), _digest(c), workload)

    def test_known_answers_match_engine(self):
        for workload, shape in TINY.items():
            with self.subTest(workload=workload), _scratch() as d:
                work = Path(d)
                manifest = gen.generate(workload, SEED, work,
                                        dict(shape, inject_rate=0.15))
                modules = {p: elf.parse_module((work / p).read_bytes(), p)
                           for p in manifest["modules"]}
                sidecar = elf.load_sidecar((work / manifest["sidecar"]).read_text())
                config = trace.ReplayConfig(sidecar=sidecar)
                rules = set()
                for entry in manifest["traces"]:
                    events = trace.parse_trace((work / entry["file"]).read_text())
                    report = trace.Replayer(config, modules).replay(events)
                    got = [[v["seq"], v["rule"]] for v in report.violations]
                    self.assertEqual(got, entry["violations"], entry["file"])
                    rules.update(rule for _seq, rule in entry["violations"])
                expected = set(gen.INJECTED_RULES)
                if gen.WORKLOADS[workload]["stripped"]:
                    expected.discard(gen.RULE_JUMP_INTRA)
                self.assertEqual(rules, expected)


class RunTest(unittest.TestCase):
    def test_every_named_metric_is_emitted(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(gen.WORKLOADS))
        named = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        for workload, shape in TINY.items():
            with self.subTest(workload=workload):
                result = run.run(workload, SEED, 0.2, (False, True), shape)
                self.assertTrue(result["correct"], result["failures"])
                self.assertEqual(result["failed"], 0)
                emitted = {name: unit for name, (_v, unit) in result["metrics"].items()}
                for name, unit in named.items():
                    self.assertEqual(emitted.get(name), unit, name)
                self.assertGreater(result["metrics"]["events_per_s"][0], 0)
                self.assertGreater(result["metrics"]["setup_s"][0], 0)

    def test_direct_memo_rate_matches_a_hand_count(self):
        # The engine checks each distinct direct (kind, src, dst) once per
        # epoch; loads and unloads start a new epoch.
        shape = TINY["replay-hot"]
        with _scratch() as d:
            work = Path(d)
            manifest = gen.generate("replay-hot", SEED, work, shape)
            checks = direct = 0
            for entry in manifest["traces"]:
                seen: set[tuple] = set()
                for event in trace.parse_trace((work / entry["file"]).read_text()):
                    if event.kind in ("load", "unload"):
                        checks += len(seen)
                        seen.clear()
                    elif event.kind in worker.DIRECT_KINDS:
                        direct += 1
                        seen.add((event.kind, event.src, event.dst))
                checks += len(seen)
        result = run.run("replay-hot", SEED, 0.2, (True,), shape)
        self.assertGreater(checks, 0)
        self.assertAlmostEqual(result["metrics"]["trace.direct_memo_hit_rate"][0],
                               1 - checks / direct)


if __name__ == "__main__":
    unittest.main()

"""The benchmark harness still runs against the engine it measures.

``bench/`` wraps engine callables by name (``trace.check_jump`` and
others) and reads the direct memo's counters as ``Replayer.cache.hits``
and ``.misses``, so a signature change in ``src/`` that breaks the
harness fails here rather than in a benchmark run.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


#: sha256 of ``EnforcementReport.to_json()`` for each trace of the
#: self-test's TINY shapes at its seed, recorded at commit fdc57b1.  Any
#: drift in a verdict, rule, reason, target-set size or DAIR value shows
#: here, while the self-test compares only ``(seq, rule)``.
REPORT_SHA256 = {
    "load-churn/trace000.jsonl": "3face34403483cde775c4054a2699aa2f80e66dd39c51d6fbc650876d8746edc",
    "load-churn/trace001.jsonl": "4ff0722b632d6d4bf23ae21536281e1e8a4c4a75412eff20b9de088d1c78911c",
    "load-churn/trace002.jsonl": "9d05b561c433f2ddd34505d3c9cae5a38653675073a58733c4c7bc1b0adeff82",
    "replay-hot/trace000.jsonl": "e8988aa217da27114ab7aafcb2c5ab7bd502b7d796e1864c05a34d08e62e3e28",
    "replay-hot/trace001.jsonl": "51517bd8cbdcfe67674bb1f64356d50d28490098998ef350907d031964145cf4",
    "replay-hot/trace002.jsonl": "87c24ca17ae3040eb4a142d60b21cd81c5ac38ae44544d918fd27d465c233483",
    "stripped-cold/trace000.jsonl": "952221907c0be23f0325fca9ad188eae7fe2836198c5100b2a1ac6bb60133775",
    "stripped-cold/trace001.jsonl": "863fba43a8e675700e70f2a8e74e073d65f9f0de4b283c741c067c124cfdb543",
    "stripped-cold/trace002.jsonl": "5ce0bddda66620bfe97af1a5d39c78bd20a73d3803029f42ca21957400f6c002",
}


def test_report_bytes_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import gen
    from selftest import SEED, TINY

    from dyncfi import ReplayConfig, Replayer, load_sidecar, parse_module, parse_trace

    got = {}
    for workload, shape in TINY.items():
        work = tmp_path / workload
        manifest = gen.generate(workload, SEED, work, shape)
        modules = {p: parse_module((work / p).read_bytes(), p)
                   for p in manifest["modules"]}
        config = ReplayConfig(
            sidecar=load_sidecar((work / manifest["sidecar"]).read_text()))
        for entry in manifest["traces"]:
            events = parse_trace((work / entry["file"]).read_text())
            report = Replayer(config, modules).replay(events)
            got[f"{workload}/{entry['file']}"] = hashlib.sha256(
                report.to_json().encode()).hexdigest()
    assert got == REPORT_SHA256

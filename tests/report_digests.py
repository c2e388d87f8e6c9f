"""Print the sha256 of every benchmark trace's outputs, one trace a line.

For each workload in ``bench/gen.py``, generates the inputs at ``--seed``
into a temporary directory, checks every trace the way ``dyncfi check``
does (modules parsed once, the generated sidecar, default config) and
prints ``<workload>/<trace>`` followed by three sha256 digests: of the
report's ``to_json()``, of the final process image as ``check
--dump-image`` serializes it, and of the DAIR series as ``dair --csv``
writes it.  Two engines whose outputs are identical print identical
lines.  Usage::

    PYTHONPATH=<checkout>/src python3 tests/report_digests.py [--seed N]

The engine comes from ``PYTHONPATH``; the generator is this checkout's
``bench/gen.py``, so running one copy of this script against two engines
compares the engines alone.  A helper script, not a test: pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402
from dyncfi import elf, trace  # noqa: E402


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(workload: str, seed: int, work: Path) -> list[tuple[str, ...]]:
    manifest = gen.generate(workload, seed, work)
    modules = {p: elf.parse_module((work / p).read_bytes(), p)
               for p in manifest["modules"]}
    sidecar = elf.load_sidecar((work / manifest["sidecar"]).read_text())
    config = trace.ReplayConfig(sidecar=sidecar)
    out = []
    for entry in manifest["traces"]:
        events = trace.parse_trace((work / entry["file"]).read_text())
        replayer = trace.Replayer(config, modules)
        report = replayer.replay(events)
        image = json.dumps(replayer.process.snapshot_dict(), indent=2,
                           sort_keys=True)
        out.append((entry["file"], _sha256(report.to_json()), _sha256(image),
                    _sha256(report.dair.csv_series())))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=90210)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for workload in sorted(gen.WORKLOADS):
            for name, *shas in digests(workload, args.seed, Path(tmp, workload)):
                print(f"{workload}/{name}", *shas, flush=True)


if __name__ == "__main__":
    main()

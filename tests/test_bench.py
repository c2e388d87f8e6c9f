"""The benchmark harness still runs against the engine it measures.

``bench/`` wraps engine callables by name (``trace.check_jump``,
``Replayer.cache.hits`` and others), so a signature change in ``src/``
that breaks the harness fails here rather than in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]

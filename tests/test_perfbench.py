"""The benchmark's self-test runs in the suite.

``perfbench`` traces the package by looking up its functions by name, so
a renamed or unreachable traced function fails here and not only on the
next benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--selftest"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]

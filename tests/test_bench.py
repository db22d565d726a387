"""The benchmark harness runs on this checkout: bench/selftest.py, which
replays every workload's short inputs traced and untraced, exits 0.  A
change to the chart API that breaks the benchmark's traced path fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("selftest PASS")

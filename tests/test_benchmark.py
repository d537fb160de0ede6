"""The benchmark's own self-test, run as part of the test suite.

perfbench/selftest.py runs every workload at small scale and checks every
op against the scalar oracles, so a kernel change that would make the
benchmark count failed ops fails here first.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "selftest passed", done.stdout

"""The benchmark's self-test (perfbench/selftest.py), run as one test.

It drives every benchmark workload end to end at a tiny size, so a change
that breaks a workload's correctness check fails here, not only in a
benchmark run.  It takes about a minute.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

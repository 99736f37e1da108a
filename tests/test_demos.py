"""The README's demos (demos/*.py), each run as a script.

train_bi_era.py is left out: it trains a model, which the acceptance
tests already cover.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, closing_line",
    [
        ("crf_vs_enumeration.py", "dynamic programs match enumeration."),
        ("dictionary_attention.py", "  (weights sum to 1.000)"),
        ("gradcheck_walkthrough.py", "analytic and numeric gradients agree."),
    ],
)
def test_demo_runs_to_its_closing_line(script, closing_line):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == closing_line

"""The README's demos (demos/*.py), each run as a script."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(script):
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
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "script, closing_line",
    [
        ("crf_vs_enumeration.py", "dynamic programs match enumeration."),
        ("dictionary_attention.py", "  (weights sum to 1.000)"),
        ("gradcheck_walkthrough.py", "analytic and numeric gradients agree."),
    ],
)
def test_demo_runs_to_its_closing_line(script, closing_line):
    assert run_demo(script) == closing_line


def test_training_demo_ends_with_its_test_scores():
    # The figures move in their last digits with summation order, so only
    # the line's form is pinned.
    closing = run_demo("train_bi_era.py")
    assert re.fullmatch(r"test F1 \d\.\d{3}, era accuracy \d\.\d{3}", closing), closing

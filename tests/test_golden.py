"""Golden checkpoints: a committed model keeps loading and predicting as it did.

tests/data/make_golden.py trained the checkpoints and wrote the expected
outputs.  Words, eras and eval's report must match exactly; era
probabilities may move only by rounding, within 1e-9.
"""

import importlib.util
from pathlib import Path

import pytest

from eraseg.trainer import Checkpoint

_SPEC = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).parent / "data" / "make_golden.py"
)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


def expected(name):
    rows = golden.EXPECTED.read_text(encoding="utf-8").splitlines()
    return [r for r in rows if r.split("\t")[1] == name]


@pytest.mark.parametrize("name", sorted(golden.CONFIGS))
def test_checkpoint_bytes_round_trip(name):
    blob = golden.checkpoint_path(name).read_bytes()
    assert len(blob) < 64 * 1024
    assert Checkpoint.from_bytes(blob).to_bytes() == blob


@pytest.mark.parametrize("name", sorted(golden.CONFIGS))
def test_predictions_and_eval_match_golden(name):
    want, got = expected(name), golden.render(name)
    assert len(got) == len(want)
    for w, g in zip(want, got):
        if not w.startswith("seg\t"):
            assert g == w
            continue
        *w_fields, w_probs = w.split("\t")
        *g_fields, g_probs = g.split("\t")
        assert g_fields == w_fields
        for wp, gp in zip(w_probs.split(","), g_probs.split(","), strict=True):
            assert abs(float(gp) - float(wp)) <= 1e-9, (w_fields, wp, gp)

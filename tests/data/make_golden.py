"""Write the golden checkpoints and the outputs they must keep giving.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_golden.py

It trains two tiny two-era models on the synthetic corpus, one with hard
switching and concat fusion, one with soft switching and sum fusion, and
saves them beside this file as golden_<name>.ckpt.  It then writes
golden_expected.txt, one tab-separated record per line:

    seg   <name> <line no> <route> <words> <era> <era probabilities>
    eval  <name> <line of `eraseg eval`'s report>

Each `segment` call covers a held-out or mixed-script line, routed by the
classifier ("auto") or forced to one era.  tests/test_golden.py loads the
checkpoints and compares against this file: words, eras and the report
exactly, probabilities within 1e-9.

Regenerate only in a change that alters the checkpoint format or the model
on purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from eraseg.cli import main as cli_main
from eraseg.config import Config
from eraseg.corpus import make_synthetic_corpus
from eraseg.trainer import Checkpoint, segment, split_corpus, train

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "golden_expected.txt"
CONFIGS = {
    "hard": ("switch_mode=hard", "fusion=concat"),
    "soft": ("switch_mode=soft", "fusion=sum"),
}
CORPUS_SEED = 31
N_TRAIN, N_TEST = 400, 16


def checkpoint_path(name: str) -> Path:
    return HERE / f"golden_{name}.ckpt"


def _corpora():
    return make_synthetic_corpus(CORPUS_SEED, n_train=N_TRAIN, n_test=N_TEST)


def lines() -> list[str]:
    """Held-out test sentences, then mixed-script lines and one line past max_len."""
    _, test = _corpora()
    held_out = ["".join(s.words) for s in test.sentences]
    mixed = [
        "山水ABC123，金水",
        held_out[0][:3] + "Tang 618，" + held_out[1],
        "２０２４年" + held_out[2] + "！？",
        "龙" + held_out[3] + "凤",  # characters outside the vocabulary
    ]
    return held_out + mixed + ["".join(held_out)[:200]]


def _write_eval_corpora(work: Path) -> list[str]:
    _, test = _corpora()
    pairs = []
    for era in (0, 1):
        path = work / f"test{era}.txt"
        rows = [" ".join(s.words) for s in test.sentences if s.era_id == era]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        pairs.append(f"{era}={path}")
    return pairs


def render(name: str) -> list[str]:
    """Every expected record of one checkpoint, as golden_expected.txt holds them."""
    ckpt = Checkpoint.load(checkpoint_path(name))
    records = []
    for i, text in enumerate(lines()):
        for route in (None, 0, 1):
            result = segment(text, ckpt, force_era=route)
            probs = ",".join(repr(p) for p in result.era_probs)
            records.append(
                f"seg\t{name}\t{i}\t{'auto' if route is None else route}\t"
                f"{' '.join(result.words)}\t{result.era}\t{probs}"
            )
    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()
        args = ["eval", *_write_eval_corpora(Path(tmp)), "--checkpoint", str(checkpoint_path(name))]
        with contextlib.redirect_stdout(out):
            rc = cli_main(args)
        if rc != 0:
            raise RuntimeError(f"eval of golden_{name}.ckpt exited {rc}")
    records += [f"eval\t{name}\t{row}" for row in out.getvalue().splitlines()]
    return records


def main() -> int:
    train_corpus, _ = _corpora()
    for name, overrides in CONFIGS.items():
        config = Config(
            alpha=0.2, d_e=8, d_a=8, eras=2, max_ngram=3, ngram_min_count=6,
            lr=2e-2, epochs=6, batch=8, seed=2024,
        ).with_overrides(dict(item.split("=") for item in overrides))
        train_part, dev_part = split_corpus(train_corpus, 0.1, config.seed)
        train(train_part, dev_part, config).save(checkpoint_path(name))
        print(f"{checkpoint_path(name).name}: {checkpoint_path(name).stat().st_size} bytes")
    records = [r for name in CONFIGS for r in render(name)]
    EXPECTED.write_text("\n".join(records) + "\n", encoding="utf-8")
    print(f"{EXPECTED.name}: {len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Train a model end to end and segment era-hybrid text.

Runs on the synthetic bi-era corpus; the whole script takes a few seconds
on one CPU core.  After training, the same surface string is
segmented twice with the memory pinned to each era to show the switching
behavior, then the held-out sentences are scored.
"""

import dataclasses

from eraseg.config import Config
from eraseg.corpus import make_synthetic_corpus
from eraseg.metrics import era_accuracy, score_segmentation
from eraseg.trainer import (
    predict_sentence,
    prepare_sentence,
    segment,
    split_corpus,
    train,
)

config = Config(
    alpha=0.3, d_e=32, d_a=32, eras=2, switch_mode="hard", fusion="concat",
    max_ngram=3, ngram_min_count=10, lr=1e-3, epochs=5, batch=8, seed=4242,
    max_len=126, memory_enabled=True,
)

train_corpus, test_corpus = make_synthetic_corpus(seed=20260822, n_train=2000, n_test=400)
train_part, dev_part = split_corpus(train_corpus, 0.1, config.seed)
print(f"training on {len(train_part)} sentences ({config.epochs} epochs)")

ckpt = train(
    train_part,
    dev_part,
    config,
    on_epoch=lambda st: print(
        f"  epoch {st.epoch}: loss={st.mean_loss:.3f} dev_f1={st.dev_f1:.3f}"
    ),
)

# A bigram that is one word in one era and two words in the other reads
# differently depending on which era memory the switcher routes to.
probe = next(s for s in test_corpus.sentences if any(len(w) == 2 for w in s.words))
text = "".join(probe.words)
print(f"\nprobe sentence (gold era {probe.era_id}): {' '.join(probe.words)}")
for era in (0, 1):
    result = segment(text, ckpt, force_era=era)
    print(f"  routed to era {era}: {' '.join(result.words)}")
auto = segment(text, ckpt)
print(f"  classifier's choice (era {auto.era}): {' '.join(auto.words)}")

gold, pred, gold_eras, pred_eras = [], [], [], []
for sent in test_corpus.sentences:
    prep = prepare_sentence(sent.words, sent.era_id, ckpt.vocab, ckpt.lexicons, config.max_ngram)
    words, era, _ = predict_sentence(ckpt.params, prep, ckpt.config)
    gold.append(list(sent.words))
    pred.append(list(words))
    gold_eras.append(sent.era_id)
    pred_eras.append(era)
score = score_segmentation(gold, pred)
print(f"\ntest F1 {score.f1:.3f}, era accuracy {era_accuracy(gold_eras, pred_eras):.3f}")

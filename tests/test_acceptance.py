"""Acceptance gates for the whole pipeline.

Seven criteria, one test each, run at pinned tolerances.  Every test prints
a single verdict line (shown by pytest under -rA or -s, and always on
failure).  The slow end-to-end criterion trains two models and takes a few
minutes; everything else finishes in seconds.
"""

import functools
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from _oracles import brute_log_partition, brute_viterbi, pad_candidates

import eraseg.autodiff as ad
from eraseg.autodiff import Tensor, named_tensors
from eraseg.config import Config
from eraseg.corpus import Vocab, make_synthetic_corpus
from eraseg.crf import log_partition, nll, viterbi
from eraseg.encoder import GruCell, run_bigru
from eraseg.lexicon import V_B, V_E, V_S, build_lexicon
from eraseg.memory import read_cell
from eraseg.metrics import machine_line, oov_recall, score_segmentation
from eraseg.metrics import era_accuracy
from eraseg.switcher import DiscriminatorParams, discriminator_nll, era_logits, switch
from eraseg.trainer import (
    init_model_params,
    predict_sentence,
    prepare_sentence,
    sentence_loss,
    split_corpus,
    train,
)


def criterion(number, verdict):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL: {verdict}")
                raise
            print(f"[criterion {number}] PASS: {verdict}")

        return inner

    return wrap


# Shared tiny model world: a small synthetic corpus, its vocabulary and
# dictionaries, and a two-character training sentence that has candidates
# in both era memories.
TINY = Config(
    alpha=0.5, d_e=8, d_a=8, eras=2, switch_mode="hard", fusion="concat",
    max_ngram=3, ngram_min_count=2, lr=1e-3, epochs=2, batch=4, seed=99,
    max_len=126, memory_enabled=True,
)


@pytest.fixture(scope="module")
def tiny_world():
    corpus, _ = make_synthetic_corpus(seed=5, n_train=24, n_test=4)
    vocab = Vocab.from_corpus(corpus)
    lexicons = tuple(
        build_lexicon(corpus, d, TINY.ngram_min_count, TINY.max_ngram) for d in range(2)
    )
    two_char = next(
        (w, s.era_id)
        for s in corpus.sentences
        for w in s.words
        if len(w) == 2
    )
    prep = prepare_sentence([two_char[0]], two_char[1], vocab, lexicons, TINY.max_ngram)
    return vocab, lexicons, prep


def fresh_params(config, vocab, lexicons, seed=7):
    rng = np.random.default_rng(seed)
    return init_model_params(config, len(vocab), [len(l) for l in lexicons], rng)


@criterion(1, "log-partition within 1e-6 of enumeration and viterbi path exact on 100 random instances in < 5 s")
def test_criterion_1_exact_inference():
    rng = np.random.default_rng(20260822)
    start = time.perf_counter()
    for _ in range(100):
        emit = rng.normal(size=(5, 4))
        trans = rng.normal(size=(5, 4))
        got = log_partition(Tensor(emit), Tensor(trans)).value[0, 0]
        want = brute_log_partition(emit, trans)
        assert abs(got - want) < 1e-6
        path, score = viterbi(emit, trans)
        want_path, want_score = brute_viterbi(emit, trans)
        assert path == want_path
        assert abs(score - want_score) < 1e-9
    elapsed = time.perf_counter() - start
    print(f"  100 instances checked in {elapsed:.2f} s")
    assert elapsed < 5.0


def _op_cases(rng):
    def t(*shape):
        return Tensor(rng.normal(size=shape))

    a, b = t(3, 4), t(3, 4)
    row, col = t(1, 4), t(3, 1)
    m, n = t(3, 5), t(5, 2)
    probs = t(2, 6)
    # positions with two candidates of one word, none, and three
    ragged = pad_candidates([
        [(2, V_B), (2, V_S)],
        [],
        [(0, V_E), (4, V_B), (1, V_S)],
    ])
    # the input rows of three sentences (3, 1 and 1 rows), then the forward
    # and the reverse GRU cell's six parameters each (d_in = 4, k = 3)
    gru_args = (t(5, 4), *(t(*s) for s in [(4, 6), (3, 6), (1, 6), (4, 3), (3, 3), (1, 3)] * 2))
    return [
        ("add", lambda x, y: ad.add(x, y), (a, b)),
        ("add broadcast", lambda x, y: ad.add(x, y), (a, row)),
        ("mul broadcast", lambda x, y: ad.mul(x, y), (a, row)),
        ("scale", lambda x: ad.scale(x, -1.7), (a,)),
        ("matmul", lambda x, y: ad.matmul(x, y), (m, n)),
        ("concat_cols", lambda x, y: ad.concat_cols([x, y]), (a, col)),
        ("gather_rows dup idx", lambda x: ad.gather_rows(x, [1, 1, 0, 2]), (m,)),
        ("sum_all", lambda x: ad.sum_all(x), (a,)),
        ("tanh", lambda x: ad.tanh(x), (a,)),
        ("softmax_row", lambda x: ad.softmax_row(x), (probs,)),
        (
            "bigru ragged",
            lambda x, *w: run_bigru(x, [3, 1, 1], GruCell(*w[:6]), GruCell(*w[6:])),
            gru_args,
        ),
        ("read_cell ragged", lambda s, k, v: read_cell(s, ragged, k, v), (a, t(5, 4), t(4, 4))),
        (
            "discriminator_nll batch",
            lambda h, w, c: discriminator_nll(era_logits(h, DiscriminatorParams(w, c)), [1, 0]),
            (t(2, 4), t(4, 3), t(1, 3)),
        ),
        ("switch soft", lambda p, *cells: switch(cells, p, "soft"), (t(1, 3), a, b, t(3, 4))),
        ("switch soft per row", lambda p, *cells: switch(cells, p, "soft"), (t(3, 3), a, b, t(3, 4))),
        ("log_partition", lambda x, y: log_partition(x, y), (a, t(5, 4))),
        ("nll batch", lambda x, y: nll(x, y, [0, 3, 1], [2, 1]), (a, t(5, 4))),
    ]


@criterion(2, "finite differences agree below 1e-4 for every primitive op and layer node, and for the full model in all four switch/fusion combinations")
def test_criterion_2_gradient_integrity(tiny_world):
    rng = np.random.default_rng(11)
    for name, fn, args in _op_cases(rng):
        out_shape = fn(*args).value.shape
        w = rng.normal(size=out_shape)

        def scalar():
            return ad.sum_all(ad.mul(fn(*args), Tensor(w)))

        err = ad.grad_check(scalar, args)
        assert err < 1e-4, f"op {name}: worst relative error {err:.3e}"

    vocab, lexicons, prep = tiny_world
    assert len(prep.chars) == 2
    for switch_mode in ("hard", "soft"):
        for fusion in ("sum", "concat"):
            config = replace(TINY, switch_mode=switch_mode, fusion=fusion)
            params = fresh_params(config, vocab, lexicons)
            err = ad.grad_check(
                lambda: sentence_loss(params, [prep], config)[0], params.tensors()
            )
            assert err < 1e-4, f"{switch_mode}+{fusion}: worst relative error {err:.3e}"


@criterion(3, "hard switch equals soft switch under one-hot distributions (1e-12); gold-routed training at alpha=1 leaves classifier-head gradients exactly zero")
def test_criterion_3_switch_equivalences(tiny_world):
    rng = np.random.default_rng(33)
    for _ in range(50):
        n_eras = int(rng.integers(2, 5))
        d = int(rng.integers(2, 7))
        cells = [Tensor(rng.normal(size=(1, d))) for _ in range(n_eras)]
        hot = np.zeros((1, n_eras))
        hot[0, rng.integers(n_eras)] = 1.0
        probs = Tensor(hot)
        hard = switch(cells, probs, "hard", training=False)
        soft = switch(cells, probs, "soft", training=False)
        np.testing.assert_allclose(hard.value, soft.value, rtol=0.0, atol=1e-12)

    vocab, lexicons, prep = tiny_world
    config = replace(TINY, switch_mode="hard", alpha=1.0)
    params = fresh_params(config, vocab, lexicons)
    loss, _, _ = sentence_loss(params, [prep], config)
    loss.backward()
    for name, tensor in named_tensors(params):
        if name.startswith("disc."):
            np.testing.assert_array_equal(tensor.grad, np.zeros_like(tensor.grad))


@criterion(4, "joint loss equals alpha*tagging + (1-alpha)*classification at alpha=0.7 (1e-12); soft switch reproduces the probability-weighted cell sum (1e-12)")
def test_criterion_4_loss_and_soft_switch_arithmetic(tiny_world):
    j_cws, j_disc = ad.const(1.0), ad.const(2.0)
    combined = ad.add(ad.scale(j_cws, 0.7), ad.scale(j_disc, 1.0 - 0.7))
    assert abs(combined.value[0, 0] - 1.3) < 1e-12

    vocab, lexicons, prep = tiny_world
    config = replace(TINY, alpha=0.7)
    loss, (cws_val,), (disc_val,) = sentence_loss(fresh_params(config, vocab, lexicons), [prep], config)
    assert abs(loss.value[0, 0] - (0.7 * cws_val + 0.3 * disc_val)) < 1e-12

    rng = np.random.default_rng(44)
    cells = [Tensor(rng.normal(size=(1, 6))) for _ in range(4)]
    weights = np.array([[0.1, 0.2, 0.1, 0.6]])
    blended = switch(cells, Tensor(weights), "soft", training=False)
    want = sum(w * c.value for w, c in zip(weights[0], cells))
    np.testing.assert_allclose(blended.value, want, rtol=0.0, atol=1e-12)


@criterion(6, "segmentation scorer and OOV recall reproduce hand-computed fixtures exactly")
def test_criterion_6_metric_fixtures():
    gold = [["ab", "cd"]]
    pred = [["ab", "c", "d"]]
    score = score_segmentation(gold, pred)
    assert score.precision == 1 / 3
    assert score.recall == 1 / 2
    assert score.f1 == 0.4

    gold = [["new", "old"]]
    assert oov_recall(gold, [["new", "old"]], {"old"}) == 1.0
    assert oov_recall(gold, [["ne", "w", "old"]], {"old"}) == 0.0
    assert oov_recall(gold, [["new", "old"]], {"new", "old"}) is None
    assert machine_line(0, 0.4, None) == "era=0 f1=0.4000 roov=NA"


def _evaluate(ckpt, corpus):
    gold, pred, gold_eras, pred_eras = [], [], [], []
    for sent in corpus.sentences:
        prep = prepare_sentence(
            sent.words, sent.era_id, ckpt.vocab, ckpt.lexicons, ckpt.config.max_ngram
        )
        words, era, _ = predict_sentence(ckpt.params, prep, ckpt.config)
        gold.append(list(sent.words))
        pred.append(list(words))
        gold_eras.append(sent.era_id)
        pred_eras.append(era)
    return score_segmentation(gold, pred).f1, era_accuracy(gold_eras, pred_eras)


@criterion(5, "era accuracy >= 0.95 and >= 5-point F1 gain over the memory-disabled baseline, trained in < 5 minutes")
def test_criterion_5_memory_ablation_gap():
    full_cfg = Config(
        alpha=0.3, d_e=32, d_a=32, eras=2, switch_mode="hard", fusion="concat",
        max_ngram=3, ngram_min_count=10, lr=1e-3, epochs=5, batch=8, seed=4242,
        max_len=126, memory_enabled=True,
    )
    base_cfg = replace(full_cfg, memory_enabled=False, alpha=1.0)
    train_corpus, test_corpus = make_synthetic_corpus(20260822, n_train=2000, n_test=400)
    train_part, dev_part = split_corpus(train_corpus, 0.1, full_cfg.seed)

    start = time.perf_counter()
    ckpt_full = train(train_part, dev_part, full_cfg)
    ckpt_base = train(train_part, dev_part, base_cfg)
    wall = time.perf_counter() - start

    f1_full, acc_full = _evaluate(ckpt_full, test_corpus)
    f1_base, _ = _evaluate(ckpt_base, test_corpus)
    print(
        f"  full f1={f1_full:.4f} era_acc={acc_full:.4f}; "
        f"baseline f1={f1_base:.4f}; gap={f1_full - f1_base:+.4f}; training {wall:.0f} s"
    )
    assert wall < 300.0
    assert acc_full >= 0.95
    assert f1_full - f1_base >= 0.05


@criterion(7, "same-seed training runs produce bit-identical checkpoints and segmenting a fixed file twice is byte-identical")
def test_criterion_7_determinism(tmp_path):
    corpus, test_corpus = make_synthetic_corpus(seed=5, n_train=24, n_test=4)
    train_part, dev_part = split_corpus(corpus, 0.2, TINY.seed)
    blobs = [
        train(train_part, dev_part, TINY).to_bytes() for _ in range(2)
    ]
    assert blobs[0] == blobs[1]

    ckpt_path = tmp_path / "model.ckpt"
    ckpt_path.write_bytes(blobs[0])
    raw_path = tmp_path / "raw.txt"
    raw_path.write_text(
        "\n".join("".join(s.words) for s in test_corpus.sentences) + "\n",
        encoding="utf-8",
    )
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "eraseg", "segment", str(raw_path),
             "--checkpoint", str(ckpt_path)],
            capture_output=True,
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count(b"\tera=") == len(test_corpus.sentences)

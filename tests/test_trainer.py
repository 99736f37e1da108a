import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eraseg import autodiff as ad
from eraseg.config import Config
from eraseg.corpus import RawCorpus, RawSentence, Vocab, make_synthetic_corpus
from eraseg.errors import DataError, NumericError
from eraseg.lexicon import EraLexicon, build_lexicon, load_lexicon
from eraseg.metrics import score_segmentation
from eraseg.trainer import (
    Adam,
    Checkpoint,
    EpochStats,
    ModelParams,
    clip_global_norm,
    init_model_params,
    predict_sentence,
    prepare_sentence,
    segment,
    sentence_loss,
    split_corpus,
    train,
)
from eraseg.autodiff import Tensor, named_tensors

# Any word the word-list codec must carry: non-empty, no "\n", encodable as UTF-8.
CODEC_WORDS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), min_size=1, max_size=6
)


def tiny_config(**kw):
    base = dict(
        eras=2, d_e=8, d_a=8, epochs=3, batch=4, seed=99, ngram_min_count=2, max_ngram=3
    )
    base.update(kw)
    return Config(**base)


def tiny_setup(config, n_sentences=24, seed=5):
    train_c, _ = make_synthetic_corpus(seed, n_sentences, 4)
    lexicons = tuple(
        build_lexicon(train_c, d, config.ngram_min_count, config.max_ngram)
        for d in range(config.eras)
    )
    vocab = Vocab.from_corpus(train_c)
    rng = np.random.default_rng(config.seed)
    params = init_model_params(config, len(vocab), [len(l) for l in lexicons], rng)
    prepared = [
        prepare_sentence(s.words, s.era_id, vocab, lexicons, config.max_ngram)
        for s in train_c.sentences
    ]
    return train_c, vocab, lexicons, params, prepared


@pytest.fixture(scope="module")
def trained():
    """One short real training run shared by the checkpoint/inference tests."""
    config = tiny_config(epochs=2)
    corpus, _ = make_synthetic_corpus(11, 40, 4)
    train_part, dev_part = split_corpus(corpus, 0.2, seed=1)
    stats: list[EpochStats] = []
    ckpt = train(train_part, dev_part, config, on_epoch=stats.append)
    return ckpt, stats


class TestSentenceLoss:
    def test_joint_loss_combines_with_alpha(self):
        config = tiny_config(alpha=0.7)
        _, _, _, params, prepared = tiny_setup(config)
        loss, cws, disc = sentence_loss(params, prepared[0], config)
        assert loss.value[0, 0] == pytest.approx(0.7 * cws + 0.3 * disc, abs=1e-12)

    def test_era_out_of_range_rejected(self):
        config = tiny_config()
        _, vocab, lexicons, params, _ = tiny_setup(config)
        bad = prepare_sentence(["山水"], 7, vocab, lexicons, config.max_ngram)
        with pytest.raises(DataError, match="era id 7"):
            sentence_loss(params, bad, config)

    def test_untagged_sentence_rejected(self):
        config = tiny_config()
        _, vocab, lexicons, params, _ = tiny_setup(config)
        prep = prepare_sentence(["山水"], 0, vocab, lexicons, config.max_ngram, with_tags=False)
        with pytest.raises(ValueError, match="gold"):
            sentence_loss(params, prep, config)

    @pytest.mark.parametrize("switch_mode", ["hard", "soft"])
    @pytest.mark.parametrize("fusion", ["sum", "concat"])
    def test_loss_is_finite_in_all_mode_pairs(self, switch_mode, fusion):
        config = tiny_config(switch_mode=switch_mode, fusion=fusion)
        _, _, _, params, prepared = tiny_setup(config)
        loss, cws, disc = sentence_loss(params, prepared[0], config)
        assert np.isfinite(loss.value[0, 0])
        assert cws >= 0 and disc >= 0

    def test_full_model_gradients_hard_and_soft(self):
        # Small dims keep the finite-difference sweep fast; the acceptance
        # suite re-runs this over every mode pair.
        for switch_mode in ("hard", "soft"):
            config = tiny_config(switch_mode=switch_mode, d_e=4, d_a=4)
            _, vocab, lexicons, params, _ = tiny_setup(config, n_sentences=8)
            prep = prepare_sentence(["之山", "水"], 0, vocab, lexicons, config.max_ngram)
            leaves = params.tensors()
            err = ad.grad_check(lambda: sentence_loss(params, prep, config)[0], leaves)
            assert err < 1e-4, f"{switch_mode}: worst error {err}"

    def test_alpha_one_hard_mode_gives_discriminator_zero_grads(self):
        config = tiny_config(alpha=1.0, switch_mode="hard")
        _, _, _, params, prepared = tiny_setup(config)
        loss, _, _ = sentence_loss(params, prepared[0], config)
        loss.backward()
        np.testing.assert_array_equal(params.disc.weight.grad, 0.0)
        np.testing.assert_array_equal(params.disc.bias.grad, 0.0)

    def test_memory_disabled_ignores_memory_params(self):
        config = tiny_config(memory_enabled=False)
        _, _, _, params, prepared = tiny_setup(config)
        loss, _, _ = sentence_loss(params, prepared[0], config)
        loss.backward()
        for table in params.memory.keys:
            np.testing.assert_array_equal(table.grad, 0.0)
        np.testing.assert_array_equal(params.memory.values.grad, 0.0)


class TestPredict:
    def test_shapes_and_determinism(self):
        config = tiny_config()
        _, _, _, params, prepared = tiny_setup(config)
        words1, era1, probs1 = predict_sentence(params, prepared[0], config)
        words2, era2, probs2 = predict_sentence(params, prepared[0], config)
        assert words1 == words2 and era1 == era2
        np.testing.assert_array_equal(probs1, probs2)
        assert "".join(words1) == "".join(prepared[0].chars)
        assert abs(probs1.sum() - 1.0) < 1e-12
        assert era1 == int(np.argmax(probs1))


class TestOptimizer:
    def test_adam_moves_against_gradient(self):
        t = Tensor([[1.0, -2.0]])
        opt = Adam([t], lr=0.1)
        t.grad[...] = [[1.0, -1.0]]
        opt.step()
        assert t.value[0, 0] < 1.0
        assert t.value[0, 1] > -2.0

    def test_zero_gradient_leaves_value_unchanged(self):
        t = Tensor([[3.0]])
        opt = Adam([t], lr=0.5)
        opt.step()
        assert t.value[0, 0] == 3.0

    def test_clip_rescales_large_gradients(self):
        a, b = Tensor([[3.0, 0.0]]), Tensor([[4.0]])
        a.grad[...] = [[3.0, 0.0]]
        b.grad[...] = [[4.0]]
        norm = clip_global_norm([a, b], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        total = np.sqrt((a.grad**2).sum() + (b.grad**2).sum())
        assert total == pytest.approx(1.0)

    def test_clip_leaves_small_gradients_alone(self):
        a = Tensor([[0.3]])
        a.grad[...] = 0.3
        clip_global_norm([a], max_norm=5.0)
        assert a.grad[0, 0] == 0.3

    def test_clip_rejects_nan(self):
        a = Tensor([[1.0]])
        a.grad[...] = np.nan
        with pytest.raises(NumericError, match="not finite"):
            clip_global_norm([a], max_norm=5.0)


class TestTrainLoop:
    def test_loss_trend_improves(self):
        config = tiny_config(epochs=3)
        corpus, _ = make_synthetic_corpus(7, 60, 4)
        stats: list[EpochStats] = []
        train(corpus, None, config, on_epoch=stats.append)
        assert len(stats) == 3
        assert all(np.isfinite(s.mean_loss) for s in stats)
        assert stats[2].mean_loss < stats[0].mean_loss

    def test_alpha_zero_hard_mode_freezes_crf_and_fusion(self):
        config = tiny_config(alpha=0.0, switch_mode="hard", epochs=1, batch=2)
        _, _, _, params, prepared = tiny_setup(config, n_sentences=4)
        before = {n: t.value.copy() for n, t in named_tensors(params)}
        opt = Adam(params.tensors(), config.lr)
        for prep in prepared[:2]:
            loss, _, _ = sentence_loss(params, prep, config)
            ad.scale(loss, 0.5).backward()
        clip_global_norm(params.tensors(), 5.0)
        opt.step()
        for name, tensor in named_tensors(params):
            if name.startswith(("crf.", "fusion.", "memory.")):
                np.testing.assert_array_equal(tensor.value, before[name], err_msg=name)
        assert not np.array_equal(params.disc.weight.value, before["disc.weight"])

    def test_bad_era_rejected(self):
        corpus = RawCorpus((RawSentence(("山", "水"), 5),), "bad")
        with pytest.raises(DataError, match="era ids \\[5\\]"):
            train(corpus, None, tiny_config())

    def test_divergence_aborts_with_numeric_error(self):
        config = tiny_config(lr=1e308, epochs=2, batch=1)
        corpus, _ = make_synthetic_corpus(7, 8, 2)
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            train(corpus, None, config)

    def test_deterministic_checkpoint_bytes(self):
        config = tiny_config(epochs=2)
        corpus, _ = make_synthetic_corpus(13, 20, 4)
        train_part, dev_part = split_corpus(corpus, 0.2, seed=1)
        a = train(train_part, dev_part, config)
        b = train(train_part, dev_part, config)
        assert a.to_bytes() == b.to_bytes()


class TestSplitCorpus:
    def test_sizes_and_determinism(self):
        corpus, _ = make_synthetic_corpus(3, 30, 4)
        t1, d1 = split_corpus(corpus, 0.1, seed=4)
        t2, d2 = split_corpus(corpus, 0.1, seed=4)
        assert len(d1) == 3 and len(t1) == 27
        assert t1 == t2 and d1 == d2

    def test_partition_is_complete(self):
        corpus, _ = make_synthetic_corpus(3, 20, 4)
        t, d = split_corpus(corpus, 0.25, seed=4)
        key = lambda s: (s.era_id, s.words)
        assert sorted(t.sentences + d.sentences, key=key) == sorted(corpus.sentences, key=key)

    def test_degenerate_fraction_rejected(self):
        corpus, _ = make_synthetic_corpus(3, 4, 2)
        with pytest.raises(DataError, match="no training data"):
            split_corpus(corpus, 1.0, seed=4)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, trained):
        ckpt, _ = trained
        data = ckpt.to_bytes()
        again = Checkpoint.from_bytes(data).to_bytes()
        assert data == again

    def test_save_load_preserves_predictions(self, tmp_path, trained):
        ckpt, _ = trained
        path = tmp_path / "model.ckpt"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        text = "之乎山水"
        assert segment(text, loaded) == segment(text, ckpt)
        assert loaded.epoch == ckpt.epoch
        assert loaded.dev_f1 == ckpt.dev_f1

    def test_bad_magic_rejected(self):
        with pytest.raises(DataError, match="magic"):
            Checkpoint.from_bytes(b"NOPE" + b"\x00" * 20)

    def test_truncation_rejected(self, trained):
        ckpt, _ = trained
        data = ckpt.to_bytes()
        with pytest.raises(DataError):
            Checkpoint.from_bytes(data[: len(data) // 2])

    def test_corrupted_vocab_rejected(self, trained):
        ckpt, _ = trained
        data = bytearray(ckpt.to_bytes())
        # Flip a byte inside the vocab section: the digest must catch it.
        marker = "".join(ckpt.vocab.chars_in_id_order()).encode("utf-8")
        pos = data.find(marker)
        assert pos > 0
        data[pos] ^= 0x01
        with pytest.raises(DataError):
            Checkpoint.from_bytes(bytes(data))

    def test_every_byte_mutation_raises_data_error(self):
        # Two mutations (0xFF, low bit flipped) of every byte, from the magic
        # bytes through the tensor payloads to the digest trailer.
        config = tiny_config(epochs=1)
        corpus, _ = make_synthetic_corpus(5, 24, 4)
        data = train(corpus, None, config).to_bytes()
        mutated = bytearray(data)
        for i, original in enumerate(data):
            for byte in {0xFF, original ^ 0x01} - {original}:
                mutated[i] = byte
                with pytest.raises(DataError):
                    Checkpoint.from_bytes(bytes(mutated))
            mutated[i] = original

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, trained, value):
        ckpt = Checkpoint.from_bytes(trained[0].to_bytes())
        name, tensor = list(named_tensors(ckpt.params))[-1]
        tensor.value[0, -1] = value
        data = ckpt.to_bytes()  # sealed with a valid digest
        with pytest.raises(DataError, match=f"tensor {name}: non-finite"):
            Checkpoint.from_bytes(data)

    def test_version_1_rejected(self, trained):
        data = trained[0].to_bytes()
        v1 = data[:4] + struct.pack("<I", 1) + data[8:]
        with pytest.raises(DataError, match="unsupported checkpoint version 1"):
            Checkpoint.from_bytes(v1)

    def test_word_with_separator_characters_round_trips(self):
        # str.splitlines() splits on each of these; the word-list codec must not.
        config = tiny_config(epochs=1)
        corpus, _ = make_synthetic_corpus(5, 24, 4)
        odd = ("山\x0c", "水\x85", "天\u2028", "地\x1c", "人\x0b")
        extra = tuple(RawSentence(("之", w, "也"), era) for era in (0, 1) for w in odd)
        ckpt = train(RawCorpus(corpus.sentences + extra, "odd"), None, config)
        assert all(w in lex.word_ids for lex in ckpt.lexicons for w in odd)
        loaded = Checkpoint.from_bytes(ckpt.to_bytes())
        assert [l.id_to_word for l in loaded.lexicons] == [l.id_to_word for l in ckpt.lexicons]
        assert loaded.train_words == ckpt.train_words

    @settings(max_examples=60, deadline=None)
    @given(st.sets(CODEC_WORDS, min_size=1, max_size=12), st.sets(CODEC_WORDS, min_size=1, max_size=12))
    def test_any_codec_word_sets_round_trip(self, words0, words1):
        lexicons = (EraLexicon.from_words(0, words0), EraLexicon.from_words(1, words1))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "era0.dict"
            lexicons[0].save(path)
            assert load_lexicon(path, era_id=0).id_to_word == tuple(sorted(words0))
        config = tiny_config(d_e=2, d_a=2)
        vocab = Vocab("山水")
        params = init_model_params(
            config, len(vocab), [len(l) for l in lexicons], np.random.default_rng(0)
        )
        train_words = (frozenset(words1), frozenset(words0))
        ckpt = Checkpoint(config, vocab, lexicons, train_words, params, 1, None)
        loaded = Checkpoint.from_bytes(ckpt.to_bytes())
        assert [l.id_to_word for l in loaded.lexicons] == [tuple(sorted(words0)), tuple(sorted(words1))]
        assert loaded.train_words == train_words

    def test_training_word_with_newline_rejected(self):
        corpus, _ = make_synthetic_corpus(5, 8, 2)
        bad = RawCorpus(corpus.sentences + (RawSentence(("山水火木金土\n",), 1),), "bad")
        with pytest.raises(DataError, match="era 1 training words"):
            train(bad, None, tiny_config(epochs=1))

    def test_best_epoch_recorded(self, trained):
        ckpt, stats = trained
        dev_scores = [s.dev_f1 for s in stats]
        assert ckpt.dev_f1 == max(dev_scores)
        assert ckpt.epoch == dev_scores.index(max(dev_scores)) + 1


class TestSegment:
    def test_single_character(self, trained):
        ckpt, _ = trained
        result = segment("山", ckpt)
        assert result.words == ("山",)
        assert 0 <= result.era < ckpt.config.eras

    def test_empty_after_preprocessing_rejected(self, trained):
        ckpt, _ = trained
        with pytest.raises(DataError, match="empty"):
            segment("", ckpt)

    @pytest.mark.parametrize("text", ["\t", "   ", " \n\u3000"])
    def test_whitespace_only_rejected(self, trained, text):
        ckpt, _ = trained
        with pytest.raises(DataError, match="empty"):
            segment(text, ckpt)

    def test_surrounding_whitespace_stripped(self, trained):
        ckpt, _ = trained
        result = segment(" \t山水 之乎  ", ckpt)
        assert result == segment("山水 之乎", ckpt)
        assert result.words[0][0] == "山" and result.words[-1][-1] == "乎"

    def test_words_rejoin_to_input(self, trained):
        ckpt, _ = trained
        text = "之乎者也山水"
        result = segment(text, ckpt)
        assert "".join(result.words) == text

    def test_era_probs_is_distribution(self, trained):
        ckpt, _ = trained
        result = segment("山水火", ckpt)
        assert len(result.era_probs) == ckpt.config.eras
        assert abs(sum(result.era_probs) - 1.0) < 1e-12


class TestBestEpochSnapshot:
    def test_checkpoint_reproduces_dev_f1(self):
        # The kept epoch precedes the last one and scores higher, so the
        # checkpoint must carry that epoch's parameters, not the final ones.
        config = tiny_config(epochs=3, lr=0.03)
        corpus, _ = make_synthetic_corpus(11, 40, 4)
        train_part, dev_part = split_corpus(corpus, 0.2, seed=1)
        stats: list[EpochStats] = []
        ckpt = train(train_part, dev_part, config, on_epoch=stats.append)
        assert ckpt.epoch < config.epochs
        assert stats[-1].dev_f1 < ckpt.dev_f1
        gold = [s.words for s in dev_part.sentences]
        pred = [segment("".join(words), ckpt).words for words in gold]
        assert score_segmentation(gold, pred).f1 == ckpt.dev_f1

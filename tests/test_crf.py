import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eraseg import autodiff as ad
from eraseg.autodiff import Tensor
from eraseg.crf import (
    N_LABELS,
    START,
    CrfParams,
    emissions,
    init_crf_params,
    log_partition,
    nll,
    path_counts,
    viterbi,
)

from _oracles import (
    brute_log_partition,
    brute_marginals,
    brute_nll,
    brute_transition_marginals,
    brute_viterbi,
    forward_log_partition,
    path_score,
    total_probability,
)

RNG = np.random.default_rng(20240812)


def random_instance(t_len, spread=2.0):
    emit = RNG.normal(size=(t_len, N_LABELS)) * spread
    trans = RNG.normal(size=(N_LABELS + 1, N_LABELS)) * spread
    return emit, trans


class TestEmissions:
    def test_zero_weights_return_bias(self):
        params = CrfParams(
            weight=Tensor(np.zeros((3, 4))),
            bias=Tensor([[1.0, 2.0, 3.0, 4.0]]),
            transitions=Tensor(np.zeros((5, 4))),
        )
        out = emissions(Tensor(RNG.normal(size=(6, 3))), params)
        assert out.shape == (6, 4)
        np.testing.assert_array_equal(out.value, np.tile([1.0, 2.0, 3.0, 4.0], (6, 1)))

    def test_zero_input_returns_bias(self):
        params = init_crf_params(RNG, d_a=5)
        out = emissions(Tensor(np.zeros((2, 5))), params)
        np.testing.assert_allclose(out.value, np.tile(params.bias.value, (2, 1)))


class TestLogPartition:
    def test_t1_all_zero_is_log4(self):
        z = log_partition(Tensor(np.zeros((1, 4))), Tensor(np.zeros((5, 4))))
        np.testing.assert_allclose(z.value, [[math.log(4.0)]], atol=1e-12)

    def test_t2_all_zero_is_log16(self):
        z = log_partition(Tensor(np.zeros((2, 4))), Tensor(np.zeros((5, 4))))
        np.testing.assert_allclose(z.value, [[math.log(16.0)]], atol=1e-12)

    @pytest.mark.parametrize("t_len", [1, 2, 3, 5])
    def test_matches_enumeration(self, t_len):
        for _ in range(20):
            emit, trans = random_instance(t_len)
            got = log_partition(Tensor(emit), Tensor(trans)).value[0, 0]
            assert abs(got - brute_log_partition(emit, trans)) < 1e-9

    def test_column_uniform_shift_moves_logz_by_t_times_c(self):
        emit, trans = random_instance(4)
        c = 3.7
        z0 = log_partition(Tensor(emit), Tensor(trans)).value[0, 0]
        z1 = log_partition(Tensor(emit + c), Tensor(trans)).value[0, 0]
        assert abs(z1 - (z0 + 4 * c)) < 1e-9

    def test_probabilities_sum_to_one(self):
        emit, trans = random_instance(4)
        assert abs(total_probability(emit, trans) - 1.0) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(t_len=st.integers(1, 6), spread=st.sampled_from([0.5, 2.0, 5.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_gradients_are_enumerated_marginals(self, t_len, spread, seed):
        rng = np.random.default_rng(seed)
        emit = rng.normal(size=(t_len, N_LABELS)) * spread
        trans = rng.normal(size=(N_LABELS + 1, N_LABELS)) * spread
        emit_t, trans_t = Tensor(emit), Tensor(trans)
        log_partition(emit_t, trans_t).backward()
        np.testing.assert_allclose(emit_t.grad, brute_marginals(emit, trans), rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            trans_t.grad, brute_transition_marginals(emit, trans), rtol=0, atol=1e-9
        )

    def test_long_inputs_stay_finite_and_normalized(self):
        for t_len in (126, 250):
            emit, trans = random_instance(t_len, spread=100.0)
            emit_t, trans_t = Tensor(emit), Tensor(trans)
            z = log_partition(emit_t, trans_t)
            got, want = z.value[0, 0], forward_log_partition(emit, trans)
            assert math.isfinite(got)
            assert abs(got - want) <= 1e-9 * abs(want)
            z.backward()
            np.testing.assert_allclose(emit_t.grad.sum(axis=1), np.ones(t_len), atol=1e-9)
            assert abs(trans_t.grad[:N_LABELS].sum() - (t_len - 1)) < 1e-9 * t_len
            assert abs(trans_t.grad[START].sum() - 1.0) < 1e-9


def counted_score(emit, trans, tags):
    """The path score as path_counts defines it: counts times scores."""
    on_path, steps = path_counts(tags, len(emit))
    return (emit * on_path).sum() + (trans * steps).sum()


class TestSequenceScore:
    """The gold path's score, which nll subtracts from log Z, via path_counts."""

    def test_matches_enumeration_entry(self):
        emit, trans = random_instance(3)
        tags = [2, 0, 3]
        got = counted_score(emit, trans, tags)
        want = trans[START, 2] + emit[0, 2] + trans[2, 0] + emit[1, 0] + trans[0, 3] + emit[2, 3]
        assert abs(got - want) < 1e-12
        log_z = log_partition(Tensor(emit), Tensor(trans)).value[0, 0]
        assert abs(log_z - nll(Tensor(emit), Tensor(trans), tags).value[0, 0] - want) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(tags=st.lists(st.integers(0, N_LABELS - 1), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_left_to_right_sum(self, tags, seed):
        rng = np.random.default_rng(seed)
        emit = rng.normal(size=(len(tags), N_LABELS)) * 3.0
        trans = rng.normal(size=(N_LABELS + 1, N_LABELS)) * 3.0
        assert abs(counted_score(emit, trans, tags) - path_score(emit, trans, tags)) < 1e-12
        # The score is linear: each entry's gradient counts its uses on the path.
        want_emit, want_trans = np.zeros_like(emit), np.zeros_like(trans)
        prev = START
        for t, y in enumerate(tags):
            want_emit[t, y] += 1.0
            want_trans[prev, y] += 1.0
            prev = y
        on_path, steps = path_counts(tags, len(tags))
        np.testing.assert_array_equal(on_path, want_emit)
        np.testing.assert_array_equal(steps, want_trans)

    def test_rejects_bad_tags(self):
        emit, trans = random_instance(2)
        with pytest.raises(ValueError, match="tag index"):
            path_counts([0, 4], 2)
        with pytest.raises(ValueError, match="2 tags for 3"):
            path_counts([0, 1], 3)
        with pytest.raises(ValueError, match="tag index"):
            nll(Tensor(emit), Tensor(trans), [0, 4])
        with pytest.raises(ValueError, match="2 tags for 3"):
            nll(Tensor(np.zeros((3, 4))), Tensor(trans), [0, 1])


class TestNll:
    def test_t1_zero_scores_log4(self):
        loss = nll(Tensor(np.zeros((1, 4))), Tensor(np.zeros((5, 4))), [2])
        np.testing.assert_allclose(loss.value, [[math.log(4.0)]], atol=1e-12)

    def test_matches_brute_force(self):
        for t_len in (1, 3, 5):
            emit, trans = random_instance(t_len)
            tags = list(RNG.integers(0, 4, size=t_len))
            got = nll(Tensor(emit), Tensor(trans), tags).value[0, 0]
            assert abs(got - brute_nll(emit, trans, tags)) < 1e-9

    def test_nonnegative(self):
        for _ in range(20):
            emit, trans = random_instance(4)
            tags = list(RNG.integers(0, 4, size=4))
            assert nll(Tensor(emit), Tensor(trans), tags).value[0, 0] >= 0.0

    def test_raising_gold_emission_decreases_loss(self):
        emit, trans = random_instance(3)
        tags = [1, 2, 0]
        before = nll(Tensor(emit), Tensor(trans), tags).value[0, 0]
        boosted = emit.copy()
        for t, y in enumerate(tags):
            boosted[t, y] += 10.0
        after = nll(Tensor(boosted), Tensor(trans), tags).value[0, 0]
        assert after < before

    def test_emission_gradient_is_marginals_minus_indicator(self):
        emit, trans = random_instance(4)
        tags = [0, 3, 1, 2]
        emit_t, trans_t = Tensor(emit), Tensor(trans)
        nll(emit_t, trans_t, tags).backward()
        want = brute_marginals(emit, trans)
        for t, y in enumerate(tags):
            want[t, y] -= 1.0
        np.testing.assert_allclose(emit_t.grad, want, atol=1e-9)

    def test_gradient_passes_finite_differences(self):
        emit, trans = random_instance(3)
        emit_t, trans_t = Tensor(emit), Tensor(trans)
        tags = [3, 0, 2]
        err = ad.grad_check(lambda: nll(emit_t, trans_t, tags), [emit_t, trans_t])
        assert err < 1e-4


class TestPackedNll:
    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(st.integers(1, 6), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_and_gradients_match_each_sentence(self, lengths, seed):
        # Each sentence's loss gets its own weight, so a gradient that mixed
        # sentences up would show.
        rng = np.random.default_rng(seed)
        emit = rng.normal(size=(sum(lengths), N_LABELS)) * 2.0
        trans = rng.normal(size=(N_LABELS + 1, N_LABELS)) * 2.0
        tags = list(rng.integers(0, N_LABELS, size=sum(lengths)))
        weights = rng.normal(size=(len(lengths), 1))
        emit_t, trans_t = Tensor(emit), Tensor(trans)
        packed = nll(emit_t, trans_t, tags, lengths)
        ad.sum_all(ad.mul(packed, Tensor(weights))).backward()

        want_emit, want_trans = np.zeros_like(emit), np.zeros_like(trans)
        start = 0
        for b, n in enumerate(lengths):
            rows = slice(start, start + n)
            one_emit, one_trans = Tensor(emit[rows]), Tensor(trans)
            one = nll(one_emit, one_trans, tags[rows])
            assert abs(packed.value[b, 0] - one.value[0, 0]) < 1e-12 * max(1.0, one.value[0, 0])
            ad.scale(one, weights[b, 0]).backward()
            want_emit[rows] = one_emit.grad
            want_trans += one_trans.grad
            start += n
        np.testing.assert_allclose(emit_t.grad, want_emit, rtol=0, atol=1e-10)
        np.testing.assert_allclose(trans_t.grad, want_trans, rtol=0, atol=1e-10)

    def test_lengths_must_pack_the_rows(self):
        emit, trans = random_instance(4)
        for lengths in ([3], [2, 0, 2], []):
            with pytest.raises(ValueError, match="do not pack"):
                nll(Tensor(emit), Tensor(trans), [0, 1, 2, 3], lengths)


class TestViterbi:
    def test_emissions_favoring_s_give_all_s(self):
        emit = np.zeros((4, 4))
        emit[:, 3] = 5.0
        tags, _ = viterbi(emit, np.zeros((5, 4)))
        assert tags == [3, 3, 3, 3]

    def test_all_equal_scores_give_all_first_label(self):
        tags, score = viterbi(np.zeros((3, 4)), np.zeros((5, 4)))
        assert tags == [0, 0, 0]
        assert score == 0.0

    def test_matches_enumeration(self):
        for t_len in (1, 2, 3, 5):
            for _ in range(20):
                emit, trans = random_instance(t_len)
                tags, score = viterbi(emit, trans)
                want_tags, want_score = brute_viterbi(emit, trans)
                assert tags == want_tags
                assert abs(score - want_score) < 1e-9

    def test_tie_broken_at_earliest_position(self):
        # Two optimal paths [0, 3] and [1, 2]; left-to-right backpointer
        # decoding picks [1, 2] because its final-state tie resolves first.
        trans = np.full((5, 4), -100.0)
        trans[START] = 0.0
        trans[0, 3] = 0.0
        trans[1, 2] = 0.0
        tags, score = viterbi(np.zeros((2, 4)), trans)
        assert tags == [0, 3]
        assert score == 0.0

    def test_integer_scores_tie_exactly_like_enumeration(self):
        # Small integer scores make ties common; both sides stay exact.
        for _ in range(50):
            emit = RNG.integers(0, 2, size=(4, 4)).astype(float)
            trans = RNG.integers(0, 2, size=(5, 4)).astype(float)
            tags, score = viterbi(emit, trans)
            want_tags, want_score = brute_viterbi(emit, trans)
            assert tags == want_tags
            assert score == want_score

    def test_score_bounds_any_gold(self):
        emit, trans = random_instance(4)
        _, best = viterbi(emit, trans)
        for _ in range(10):
            tags = list(RNG.integers(0, 4, size=4))
            gold = path_score(emit, trans, tags)
            assert best >= gold - 1e-12

    def test_column_shift_keeps_argmax(self):
        emit, trans = random_instance(5)
        tags0, _ = viterbi(emit, trans)
        tags1, _ = viterbi(emit + 7.5, trans)
        assert tags0 == tags1

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="emissions"):
            viterbi(np.zeros((3, 5)), np.zeros((5, 4)))
        with pytest.raises(ValueError, match="transitions"):
            viterbi(np.zeros((3, 4)), np.zeros((4, 4)))

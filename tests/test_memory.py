import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eraseg import autodiff as ad
from eraseg.autodiff import Tensor, named_tensors
from eraseg.lexicon import V_B, V_E, V_S, Candidate
from eraseg.memory import attend, init_memory_params, read_cell

from _oracles import read_cell_per_position

RNG = np.random.default_rng(20240813)


def random_setup(n_words=6, d_a=4, m=3, t_len=1):
    """States, m random candidates at every one of t_len positions, keys, values."""
    keys = Tensor(RNG.normal(size=(n_words, d_a)))
    values = Tensor(RNG.normal(size=(4, d_a)))
    states = Tensor(RNG.normal(size=(t_len, d_a)))
    cands = [
        [Candidate(int(RNG.integers(0, n_words)), int(RNG.integers(0, 4))) for _ in range(m)]
        for _ in range(t_len)
    ]
    return states, cands, keys, values


def ragged_sentence(n_words=5, d_a=3):
    """Positions with no, one, several and duplicate-word candidates."""
    cands = [
        [Candidate(2, V_B), Candidate(4, V_S)],
        [],
        [Candidate(1, V_E), Candidate(1, V_B), Candidate(3, V_S)],
        [Candidate(0, V_S)],
        [],
    ]
    keys = Tensor(RNG.normal(size=(n_words, d_a)))
    values = Tensor(RNG.normal(size=(4, d_a)))
    states = Tensor(RNG.normal(size=(len(cands), d_a)))
    return states, cands, keys, values


class TestInit:
    def test_shapes_per_era(self):
        p = init_memory_params(np.random.default_rng(0), [5, 9], d_a=6)
        assert len(p.keys) == 2
        assert p.keys[0].shape == (5, 6)
        assert p.keys[1].shape == (9, 6)
        assert p.values.shape == (4, 6)

    def test_empty_lexicon_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            init_memory_params(np.random.default_rng(0), [5, 0], d_a=6)

    def test_names_unique(self):
        p = init_memory_params(np.random.default_rng(0), [3, 3, 3], d_a=4)
        names = [n for n, _ in named_tensors(p)]
        assert len(names) == len(set(names)) == 4


class TestAttend:
    def test_equal_keys_split_evenly(self):
        keys = Tensor(np.tile([1.0, 0.0], (2, 1)))
        h = Tensor([[3.0, -1.0]])
        p = attend(h, [[Candidate(0, V_S), Candidate(1, V_S)]], keys)
        np.testing.assert_allclose(p, [[0.5, 0.5]], atol=1e-12)

    def test_analytic_two_key_case(self):
        # Dot products 0 and ln 3 give probabilities 1/4 and 3/4.
        keys = Tensor([[0.0, 0.0], [math.log(3.0), 0.0]])
        h = Tensor([[1.0, 0.0]])
        p = attend(h, [[Candidate(0, V_S), Candidate(1, V_S)]], keys)
        np.testing.assert_allclose(p, [[0.25, 0.75]], atol=1e-12)

    def test_single_candidate_gets_everything(self):
        h, _, keys, _ = random_setup()
        p = attend(h, [[Candidate(2, V_B)]], keys)
        np.testing.assert_allclose(p, [[1.0]], atol=1e-15)

    def test_sums_to_one(self):
        for _ in range(10):
            states, cands, keys, _ = random_setup(m=4, t_len=3)
            p = attend(states, cands, keys)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_position_without_candidates_gets_zero_row(self):
        states, cands, keys, _ = ragged_sentence()
        p = attend(states, cands, keys)
        assert p.shape == (5, 3)  # padded to the longest candidate list
        np.testing.assert_array_equal(p[[1, 4]], 0.0)
        np.testing.assert_allclose(p[[0, 2, 3]].sum(axis=1), 1.0, atol=1e-12)
        # padded slots carry no weight
        assert p[0, 2] == p[3, 1] == p[3, 2] == 0.0

    def test_sentence_without_candidates_has_no_columns(self):
        states, _, keys, _ = random_setup(t_len=3)
        assert attend(states, [[], [], []], keys).shape == (3, 0)


class TestAggregate:
    """The weighted sum of value rows that follows attention in read_cell."""

    def test_single_candidate_returns_its_value_row(self):
        h, _, keys, values = random_setup()
        out = read_cell(h, [[Candidate(3, V_S)]], keys, values)
        np.testing.assert_array_equal(out.value, values.value[V_S : V_S + 1, :])

    def test_two_class_weighted_sum(self):
        # Keys with dot products 0 and ln 3 give weights 1/4 and 3/4.
        keys = Tensor([[0.0, 0.0], [math.log(3.0), 0.0]])
        h = Tensor([[1.0, 0.0]])
        _, _, _, values = random_setup(d_a=2)
        out = read_cell(h, [[Candidate(0, V_B), Candidate(1, V_E)]], keys, values)
        want = 0.25 * values.value[V_B] + 0.75 * values.value[V_E]
        np.testing.assert_allclose(out.value[0], want, atol=1e-12)

    def test_empty_candidates_give_zero_vector(self):
        states, _, keys, values = random_setup(d_a=5, t_len=2)
        out = read_cell(states, [[], []], keys, values)
        np.testing.assert_array_equal(out.value, np.zeros((2, 5)))

    def test_state_count_mismatch_rejected(self):
        states, cands, keys, values = random_setup(t_len=2)
        with pytest.raises(ValueError, match="2 states but candidates for 1 positions"):
            read_cell(states, cands[:1], keys, values)

    def test_matches_loop_oracle(self):
        for _ in range(20):
            states, cands, keys, values = random_setup(m=4, t_len=3)
            out = read_cell(states, cands, keys, values)
            want = read_cell_per_position(states.value, cands, keys.value, values.value)
            np.testing.assert_allclose(out.value, want, rtol=0.0, atol=1e-12)

    def test_output_in_convex_hull_of_used_values(self):
        for _ in range(20):
            states, cands, keys, values = random_setup(m=5, t_len=3)
            out = read_cell(states, cands, keys, values).value
            for row, row_cands in zip(out, cands):
                used = values.value[[c.value_class for c in row_cands], :]
                assert np.all(row >= used.min(axis=0) - 1e-12)
                assert np.all(row <= used.max(axis=0) + 1e-12)


candidate_lists = st.lists(
    st.lists(st.builds(Candidate, st.integers(0, 5), st.integers(0, 3)), max_size=6),
    min_size=1,
    max_size=8,
)
# ragged lists, plus sentences in which no position has a candidate
ragged_lists = st.one_of(candidate_lists, st.integers(1, 5).map(lambda n: [[]] * n))


class TestReadCell:
    def test_empty_set_is_zero_vector(self):
        states, cands, keys, values = ragged_sentence(d_a=4)
        out = read_cell(states, cands, keys, values).value
        np.testing.assert_array_equal(out[[1, 4]], np.zeros((2, 4)))

    @settings(max_examples=200, deadline=None)
    @given(cands=candidate_lists, seed=st.integers(0, 2**32 - 1))
    def test_sentence_read_matches_per_position_oracle(self, cands, seed):
        # Positions without candidates, sentences without any, and the
        # same word id several times at one position all occur here.
        rng = np.random.default_rng(seed)
        states = rng.normal(size=(len(cands), 4)) * 3.0
        keys, values = rng.normal(size=(6, 4)), rng.normal(size=(4, 4))
        out = read_cell(Tensor(states), cands, Tensor(keys), Tensor(values)).value
        want = read_cell_per_position(states, cands, keys, values)
        np.testing.assert_allclose(out, want, rtol=0.0, atol=1e-12)

    def test_gradients_reach_keys_values_and_state(self):
        states, cands, keys, values = ragged_sentence()
        w = Tensor(RNG.normal(size=states.shape))

        def build():
            return ad.sum_all(ad.mul(read_cell(states, cands, keys, values), w))

        assert ad.grad_check(build, [states, keys, values]) < 1e-4
        # a position with no candidates passes no gradient to its state
        np.testing.assert_array_equal(states.grad[[1, 4]], 0.0)

    @settings(max_examples=100, deadline=None)
    @given(cands=ragged_lists, seed=st.integers(0, 2**32 - 1))
    def test_gradients_match_finite_differences(self, cands, seed):
        rng = np.random.default_rng(seed)
        states = Tensor(rng.normal(size=(len(cands), 3)))
        keys, values = Tensor(rng.normal(size=(6, 3))), Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=states.shape))

        def build():
            return ad.sum_all(ad.mul(read_cell(states, cands, keys, values), w))

        assert ad.grad_check(build, [states, keys, values]) < 1e-6

    def test_large_scores_stay_finite(self):
        states, cands, keys, values = ragged_sentence(d_a=4)
        states.value *= 100.0
        keys.value *= 100.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow in exp, 0/0, inf - inf
            p = attend(states, cands, keys)
            out = read_cell(states, cands, keys, values)
            ad.sum_all(out).backward()
        assert np.isfinite(out.value).all()
        np.testing.assert_allclose(p[[0, 2, 3]].sum(axis=1), 1.0, atol=1e-12)
        for t in (states, keys, values):
            assert np.isfinite(t.grad).all()

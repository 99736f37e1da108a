import numpy as np
import pytest

from eraseg import autodiff as ad
from eraseg.autodiff import Tensor
from eraseg.encoder import GruCell, encode, init_encoder_params


def params(seed=3, vocab=7, d_e=5, d_a=6):
    return init_encoder_params(np.random.default_rng(seed), vocab, d_e, d_a)


def all_tensors(p):
    return [t for _, t in p.named_tensors()]


class TestInit:
    def test_shapes(self):
        p = params(vocab=7, d_e=5, d_a=6)
        assert p.embeddings.shape == (7, 5)
        assert p.fwd.w_gates.shape == (5, 6)
        assert p.fwd.u_cand.shape == (3, 3)
        assert p.bwd.u_cand.shape == (3, 3)  # d_a = 6 split across the directions

    def test_values_inside_init_range(self):
        for _, t in params().named_tensors():
            assert np.all(np.abs(t.value) <= 0.1)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError, match="even"):
            init_encoder_params(np.random.default_rng(0), 7, 5, 7)

    def test_same_seed_same_values(self):
        a, b = params(seed=11), params(seed=11)
        for (_, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
            np.testing.assert_array_equal(ta.value, tb.value)

    def test_names_unique(self):
        names = [n for n, _ in params().named_tensors()]
        assert len(names) == len(set(names))


class TestEncode:
    def test_output_shapes(self):
        p = params(d_a=6)
        h_sent, states = encode([2, 3, 4, 5], p)
        assert h_sent.shape == (1, 6)
        assert states.shape == (3, 6)

    def test_sentinel_only_rejected(self):
        with pytest.raises(ValueError, match="empty sentence"):
            encode([2], params())

    def test_deterministic_given_params(self):
        p = params()
        a, _ = encode([2, 3, 4], p)
        b, _ = encode([2, 3, 4], p)
        np.testing.assert_array_equal(a.value, b.value)

    def test_permuting_characters_changes_states(self):
        p = params()
        _, states_ab = encode([2, 3, 4], p)
        _, states_ba = encode([2, 4, 3], p)
        assert np.abs(states_ab.value - states_ba.value).max() > 1e-8

    def test_context_flows_both_directions(self):
        # Changing the last character must reach the first position's state
        # (backward direction) and vice versa (forward direction).
        p = params()
        _, s1 = encode([2, 3, 4, 5], p)
        _, s2 = encode([2, 3, 4, 6], p)
        assert np.abs(s1.value[0] - s2.value[0]).max() > 1e-10
        _, s3 = encode([2, 6, 4, 5], p)
        assert np.abs(s1.value[-1] - s3.value[-1]).max() > 1e-10

    def test_sentence_vector_depends_on_whole_sentence(self):
        p = params()
        base, _ = encode([2, 3, 4, 5], p)
        for mutated in ([2, 6, 4, 5], [2, 3, 6, 5], [2, 3, 4, 6]):
            other, _ = encode(mutated, p)
            assert np.abs(base.value - other.value).max() > 1e-10


class TestGradients:
    def test_gru_step_grad_check(self):
        rng = np.random.default_rng(5)
        cell = GruCell.create(rng, d_in=4, k=3)
        x = Tensor(rng.normal(size=(1, 4)))
        h = Tensor(rng.normal(size=(1, 3)))
        w = Tensor(rng.normal(size=(1, 3)))
        leaves = [x, h] + [t for _, t in cell.named_tensors("c")]
        err = ad.grad_check(lambda: ad.sum_all(ad.mul(cell.step(x, h), w)), leaves)
        assert err < 1e-4

    def test_full_encoder_grad_check(self):
        p = params(vocab=6, d_e=3, d_a=4)
        rng = np.random.default_rng(9)
        w_sent = Tensor(rng.normal(size=(1, 4)))
        w_char = Tensor(rng.normal(size=(2, 4)))

        def build():
            h_sent, states = encode([2, 3, 4], p)
            return ad.add(ad.sum_all(ad.mul(h_sent, w_sent)), ad.sum_all(ad.mul(states, w_char)))

        assert ad.grad_check(build, all_tensors(p)) < 1e-4

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import gru_per_step

from eraseg import autodiff as ad
from eraseg.autodiff import Tensor, named_tensors
from eraseg.config import Config
from eraseg.encoder import GruCell, encode, init_encoder_params, run_gru


def params(seed=3, vocab=7, d_e=5, d_a=6):
    return init_encoder_params(np.random.default_rng(seed), vocab, d_e, d_a)


def all_tensors(p):
    return [t for _, t in named_tensors(p)]


class TestInit:
    def test_shapes(self):
        p = params(vocab=7, d_e=5, d_a=6)
        assert p.embeddings.shape == (7, 5)
        assert p.fwd.w_gates.shape == (5, 6)
        assert p.fwd.u_cand.shape == (3, 3)
        assert p.bwd.u_cand.shape == (3, 3)  # d_a = 6 split across the directions

    def test_values_inside_init_range(self):
        for _, t in named_tensors(params()):
            assert np.all(np.abs(t.value) <= 0.1)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError, match="even"):
            init_encoder_params(np.random.default_rng(0), 7, 5, 7)

    def test_same_seed_same_values(self):
        a, b = params(seed=11), params(seed=11)
        for (_, ta), (_, tb) in zip(named_tensors(a), named_tensors(b)):
            np.testing.assert_array_equal(ta.value, tb.value)

    def test_names_unique(self):
        names = [n for n, _ in named_tensors(params())]
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
    def test_run_gru_grad_check(self):
        rng = np.random.default_rng(5)
        cell = GruCell.create(rng, d_in=4, k=3)
        x = Tensor(rng.normal(size=(5, 4)))
        w = Tensor(rng.normal(size=(5, 3)))
        leaves = [x] + [t for _, t in named_tensors(cell, "c")]
        for reverse in (False, True):
            err = ad.grad_check(lambda: ad.sum_all(ad.mul(run_gru(x, cell, reverse), w)), leaves)
            assert err < 1e-4, f"reverse={reverse}: worst relative error {err:.3e}"

    def test_full_encoder_grad_check(self):
        p = params(vocab=6, d_e=3, d_a=4)
        rng = np.random.default_rng(9)
        w_sent = Tensor(rng.normal(size=(1, 4)))
        w_char = Tensor(rng.normal(size=(2, 4)))

        def build():
            h_sent, states = encode([2, 3, 4], p)
            return ad.add(ad.sum_all(ad.mul(h_sent, w_sent)), ad.sum_all(ad.mul(states, w_char)))

        assert ad.grad_check(build, all_tensors(p)) < 1e-4


class TestRunGru:
    """run_gru against the per-position oracle: states and all seven gradients."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, Config.max_len + 1),
        d_in=st.integers(1, 4),
        k=st.integers(1, 3),
        reverse=st.booleans(),
        # Weights much past 2 let the recurrence amplify gradients, and their
        # rounding, by up to 1e9 over 127 steps; the old per-step graph then
        # differs from this oracle as much as run_gru does.
        scale=st.sampled_from([0.1, 1.0, 2.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_step_oracle(self, n, d_in, k, reverse, scale, seed):
        rng = np.random.default_rng(seed)
        cell = GruCell(*(Tensor(rng.normal(size=t.shape) * scale)
                         for _, t in named_tensors(GruCell.create(rng, d_in, k))))
        params = [t for _, t in named_tensors(cell)]
        x = Tensor(rng.normal(size=(n, d_in)))
        g_out = rng.normal(size=(n, k))
        out = run_gru(x, cell, reverse)
        ad.sum_all(ad.mul(out, Tensor(g_out))).backward()

        want, want_grads = gru_per_step(
            x.value, *(t.value for t in params), reverse=reverse, g_out=g_out
        )
        np.testing.assert_allclose(out.value, want, rtol=0, atol=1e-12)
        for name, got, ref in zip(
            ["x"] + [f.name for f in fields(GruCell)], [x.grad] + [t.grad for t in params], want_grads
        ):
            tol = 1e-10 * max(1.0, np.abs(ref).max())
            np.testing.assert_allclose(got, ref, rtol=0, atol=tol, err_msg=name)

    def test_zero_state_start_per_direction(self):
        # One row: each direction reads it from a zero state, so both agree
        # with one oracle step.
        rng = np.random.default_rng(8)
        cell = GruCell.create(rng, d_in=3, k=2)
        x = rng.normal(size=(1, 3))
        want = gru_per_step(x, *(t.value for _, t in named_tensors(cell)))
        for reverse in (False, True):
            np.testing.assert_allclose(run_gru(Tensor(x), cell, reverse).value, want, atol=1e-15)

    def test_saturated_gates_stay_finite(self):
        # Inputs far past exp()'s range: the gates saturate at 0 and 1 with
        # no overflow warning (the suite turns one into an error).
        rng = np.random.default_rng(6)
        cell = GruCell.create(rng, d_in=3, k=2)
        x = Tensor(rng.normal(size=(6, 3)) * 1e4)
        out = run_gru(x, cell)
        ad.sum_all(out).backward()
        assert np.all(np.abs(out.value) <= 1.0)
        assert all(np.isfinite(t.grad).all() for _, t in named_tensors(cell))

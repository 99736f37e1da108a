from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import gru_per_step

from eraseg import autodiff as ad
from eraseg.autodiff import Tensor, named_tensors
from eraseg.config import Config
from eraseg.encoder import GruCell, encode, init_encoder_params, run_bigru


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
        h_sent, states = encode([[2, 3, 4, 5]], p)
        assert h_sent.shape == (1, 6)
        assert states.shape == (3, 6)

    def test_sentinel_only_rejected(self):
        with pytest.raises(ValueError, match="empty sentence"):
            encode([[2]], params())

    def test_deterministic_given_params(self):
        p = params()
        a, _ = encode([[2, 3, 4]], p)
        b, _ = encode([[2, 3, 4]], p)
        np.testing.assert_array_equal(a.value, b.value)

    def test_permuting_characters_changes_states(self):
        p = params()
        _, states_ab = encode([[2, 3, 4]], p)
        _, states_ba = encode([[2, 4, 3]], p)
        assert np.abs(states_ab.value - states_ba.value).max() > 1e-8

    def test_context_flows_both_directions(self):
        # Changing the last character must reach the first position's state
        # (backward direction) and vice versa (forward direction).
        p = params()
        _, s1 = encode([[2, 3, 4, 5]], p)
        _, s2 = encode([[2, 3, 4, 6]], p)
        assert np.abs(s1.value[0] - s2.value[0]).max() > 1e-10
        _, s3 = encode([[2, 6, 4, 5]], p)
        assert np.abs(s1.value[-1] - s3.value[-1]).max() > 1e-10

    def test_batch_rows_equal_each_sentence_alone(self):
        p = params()
        sentences = [[2, 3, 4, 5], [2, 6], [2, 4, 4]]
        h_batch, s_batch = encode(sentences, p)
        alone = [encode([ids], p) for ids in sentences]
        np.testing.assert_allclose(h_batch.value, np.vstack([h.value for h, _ in alone]), atol=1e-15)
        np.testing.assert_allclose(s_batch.value, np.vstack([s.value for _, s in alone]), atol=1e-15)

    def test_sentence_vector_depends_on_whole_sentence(self):
        p = params()
        base, _ = encode([[2, 3, 4, 5]], p)
        for mutated in ([2, 6, 4, 5], [2, 3, 6, 5], [2, 3, 4, 6]):
            other, _ = encode([mutated], p)
            assert np.abs(base.value - other.value).max() > 1e-10


def random_cells(rng, d_in, k, scale=1.0):
    """Forward and reverse GruCells with normal weights times scale."""
    shapes = [t.shape for t in all_tensors(GruCell.create(rng, d_in, k))]
    return tuple(GruCell(*(Tensor(rng.normal(size=s) * scale) for s in shapes)) for _ in range(2))


class TestGradients:
    def test_run_bigru_grad_check(self):
        rng = np.random.default_rng(5)
        fwd, bwd = GruCell.create(rng, d_in=4, k=3), GruCell.create(rng, d_in=4, k=3)
        lengths = [3, 1, 2]
        x = Tensor(rng.normal(size=(6, 4)))
        w = Tensor(rng.normal(size=(6, 6)))
        leaves = [x] + all_tensors(fwd) + all_tensors(bwd)
        err = ad.grad_check(lambda: ad.sum_all(ad.mul(run_bigru(x, lengths, fwd, bwd), w)), leaves)
        assert err < 1e-4, f"worst relative error {err:.3e}"

    def test_full_encoder_grad_check(self):
        p = params(vocab=6, d_e=3, d_a=4)
        rng = np.random.default_rng(9)
        w_sent = Tensor(rng.normal(size=(2, 4)))
        w_char = Tensor(rng.normal(size=(3, 4)))

        def build():
            h_sent, states = encode([[2, 3, 4], [2, 5]], p)
            return ad.add(ad.sum_all(ad.mul(h_sent, w_sent)), ad.sum_all(ad.mul(states, w_char)))

        assert ad.grad_check(build, all_tensors(p)) < 1e-4


class TestRunBiGru:
    """run_bigru against the per-position oracle, sentence by sentence and
    direction by direction: states and all thirteen gradients."""

    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, Config.max_len + 1), min_size=1, max_size=4),
        d_in=st.integers(1, 4),
        k=st.integers(1, 3),
        # Weights much past 2 let the recurrence amplify gradients, and their
        # rounding, by up to 1e9 over 127 steps; a per-step graph then
        # differs from this oracle as much as run_bigru does.
        scale=st.sampled_from([0.1, 1.0, 2.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_step_oracle(self, lengths, d_in, k, scale, seed):
        rng = np.random.default_rng(seed)
        cells = random_cells(rng, d_in, k, scale)
        x = Tensor(rng.normal(size=(sum(lengths), d_in)))
        g_out = rng.normal(size=(sum(lengths), 2 * k))
        out = run_bigru(x, lengths, *cells)
        ad.sum_all(ad.mul(out, Tensor(g_out))).backward()

        want_x = np.zeros(x.shape)
        want_cells = [[np.zeros(t.shape) for t in all_tensors(c)] for c in cells]
        start = 0
        for n in lengths:
            rows = slice(start, start + n)
            for d, cell in enumerate(cells):
                cols = slice(d * k, (d + 1) * k)
                want, grads = gru_per_step(
                    x.value[rows], *(t.value for t in all_tensors(cell)),
                    reverse=d == 1, g_out=g_out[rows, cols],
                )
                np.testing.assert_allclose(out.value[rows, cols], want, rtol=0, atol=1e-12)
                want_x[rows] += grads[0]
                for acc, grad in zip(want_cells[d], grads[1:]):
                    acc += grad
            start += n
        names = [f.name for f in fields(GruCell)]
        checks = [("x", x.grad, want_x)] + [
            (f"{direction}.{name}", t.grad, ref)
            for direction, cell, refs in zip(("fwd", "bwd"), cells, want_cells)
            for name, t, ref in zip(names, all_tensors(cell), refs)
        ]
        for name, got, ref in checks:
            tol = 1e-10 * max(1.0, np.abs(ref).max())
            np.testing.assert_allclose(got, ref, rtol=0, atol=tol, err_msg=name)

    def test_zero_state_start_per_direction(self):
        # A one-row sentence beside a longer one: each direction reads it
        # from a zero state, so both halves agree with one oracle step.
        rng = np.random.default_rng(8)
        fwd, bwd = GruCell.create(rng, d_in=3, k=2), GruCell.create(rng, d_in=3, k=2)
        x = rng.normal(size=(4, 3))
        out = run_bigru(Tensor(x), [3, 1], fwd, bwd).value
        for d, cell in enumerate((fwd, bwd)):
            want = gru_per_step(x[3:], *(t.value for t in all_tensors(cell)))
            np.testing.assert_allclose(out[3:, 2 * d : 2 * d + 2], want, atol=1e-15)

    def test_saturated_gates_stay_finite(self):
        # Inputs far past exp()'s range: the gates saturate at 0 and 1 with
        # no overflow warning (the suite turns one into an error).
        rng = np.random.default_rng(6)
        fwd, bwd = GruCell.create(rng, d_in=3, k=2), GruCell.create(rng, d_in=3, k=2)
        x = Tensor(rng.normal(size=(6, 3)) * 1e4)
        out = run_bigru(x, [4, 2], fwd, bwd)
        ad.sum_all(out).backward()
        assert np.all(np.abs(out.value) <= 1.0)
        assert all(np.isfinite(t.grad).all() for t in all_tensors(fwd) + all_tensors(bwd))

    def test_lengths_must_pack_the_rows(self):
        rng = np.random.default_rng(2)
        fwd, bwd = GruCell.create(rng, d_in=3, k=2), GruCell.create(rng, d_in=3, k=2)
        x = Tensor(rng.normal(size=(4, 3)))
        for lengths in ([3], [2, 0, 2], []):
            with pytest.raises(ValueError, match="do not pack"):
                run_bigru(x, lengths, fwd, bwd)

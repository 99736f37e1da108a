import math

import numpy as np
import pytest

from eraseg import autodiff as ad
from eraseg.autodiff import Tensor, named_tensors
from eraseg.switcher import (
    DiscriminatorParams,
    FusionParams,
    classify_era,
    discriminator_nll,
    era_logits,
    fuse,
    fused_input_dim,
    init_discriminator_params,
    init_fusion_params,
    predicted_era,
    switch,
)

RNG = np.random.default_rng(20240814)


T_LEN = 5  # characters per sentence: cells and states are (T, d_a)


def cells(n, d_a=3):
    return [Tensor(RNG.normal(size=(T_LEN, d_a))) for _ in range(n)]


class TestClassifyEra:
    def test_zero_params_give_uniform(self):
        p = DiscriminatorParams(weight=Tensor(np.zeros((3, 4))), bias=Tensor(np.zeros((1, 4))))
        probs = classify_era(Tensor(RNG.normal(size=(1, 3))), p)
        np.testing.assert_allclose(probs.value, np.full((1, 4), 0.25), atol=1e-12)

    def test_analytic_two_era_case(self):
        p = DiscriminatorParams(
            weight=Tensor(np.zeros((2, 2))), bias=Tensor([[0.0, math.log(3.0)]])
        )
        probs = classify_era(Tensor([[5.0, -2.0]]), p)
        np.testing.assert_allclose(probs.value, [[0.25, 0.75]], atol=1e-12)

    def test_sums_to_one(self):
        p = init_discriminator_params(RNG, d_a=6, n_eras=4)
        probs = classify_era(Tensor(RNG.normal(size=(1, 6)) * 5), p)
        assert abs(probs.value.sum() - 1.0) < 1e-12

    def test_confident_correct_prediction_has_near_zero_loss(self):
        p = DiscriminatorParams(weight=Tensor(np.zeros((2, 2))), bias=Tensor([[50.0, 0.0]]))
        h = Tensor([[0.0, 0.0]])
        assert discriminator_nll(h, p, gold_era=0).value[0, 0] < 1e-12
        assert discriminator_nll(h, p, gold_era=1).value[0, 0] > 10.0

    def test_bad_era_id_rejected(self):
        p = init_discriminator_params(RNG, d_a=2, n_eras=2)
        with pytest.raises(ValueError, match="out of range"):
            discriminator_nll(Tensor(np.zeros((1, 2))), p, gold_era=2)

    def test_too_few_eras_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            init_discriminator_params(RNG, d_a=4, n_eras=1)


class TestSwitch:
    def test_soft_weighted_sum_four_cells(self):
        os = cells(4)
        probs = Tensor([[0.1, 0.2, 0.1, 0.6]])
        out = switch(os, probs, "soft")
        want = (
            0.1 * os[0].value + 0.2 * os[1].value + 0.1 * os[2].value + 0.6 * os[3].value
        )
        np.testing.assert_allclose(out.value, want, atol=1e-12)

    def test_one_hot_soft_equals_hard(self):
        for _ in range(10):
            os = cells(4)
            hot = int(RNG.integers(0, 4))
            probs_row = np.zeros((1, 4))
            probs_row[0, hot] = 1.0
            probs = Tensor(probs_row)
            soft = switch(os, probs, "soft")
            hard = switch(os, probs, "hard")
            np.testing.assert_allclose(soft.value, hard.value, atol=1e-12)

    def test_uniform_probs_identical_cells_reproduce_cell(self):
        base = Tensor(RNG.normal(size=(T_LEN, 3)))
        os = [Tensor(base.value.copy()) for _ in range(4)]
        out = switch(os, Tensor(np.full((1, 4), 0.25)), "soft")
        np.testing.assert_allclose(out.value, base.value, atol=1e-12)

    def test_hard_inference_uses_argmax(self):
        os = cells(3)
        out = switch(os, Tensor([[0.2, 0.5, 0.3]]), "hard")
        np.testing.assert_array_equal(out.value, os[1].value)

    def test_hard_tie_takes_lowest_index(self):
        os = cells(3)
        out = switch(os, Tensor([[0.4, 0.4, 0.2]]), "hard")
        np.testing.assert_array_equal(out.value, os[0].value)
        assert predicted_era(Tensor([[0.4, 0.4, 0.2]])) == 0

    def test_hard_training_routes_gold_era(self):
        os = cells(3)
        out = switch(os, Tensor([[0.9, 0.05, 0.05]]), "hard", gold_era=2, training=True)
        np.testing.assert_array_equal(out.value, os[2].value)

    def test_hard_training_without_gold_rejected(self):
        with pytest.raises(ValueError, match="gold era"):
            switch(cells(2), Tensor([[0.5, 0.5]]), "hard", training=True)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="switch mode"):
            switch(cells(2), Tensor([[0.5, 0.5]]), "blend")

    def test_cell_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            switch(cells(3), Tensor([[0.5, 0.5]]), "soft")

    def test_hard_gold_routing_leaves_probs_out_of_graph(self):
        # The classifier must get no gradient through a hard-routed cell.
        os = cells(2)
        probs = Tensor([[0.3, 0.7]])
        out = switch(os, probs, "hard", gold_era=1, training=True)
        ad.sum_all(out).backward()
        np.testing.assert_array_equal(probs.grad, np.zeros((1, 2)))
        assert np.abs(os[1].grad).sum() > 0

    def test_soft_mode_gradients_reach_probs(self):
        os = cells(2)
        probs = softmaxed = ad.softmax_row(Tensor([[0.1, -0.2]]))
        ad.sum_all(switch(os, probs, "soft")).backward()
        assert np.abs(softmaxed.grad).sum() > 0


class TestFuse:
    def test_sum_mode_zero_memory_is_affine_of_hidden(self):
        d = 3
        p = init_fusion_params(RNG, d_a=d, fusion="sum")
        h = Tensor(RNG.normal(size=(T_LEN, d)))
        out = fuse(Tensor(np.zeros((T_LEN, d))), h, p, "sum")
        np.testing.assert_allclose(out.value, h.value @ p.weight.value + p.bias.value)

    def test_identity_weight_recovers_hidden(self):
        d = 3
        p = FusionParams(weight=Tensor(np.eye(d)), bias=Tensor(np.zeros((1, d))))
        h = Tensor(RNG.normal(size=(T_LEN, d)))
        out = fuse(Tensor(np.zeros((T_LEN, d))), h, p, "sum")
        np.testing.assert_allclose(out.value, h.value, atol=1e-12)

    def test_concat_identity_block_recovers_hidden(self):
        d = 3
        w = np.vstack([np.zeros((d, d)), np.eye(d)])  # ignore memory half
        p = FusionParams(weight=Tensor(w), bias=Tensor(np.zeros((1, d))))
        h = Tensor(RNG.normal(size=(T_LEN, d)))
        out = fuse(Tensor(RNG.normal(size=(T_LEN, d))), h, p, "concat")
        np.testing.assert_allclose(out.value, h.value, atol=1e-12)

    def test_output_dim_is_d_a_for_both_modes(self):
        d = 4
        h, o = Tensor(RNG.normal(size=(T_LEN, d))), Tensor(RNG.normal(size=(T_LEN, d)))
        for mode in ("sum", "concat"):
            p = init_fusion_params(RNG, d_a=d, fusion=mode)
            assert fuse(o, h, p, mode).shape == (T_LEN, d)

    def test_mode_param_mismatch_rejected(self):
        d = 3
        p = init_fusion_params(RNG, d_a=d, fusion="sum")
        h, o = Tensor(np.zeros((1, d))), Tensor(np.zeros((1, d)))
        with pytest.raises(ValueError, match="fusion weights expect"):
            fuse(o, h, p, "concat")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="fusion mode"):
            fused_input_dim(4, "stack")

    def test_grad_check_through_switch_and_fuse(self):
        d = 3
        disc = init_discriminator_params(RNG, d_a=d, n_eras=2)
        fus = init_fusion_params(RNG, d_a=d, fusion="concat")
        h_sent = Tensor(RNG.normal(size=(1, d)))
        h_char = Tensor(RNG.normal(size=(T_LEN, d)))
        os = cells(2, d_a=d)
        w = Tensor(RNG.normal(size=(T_LEN, d)))
        leaves = [h_sent, h_char] + os + [t for _, t in named_tensors(disc)]
        leaves += [t for _, t in named_tensors(fus)]

        def build():
            probs = classify_era(h_sent, disc)
            out = switch(os, probs, "soft")
            return ad.sum_all(ad.mul(fuse(out, h_char, fus, "concat"), w))

        assert ad.grad_check(build, leaves) < 1e-4

    def test_logits_are_affine(self):
        p = init_discriminator_params(RNG, d_a=3, n_eras=2)
        h = Tensor(RNG.normal(size=(1, 3)))
        np.testing.assert_allclose(
            era_logits(h, p).value, h.value @ p.weight.value + p.bias.value, atol=1e-12
        )

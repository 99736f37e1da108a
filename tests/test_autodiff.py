import math

import numpy as np
import pytest

from eraseg import autodiff as ad
from eraseg.autodiff import Tensor, const, grad_check

RNG = np.random.default_rng(20240811)
TOL = 1e-4


def leaf(rows, cols, scale=1.0):
    return Tensor(RNG.normal(size=(rows, cols)) * scale)


def weighted(out, weights):
    """Project an op output to a scalar so every entry gets a distinct grad."""
    return ad.sum_all(ad.mul(out, weights))


class TestForwardValues:
    def test_softmax_known_point(self):
        p = ad.softmax_row(const([0.0, math.log(3.0)]))
        np.testing.assert_allclose(p.value, [[0.25, 0.75]], atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        p = ad.softmax_row(leaf(4, 7, scale=3.0))
        np.testing.assert_allclose(p.value.sum(axis=1), np.ones(4), atol=1e-12)

    def test_sum_all(self):
        assert ad.sum_all(const([[1.0, 2.0], [3.0, 4.0]])).value[0, 0] == 10.0

    def test_concat_and_slice_round_trip(self):
        a, b = const([[1.0, 2.0]]), const([[3.0]])
        cat = ad.concat_cols([a, b])
        np.testing.assert_array_equal(cat.value, [[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(cat.value[:, 2:3], b.value)

    def test_gather_rows_with_duplicates(self):
        table = const([[0.0, 1.0], [2.0, 3.0]])
        out = ad.gather_rows(table, [1, 1, 0])
        np.testing.assert_array_equal(out.value, [[2.0, 3.0], [2.0, 3.0], [0.0, 1.0]])

    def test_broadcast_add_row_and_col(self):
        m = const([[1.0, 2.0], [3.0, 4.0]])
        row = const([[10.0, 20.0]])
        col = Tensor([[100.0], [200.0]])
        np.testing.assert_array_equal(ad.add(m, row).value, [[11.0, 22.0], [13.0, 24.0]])
        np.testing.assert_array_equal(ad.add(m, col).value, [[101.0, 102.0], [203.0, 204.0]])


class TestShapeValidation:
    def test_tensor_must_be_2d(self):
        with pytest.raises(ValueError, match="2D"):
            Tensor(np.zeros(3))

    def test_matmul_inner_dims(self):
        with pytest.raises(ValueError, match="matmul"):
            ad.matmul(leaf(2, 3), leaf(2, 3))

    def test_add_incompatible(self):
        with pytest.raises(ValueError, match="broadcast"):
            ad.add(leaf(2, 3), leaf(2, 4))

    def test_concat_cols_mismatched_rows(self):
        with pytest.raises(ValueError, match="row counts"):
            ad.concat_cols([leaf(2, 3), leaf(3, 3)])

    def test_gather_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ad.gather_rows(leaf(2, 2), [2])

    def test_backward_needs_scalar(self):
        with pytest.raises(ValueError, match="scalar"):
            leaf(2, 2).backward()


class TestGraphMechanics:
    def test_double_backward_rejected(self):
        loss = ad.sum_all(leaf(2, 2))
        loss.backward()
        with pytest.raises(RuntimeError, match="already ran"):
            loss.backward()

    def test_fanout_accumulates(self):
        # f(x) = sum((x + x) * (x + x)) = 4 * sum(x^2), df/dx = 8x.
        x = const([[1.5, -2.0]])
        t = ad.add(x, x)
        ad.sum_all(ad.mul(t, t)).backward()
        np.testing.assert_allclose(x.grad, 8.0 * x.value, atol=1e-12)

    def test_deep_chain_no_recursion_limit(self):
        x = const([[1.0]])
        node = x
        for _ in range(5000):
            node = ad.add(node, x)
        ad.sum_all(node).backward()
        assert x.grad[0, 0] == 5001.0

    def test_grads_accumulate_until_zeroed(self):
        x = const([[2.0]])
        ad.sum_all(ad.mul(x, x)).backward()
        ad.sum_all(ad.mul(x, x)).backward()
        assert x.grad[0, 0] == 8.0
        x.zero_grad()
        assert x.grad[0, 0] == 0.0

    def test_const_wraps_scalars_and_vectors(self):
        assert const(3.0).shape == (1, 1)
        assert const([1.0, 2.0, 3.0]).shape == (1, 3)


class TestGradCheck:
    """Every op's backward against central differences."""

    def check(self, build, *leaves):
        w = Tensor(RNG.normal(size=build(*leaves).shape))
        err = grad_check(lambda: weighted(build(*leaves), w), leaves)
        assert err < TOL, f"worst relative error {err}"

    def test_add(self):
        self.check(ad.add, leaf(3, 4), leaf(3, 4))

    def test_add_row_broadcast(self):
        self.check(ad.add, leaf(3, 4), leaf(1, 4))

    def test_add_col_broadcast(self):
        self.check(ad.add, leaf(3, 4), leaf(3, 1))

    def test_mul(self):
        self.check(ad.mul, leaf(3, 4), leaf(3, 4))

    def test_mul_scalar_broadcast(self):
        self.check(ad.mul, leaf(1, 1), leaf(3, 4))

    def test_scale(self):
        self.check(lambda a: ad.scale(a, -2.5), leaf(3, 4))

    def test_matmul(self):
        self.check(ad.matmul, leaf(3, 4), leaf(4, 2))

    def test_concat_cols(self):
        self.check(lambda a, b: ad.concat_cols([a, b]), leaf(3, 2), leaf(3, 4))

    def test_gather_rows_duplicate_indices(self):
        self.check(lambda a: ad.gather_rows(a, [0, 2, 2, 1]), leaf(4, 3))

    def test_sum_all(self):
        self.check(ad.sum_all, leaf(3, 4))

    def test_tanh(self):
        self.check(ad.tanh, leaf(3, 4))

    def test_softmax_row(self):
        self.check(ad.softmax_row, leaf(3, 5))

    def test_composite_expression(self):
        a, b, c = leaf(2, 3), leaf(3, 4), leaf(1, 4)
        w = Tensor(RNG.normal(size=(2, 4)))

        def build():
            h = ad.tanh(ad.add(ad.matmul(a, b), c))
            return weighted(ad.softmax_row(h), w)

        assert grad_check(build, [a, b, c]) < TOL

    def test_catches_corrupted_backward(self):
        # An op with a wrong derivative must blow past the tolerance.
        def bad_tanh(a):
            val = np.tanh(a.value)

            def backward(g):
                a.grad += g * (1.0 - val)  # missing a factor of (1 + val)

            return Tensor(val, (a,), backward)

        x = Tensor(RNG.normal(size=(2, 3)) + 0.5)
        w = Tensor(RNG.normal(size=(2, 3)))
        err = grad_check(lambda: weighted(bad_tanh(x), w), [x])
        assert err > 1e-3

    def test_unused_leaf_reports_zero_error(self):
        x, unused = leaf(2, 2), leaf(2, 2)
        err = grad_check(lambda: ad.sum_all(ad.mul(x, x)), [x, unused])
        assert err < TOL

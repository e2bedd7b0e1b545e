import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from seizureformer import gradcheck
from seizureformer import tensor as T
from seizureformer.tensor import Tensor, _accum, _result, grad_check

from oracles import (
    broadcast_matmul,
    composed_layer_norm,
    keep_mask,
    layer_norm,
    naive_conv1d,
    naive_conv2d,
    naive_matmul,
    per_tap_conv1d,
    per_tap_conv1d_vjp,
    per_tap_conv2d,
    per_tap_conv2d_vjp,
    softmax,
)

# leading batch axes for the kernel-vs-oracle sweeps
lead_shapes = st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple)
lead_shapes_3 = st.lists(st.integers(1, 3), min_size=0, max_size=3).map(tuple)


class TestCreate:
    def test_identity_construction(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.shape == (2, 2)
        assert t.data.dtype == np.float64
        assert_allclose(t.data, [[1, 2], [3, 4]])

    def test_zero_vector(self):
        assert_allclose(Tensor([0, 0, 0]).data, [0, 0, 0])

    def test_length_mismatch(self):
        """Nested rows of unequal length do not make a tensor."""
        with pytest.raises(ValueError):
            Tensor([[1.0, 2.0], [3.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Tensor([1.0, np.inf])


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        b = Tensor([[3.0], [7.0]])
        assert_allclose(T.matmul(eye, b).data, [[3], [7]])

    def test_hand_example(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        assert_allclose(T.matmul(a, b).data, [[3], [7]])

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 4))
        b = rng.standard_normal((4, 3))
        got = T.matmul(Tensor(a), Tensor(b)).data
        assert_allclose(got, naive_matmul(a, b), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_rules(self):
        """dA = dC B^T and dB = A^T dC for sum-of-entries loss."""
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        T.tsum(T.matmul(a, b)).backward()
        ones = np.ones((3, 2))
        assert_allclose(a.grad, ones @ b.data.T, atol=1e-12)
        assert_allclose(b.grad, a.data.T @ ones, atol=1e-12)


class TestMatmulFold:
    """A 2-D weight folds the leading axes into one GEMM; the broadcast matmul
    it replaced (plus the ``add`` op for the bias) is the oracle."""

    @given(
        lead=lead_shapes_3, m=st.integers(1, 4), k=st.integers(1, 5), n=st.integers(1, 5),
        with_bias=st.booleans(), seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_forward_and_vjps(self, lead, m, k, n, with_bias, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(lead + (m, k)), rng.standard_normal((k, n))]
        if with_bias:
            arrays.append(rng.standard_normal(n))
        got = [Tensor(v, requires_grad=True) for v in arrays]
        ref = [Tensor(v, requires_grad=True) for v in arrays]
        out = T.matmul(*got)
        expected = broadcast_matmul(ref[0], ref[1])
        if with_bias:
            expected = expected + ref[2]
        assert_allclose(out.data, expected.data, rtol=0, atol=1e-12)

        g = Tensor(rng.standard_normal(out.shape))
        T.tsum(T.mul(out, g)).backward()
        T.tsum(T.mul(expected, g)).backward()
        for mine, theirs in zip(got, ref):  # input, weight, bias
            assert mine.grad.shape == theirs.data.shape
            assert_allclose(mine.grad, theirs.grad, rtol=0, atol=1e-12)

    def test_bias_shape_checked(self):
        with pytest.raises(ValueError, match=r"bias must have shape \(3,\)"):
            T.matmul(Tensor(np.ones((2, 4))), Tensor(np.ones((4, 3))), Tensor(np.ones(4)))

    def test_batched_weight_rejected(self):
        with pytest.raises(ValueError, match="2-D weight"):
            T.matmul(Tensor(np.ones((2, 2, 4))), Tensor(np.ones((2, 4, 3))))

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 3, 2)).transpose(2, 1, 0), requires_grad=True)  # (2, 3, 4), not C-ordered
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        out = T.matmul(x, w)
        assert_allclose(out.data, np.matmul(x.data, w.data), rtol=0, atol=1e-12)
        T.tsum(out).backward()
        assert_allclose(x.grad, np.ones((2, 3, 5)) @ w.data.T, rtol=0, atol=1e-12)


class TestConv1d:
    def test_hand_example_valid(self):
        x = Tensor([1.0, 2.0, 3.0])
        w = Tensor([[1.0, 0.0, -1.0]])
        assert_allclose(T.conv1d(x, w, padding="valid").data, [[-2.0]])

    def test_identity_kernel(self):
        x = Tensor(np.arange(6.0))
        out = T.conv1d(x, Tensor([[1.0]]), padding="valid")
        assert_allclose(out.data.reshape(-1), x.data)

    def test_same_padding_matches_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(16)
        w = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        got = T.conv1d(Tensor(x), Tensor(w), Tensor(b), padding="same").data
        assert got.shape == (16, 3)
        assert_allclose(got, naive_conv1d(x, w, b, "same"), atol=1e-12)

    def test_kernel_longer_than_input(self):
        with pytest.raises(ValueError, match="taps"):
            T.conv1d(Tensor([1.0, 2.0]), Tensor(np.ones((1, 3))), padding="valid")


class TestConv1dMatchesPerTap:
    """The single-GEMM conv1d against the per-tap loop it replaced."""

    @given(
        lead=lead_shapes, k=st.integers(1, 7), extra=st.integers(0, 6), feats=st.integers(1, 4),
        padding=st.sampled_from(["same", "valid"]), with_bias=st.booleans(), seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_forward_and_vjps(self, lead, k, extra, feats, padding, with_bias, seed):
        rng = np.random.default_rng(seed)
        length = k + extra if padding == "valid" else 1 + extra
        x = rng.standard_normal(lead + (length,))
        w = rng.standard_normal((feats, k))
        b = rng.standard_normal(feats) if with_bias else None
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        bt = Tensor(b, requires_grad=True) if with_bias else None
        out = T.conv1d(xt, wt, bt, padding=padding)
        assert_allclose(out.data, per_tap_conv1d(x, w, b, padding), rtol=0, atol=1e-12)

        g = rng.standard_normal(out.shape)
        T.tsum(T.mul(out, Tensor(g))).backward()
        gx, gw, gb = per_tap_conv1d_vjp(x, w, padding, g)
        assert_allclose(xt.grad, gx, rtol=0, atol=1e-12)
        assert_allclose(wt.grad, gw, rtol=0, atol=1e-12)
        if with_bias:
            assert_allclose(bt.grad, gb, rtol=0, atol=1e-12)


class TestLayerNorm:
    """The fused layer-norm helpers inside ``encoder_layer``, as one op (``oracles.layer_norm``)."""

    def test_rows_standardized(self):
        x = Tensor(np.random.default_rng(13).standard_normal((4, 6)) * 5.0 + 3.0)
        out = layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)), 1e-5).data
        assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        assert_allclose(out.var(axis=-1), 1.0, atol=1e-5)

    @given(lead=lead_shapes, d=st.integers(1, 8), seed=st.integers(0, 2**16))
    @example(lead=(3, 3), d=2, seed=498)  # grads near 75: the summation orders differ by 2.5e-12
    @settings(max_examples=80, deadline=None)
    def test_matches_composed_graph(self, lead, d, seed):
        """Fused helpers vs the composed primitive-op graph they replaced: forward
        and the VJPs for x, gamma and beta."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(lead + (d,))
        gamma, beta = rng.standard_normal(d), rng.standard_normal(d)
        g = rng.standard_normal(x.shape)
        results = []
        for norm in (layer_norm, composed_layer_norm):
            leaves = [Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
            out = norm(*leaves, 1e-5)
            T.tsum(T.mul(out, Tensor(g))).backward()
            results.append([out.data] + [t.grad for t in leaves])
        for fused, composed in zip(*results):
            assert_allclose(fused, composed, rtol=1e-12, atol=1e-12)


class TestTakeLast:
    def test_gradient_on_non_contiguous_input(self):
        """Regression: a transposed input used to get an all-zero gradient."""
        x = Tensor(np.ones((2, 3, 4)).transpose(2, 1, 0), requires_grad=True)  # (4, 3, 2), not C-ordered
        T.tsum(T.take_last(x, np.array([1]))).backward()
        assert x.grad.sum() == 12.0
        assert_allclose(x.grad[..., 1], 1.0)
        assert_allclose(x.grad[..., 0], 0.0)


class TestNoGrad:
    def test_results_carry_no_graph(self):
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        with T.no_grad():
            out = T.sigmoid(T.matmul(Tensor(np.ones((4, 3))), w))
        assert not out.requires_grad
        assert out._prev == () and out._vjp is None

    def test_same_values_as_recorded(self):
        rng = np.random.default_rng(14)
        w = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 6, 5)))
        recorded = softmax(T.matmul(x, w))
        with T.no_grad():
            free = softmax(T.matmul(x, w))
        assert recorded.requires_grad
        assert free.data.tobytes() == recorded.data.tobytes()

    def test_backward_inside_block_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            loss = T.tsum(T.mul(x, x))
        with pytest.raises(ValueError, match="requiring gradients"):
            loss.backward()

    def test_finiteness_guard_kept(self):
        with T.no_grad(), pytest.raises(FloatingPointError):
            T.log(Tensor([0.0], requires_grad=True))

    def test_mode_restored_after_exception(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="boom"), T.no_grad():
            raise RuntimeError("boom")
        loss = T.tsum(T.mul(x, x))
        assert loss.requires_grad
        loss.backward()
        assert_allclose(x.grad, [2.0])


class TestConv2d:
    def test_one_by_one_identity(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 7, 4)))
        out = T.conv2d(x, Tensor([[1.0]]))
        assert_allclose(out.data, x.data)

    def test_zero_kernel(self):
        x = Tensor(np.random.default_rng(4).standard_normal((3, 3, 2)))
        assert_allclose(T.conv2d(x, Tensor(np.zeros((3, 3)))).data, 0.0)

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 7, 8))
        k = rng.standard_normal((3, 3))
        got = T.conv2d(Tensor(x), Tensor(k)).data
        assert_allclose(got, naive_conv2d(x, k), atol=1e-12)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            T.conv2d(Tensor(np.ones((2, 4, 3))), Tensor(np.ones((2, 3))))


class TestConv2dMatchesPerTap:
    """The band-matrix conv2d against the per-tap loop it replaced."""

    @given(lead=lead_shapes, h=st.integers(1, 4), w=st.integers(1, 9), d=st.integers(1, 4),
           kh=st.sampled_from([1, 3, 5]), kw=st.sampled_from([1, 3, 5]), seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_forward_and_vjps(self, lead, h, w, d, kh, kw, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(lead + (h, w, d))
        k = rng.standard_normal((kh, kw))
        g = rng.standard_normal(x.shape)
        xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
        out = T.conv2d(xt, kt)
        assert_allclose(out.data, per_tap_conv2d(x, k), rtol=0, atol=1e-12)
        T.tsum(T.mul(out, Tensor(g))).backward()
        gx, gk = per_tap_conv2d_vjp(x, k, g)
        assert_allclose(xt.grad, gx, rtol=0, atol=1e-12)
        assert_allclose(kt.grad, gk, rtol=1e-12, atol=1e-12)

    def test_kernel_grad_sums_past_one_chunk(self):
        """More batch slices than one step of the kernel-grad sum takes."""
        rng = np.random.default_rng(31)
        x = rng.standard_normal((2 * T._CONV2D_CHUNK + 3, 2, 5, 3))
        k = rng.standard_normal((3, 3))
        g = rng.standard_normal(x.shape)
        kt = Tensor(k, requires_grad=True)
        T.tsum(T.mul(T.conv2d(Tensor(x), kt), Tensor(g))).backward()
        assert_allclose(kt.grad, per_tap_conv2d_vjp(x, k, g)[1], rtol=1e-12, atol=1e-12)


class TestSoftmax:
    """The oracle softmax that the fused encoder layer is checked against."""

    def test_symmetric_pair(self):
        assert_allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(9)
        base = softmax(Tensor(x)).data
        shifted = softmax(Tensor(x + 123.45)).data
        assert_allclose(base, shifted, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        out = softmax(Tensor(rng.standard_normal((7, 7)))).data
        assert_allclose(out.sum(axis=-1), np.ones(7), atol=1e-12)
        assert np.all(out > 0)


class TestPointwise:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor(0.0)).item() == 0.5

    def test_relu(self):
        assert_allclose(T.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_mean(self):
        assert T.mean(Tensor([1.0, 2.0, 3.0])).item() == 2.0

    def test_mean_invalid_axis(self):
        with pytest.raises(ValueError, match="axis"):
            T.mean(Tensor([1.0, 2.0]), axes=2)

    def test_log_of_zero_raises(self):
        with pytest.raises(FloatingPointError):
            T.log(Tensor([0.0]))


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(np.arange(5.0))
        assert T.dropout(x, 0.2, training=False) is x

    def test_training_scales_survivors(self):
        rng = np.random.default_rng(8)
        x = Tensor(np.ones(10_000))
        out = T.dropout(x, 0.2, training=True, rng=rng).data
        survivors = out[out != 0]
        assert_allclose(survivors, 1.0 / 0.8)
        assert abs(len(survivors) / 10_000 - 0.8) < 0.02

    def test_invalid_rate(self):
        with pytest.raises(ValueError, match="rate"):
            T.dropout(Tensor([1.0]), 1.0, training=True, rng=np.random.default_rng(0))

    @given(shape=st.sampled_from([(1792, 32), (3584, 128), (7,), (3, 5, 2)]),
           rate=st.one_of(st.sampled_from([0.2, 0.5, 0.9]), st.floats(1e-6, 0.999)), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_keep_mask_matches_compare_then_divide(self, shape, rate, seed):
        """Drawn, compared and scaled in place: the same bytes as the one-expression
        mask, and the generator left at the same state."""
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert T._keep_mask(shape, rate, True, rng).tobytes() == keep_mask(shape, rate, ref_rng).tobytes()
        assert rng.random() == ref_rng.random()


class TestBackward:
    def test_sum_gradient(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        T.tsum(x).backward()
        assert_allclose(x.grad, [1.0, 1.0, 1.0])

    def test_elementwise_square(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        T.tsum(T.mul(x, x)).backward()
        assert_allclose(x.grad, [2.0, 4.0])

    def test_backward_twice_errors(self):
        x = Tensor([1.0], requires_grad=True)
        loss = T.tsum(x)
        loss.backward()
        with pytest.raises(RuntimeError, match="already ran"):
            loss.backward()

    def test_non_scalar_root_errors(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (x + x).backward()

    def test_unrecorded_graph_errors(self):
        with pytest.raises(ValueError, match="requiring gradients"):
            T.tsum(Tensor([1.0])).backward()

    def test_shared_node_cross_graph(self):
        """Regression: B = h(C, A) consuming A must be processed before A.

        loss = A + B with A = 2C and B = C * A gives dC = 2 + 4C exactly.
        """
        c = Tensor([1.5], requires_grad=True)
        a = c * 2.0
        b = T.mul(c, a)
        T.tsum(a + b).backward()
        assert_allclose(c.grad, [2.0 + 4.0 * 1.5])

    def test_each_node_visited_once(self):
        # a diamond where double-counting would show up as a doubled gradient
        x = Tensor([3.0], requires_grad=True)
        y = x * 1.0
        T.tsum(y + y).backward()
        assert_allclose(x.grad, [2.0])


class TestGradCheck:
    def test_sum_of_squares(self):
        err = grad_check(lambda t: T.tsum(T.mul(t, t)), Tensor(np.arange(1.0, 5.0)))
        assert err < 1e-8

    def test_constant_function(self):
        err = grad_check(lambda t: Tensor(1.0), Tensor(np.ones(3)))
        assert err == 0.0

    def test_nondeterminism_detected(self):
        rng = np.random.default_rng(0)

        def noisy(t):
            return T.tsum(t) * float(rng.random())

        with pytest.raises(ValueError, match="deterministic"):
            grad_check(noisy, Tensor(np.ones(2)))

    def test_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            grad_check(lambda t: T.tsum(t), Tensor(np.ones(2)), epsilon=0.0)

    def test_run_all_reaches_every_op(self, monkeypatch):
        """Every public op of the tensor module is called by ``gradcheck.run_all``
        with an input that requires a gradient, so each one gets a finite-difference
        check.  Operator sugar (``t + u``, ``-t``) counts, since it calls the op."""
        non_ops = {"Tensor", "no_grad", "zero_grad", "grad_check"}
        ops = sorted(name for name, obj in vars(T).items() if callable(obj) and not name.startswith("_")
                     and getattr(obj, "__module__", None) == T.__name__ and name not in non_ops)
        reached = set()

        def tensors(value):
            if isinstance(value, Tensor):
                yield value
            elif isinstance(value, (list, tuple)):
                for v in value:
                    yield from tensors(v)

        def counted(name, op):
            def wrapper(*args, **kwargs):
                if any(t.requires_grad for t in tensors([args, list(kwargs.values())])):
                    reached.add(name)
                return op(*args, **kwargs)

            return wrapper

        for name in ops:
            monkeypatch.setattr(T, name, counted(name, getattr(T, name)))
        assert all(r.passed for r in gradcheck.run_all())
        assert "matmul" in ops and "encoder_layer" in ops
        assert [name for name in ops if name not in reached] == []

    def test_checks_the_input_layout(self):
        """A VJP that is wrong only on non-contiguous input must be caught."""

        def square_sum(a):
            def vjp(g):
                grad = 2.0 * a.data * g
                _accum(a, grad if a.data.flags.c_contiguous else 0.0 * grad)

            return _result(np.array(np.sum(a.data * a.data)), (a,), vjp)

        x = np.random.default_rng(0).standard_normal((2, 3, 4))
        assert grad_check(square_sum, Tensor(x)) < 1e-6
        assert grad_check(square_sum, Tensor(x.transpose(2, 0, 1))) > 0.5


class TestProperties:
    def test_matmul_linearity(self):
        """f(ax + by) = a f(x) + b f(y) for fixed right operand."""
        rng = np.random.default_rng(9)
        w = Tensor(rng.standard_normal((4, 3)))
        x, y = rng.standard_normal((2, 5, 4))
        a, b = 1.7, -0.3
        lhs = T.matmul(Tensor(a * x + b * y), w).data
        rhs = a * T.matmul(Tensor(x), w).data + b * T.matmul(Tensor(y), w).data
        assert_allclose(lhs, rhs, atol=1e-10)

    def test_conv_linearity(self):
        rng = np.random.default_rng(10)
        w = Tensor(rng.standard_normal((2, 3)))
        x, y = rng.standard_normal((2, 12))
        lhs = T.conv1d(Tensor(2.0 * x - 0.5 * y), w, padding="same").data
        rhs = 2.0 * T.conv1d(Tensor(x), w, padding="same").data - 0.5 * T.conv1d(Tensor(y), w, padding="same").data
        assert_allclose(lhs, rhs, atol=1e-10)

    def test_conv_linearity_in_kernel(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal(10))
        u, v = rng.standard_normal((2, 2, 3))
        lhs = T.conv1d(x, Tensor(1.5 * u + 0.25 * v), padding="same").data
        rhs = 1.5 * T.conv1d(x, Tensor(u), padding="same").data + 0.25 * T.conv1d(x, Tensor(v), padding="same").data
        assert_allclose(lhs, rhs, atol=1e-10)

    def test_determinism(self):
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        x = Tensor(np.linspace(-1, 1, 20))
        out_a = T.dropout(T.sigmoid(x), 0.3, training=True, rng=rng_a).data
        out_b = T.dropout(T.sigmoid(x), 0.3, training=True, rng=rng_b).data
        assert out_a.tobytes() == out_b.tobytes()

    @given(
        m=st.integers(1, 6), k=st.integers(1, 6), n=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matmul_shape_algebra(self, m, k, n, data):
        a = Tensor(np.ones((m, k)))
        b = Tensor(np.ones((k, n)))
        assert T.matmul(a, b).shape == (m, n)

    @given(length=st.integers(1, 20), k=st.integers(1, 9), feats=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_conv1d_same_shape_algebra(self, length, k, feats):
        out = T.conv1d(Tensor(np.ones(length)), Tensor(np.ones((feats, k))), padding="same")
        assert out.shape == (length, feats)

    @given(h=st.integers(1, 5), w=st.integers(1, 6), d=st.integers(1, 3),
           kh=st.sampled_from([1, 3, 5]), kw=st.sampled_from([1, 3, 5]))
    @settings(max_examples=40, deadline=None)
    def test_conv2d_shape_preserved(self, h, w, d, kh, kw):
        out = T.conv2d(Tensor(np.ones((h, w, d))), Tensor(np.ones((kh, kw))))
        assert out.shape == (h, w, d)


def _encoder_args(rng, d, heads, ffn):
    """Random ``encoder_layer`` parameters after ``x``, each requiring a grad."""
    def t(*shape):
        return Tensor(0.5 * rng.standard_normal(shape), requires_grad=True)

    dk = d // heads
    return ((t(d), t(d)), [(t(d, dk), t(d, dk), t(d, dk)) for _ in range(heads)], t(d, d), (t(d), t(d)),
            (t(d, ffn), t(ffn), t(ffn, d), t(d)), 1e-5, 0.3)


class TestChunkedEncoder:
    """With no graph recorded, ``encoder_layer`` runs in row chunks on pool threads.
    The one-shot recorded forward is the oracle: every byte must match it at widths
    where the BLAS keeps one GEMM kernel whatever the row count."""

    @staticmethod
    def _compare(x, args, training, seed, workers):
        with mock.patch.object(T, "_WORKERS", workers):
            sink_c, rng_c = [], np.random.default_rng(seed)
            with T.no_grad():
                chunked = T.encoder_layer(Tensor(x), *args, training, rng_c, sink_c)
        sink_o, rng_o = [], np.random.default_rng(seed)
        oracle = T.encoder_layer(Tensor(x, requires_grad=True), *args, training, rng_o, sink_o)
        assert oracle.requires_grad and not chunked.requires_grad
        assert chunked.data.tobytes() == oracle.data.tobytes()
        assert [a.data.tobytes() for a in sink_c] == [a.data.tobytes() for a in sink_o]
        assert rng_c.random() == rng_o.random()

    @staticmethod
    def _sizes(data, p, ffn):
        """A sequence count: under one chunk, a whole number of chunks, or between."""
        step = max(1, T._CHUNK_FLOATS // (p * ffn))
        return data.draw(st.one_of(st.integers(1, 3 * step + 1), st.sampled_from([max(1, step - 1), step + 1])), "n")

    @given(widths=st.sampled_from([(32, 128), (128, 1024)]), heads=st.sampled_from([1, 2, 4]), p=st.integers(1, 16),
           training=st.booleans(), workers=st.integers(0, 3), seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_chunks_match_one_shot_forward(self, widths, heads, p, training, workers, seed, data):
        """(embed_dim, ffn_dim) of the defaults and of reference_preset; other widths
        are checked to rounding in the next test."""
        (d, ffn), rng = widths, np.random.default_rng(seed)
        x = rng.standard_normal((self._sizes(data, p, ffn), p, d))
        self._compare(x, _encoder_args(rng, d, heads, ffn), training, seed, workers)

    @given(dk=st.integers(1, 48), heads=st.integers(1, 3), p=st.integers(1, 16), ffn=st.integers(16, 4096),
           workers=st.integers(1, 3), seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_width_same_bytes_for_any_worker_count(self, dk, heads, p, ffn, workers, seed, data):
        """At any width the chunks are fixed by the shapes, so the worker count never
        changes a byte.  Against the one-shot pass, OpenBLAS switches GEMM kernels at a
        matrix-size threshold, and for many shapes the two kernels round differently."""
        d, rng = heads * dk, np.random.default_rng(seed)
        x, args = rng.standard_normal((self._sizes(data, p, ffn), p, d)), _encoder_args(rng, d, heads, ffn)
        with T.no_grad():
            with mock.patch.object(T, "_WORKERS", 0):
                serial = T.encoder_layer(Tensor(x), *args)
            with mock.patch.object(T, "_WORKERS", workers):
                pooled = T.encoder_layer(Tensor(x), *args)
        assert pooled.data.tobytes() == serial.data.tobytes()
        oracle = T.encoder_layer(Tensor(x, requires_grad=True), *args)
        assert_allclose(serial.data, oracle.data, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("ffn, d, heads", [(128, 32, 2), (1024, 128, 2)])  # defaults and reference_preset
    @pytest.mark.parametrize("n", [1, 35, 36, 37, 300])  # 36 sequences a chunk at default widths
    def test_preset_widths(self, ffn, d, heads, n):
        rng = np.random.default_rng(n)
        self._compare(rng.standard_normal((n, 14, d)), _encoder_args(rng, d, heads, ffn), False, 0, 1)

    def test_one_row_per_sequence_has_no_lone_row_chunk(self):
        """p = 1 and one sequence past a chunk: even chunks keep every GEMM at two or
        more rows, where a lone row would take numpy's matrix-vector path."""
        rng = np.random.default_rng(4)
        self._compare(rng.standard_normal((T._CHUNK_FLOATS // 128 + 1, 1, 32)), _encoder_args(rng, 32, 2, 128),
                      False, 0, 1)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_error_reraises_after_every_chunk(self, monkeypatch, workers):
        """The first layer-norm call on a worker raises; the error surfaces only once
        every other chunk has run both of its layer norms."""
        rng = np.random.default_rng(3)
        args = _encoder_args(rng, 4, 2, 2048)
        x = rng.standard_normal((40, 8, 4))
        parts = -(-40 // (T._CHUNK_FLOATS // (8 * 2048)))
        fwd, lock, failed, calls = T._layer_norm_fwd, threading.Lock(), threading.Event(), []

        def flaky(*a):
            if threading.current_thread() is threading.main_thread():
                assert failed.wait(10)  # hold the caller back until a worker has failed
            else:
                with lock:
                    first = not failed.is_set()
                    failed.set()
                if first:
                    raise RuntimeError("injected")
                time.sleep(0.01)  # a slow chunk, still running if the caller did not wait
            calls.append(1)
            return fwd(*a)

        monkeypatch.setattr(T, "_layer_norm_fwd", flaky)
        monkeypatch.setattr(T, "_WORKERS", workers)
        with T.no_grad(), pytest.raises(RuntimeError, match="injected"):
            T.encoder_layer(Tensor(x), *args)
        assert parts > 2 and len(calls) == 2 * (parts - 1)

    def test_run_chunks_waits_for_every_started_call(self, monkeypatch):
        """The caller fails at once and the worker later: the caller's error surfaces,
        and only once the worker's call has returned."""
        monkeypatch.setattr(T, "_WORKERS", 1)
        both, finished = threading.Barrier(2, timeout=10), []

        def fn(start):
            both.wait()  # the caller and the worker each hold one start
            if threading.current_thread() is threading.main_thread():
                raise ValueError("caller")
            time.sleep(0.05)
            finished.append(start)
            raise KeyError("worker")

        with pytest.raises(ValueError, match="caller"):
            T._run_chunks(fn, 2)
        assert len(finished) == 1

    def test_every_call_runs_once_under_contention(self, monkeypatch):
        """Four workers on fewer cores, switching threads every microsecond: no index is
        lost or taken twice from the shared queue."""
        monkeypatch.setattr(T, "_WORKERS", 4)
        calls, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            T._run_chunks(calls.append, 2000)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == list(range(2000))

    def test_forked_child_does_not_wait_on_the_parents_pool(self, monkeypatch):
        """A fork copies the pool but not its threads: the child runs every chunk itself."""
        monkeypatch.setattr(T, "_WORKERS", 1)
        T._run_chunks(lambda i: None, 2)  # the pool is started in this process
        child = multiprocessing.get_context("fork").Process(target=T._run_chunks, args=(int, 8))
        child.start()
        child.join(60)
        alive = child.is_alive()
        if alive:
            child.kill()
        assert not alive and child.exitcode == 0

    def test_import_starts_no_thread(self):
        """The pool starts on the first chunked call, not at import: set-up pays no thread and no logging import."""
        code = ("import sys, threading, seizureformer\n"
                "seizureformer.generate_patient(seizureformer.SynthConfig(seed=1, days=200))\n"
                "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures imported'\n"
                "assert threading.active_count() == 1, threading.enumerate()\n")
        src = str(Path(T.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


def _leaves(value):
    """Every tensor in a nest of tuples and lists, in order."""
    if isinstance(value, Tensor):
        return [value]
    if isinstance(value, (list, tuple)):
        return [t for v in value for t in _leaves(v)]
    return []


def _encoder_loss(x, args, training=False, seed=0):
    out = T.encoder_layer(x, *args, training, np.random.default_rng(seed))
    return T.tsum(T.mul(out, out))


def _grad_bytes(workers, build, leaves):
    """Each leaf's grad bytes after ``build().backward()`` with ``workers`` pool threads."""
    T.zero_grad(dict(enumerate(leaves)))
    with mock.patch.object(T, "_WORKERS", workers):
        build().backward()
    return [t.grad.tobytes() for t in leaves]


def _backward_in_child():
    rng = np.random.default_rng(2)
    args = _encoder_args(rng, 8, 2, 16)
    _encoder_loss(Tensor(rng.standard_normal((3, 4, 8))), args, True).backward()
    assert all(t.grad is not None for t in _leaves(args))


class TestPooledBackward:
    """Inside ``backward``, the encoder's leaf-parameter products run on pool threads
    while the caller walks on, and every leaf grad is summed at the join in walk order."""

    @given(heads=st.sampled_from([1, 2]), p=st.integers(1, 6), n=st.integers(1, 5), rate=st.sampled_from([0.0, 0.3]),
           training=st.booleans(), workers=st.integers(1, 3), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_grads_same_bytes_for_any_worker_count(self, heads, p, n, rate, training, workers, seed):
        """Dropout off (rate 0 or eval) is the case where the wo product reads the very
        array the input chain goes on from."""
        rng = np.random.default_rng(seed)
        args = _encoder_args(rng, 8, heads, 24)[:-1] + (rate,)
        x = Tensor(rng.standard_normal((n, p, 8)), requires_grad=True)
        leaves = [x, *_leaves(args)]

        def build():
            return _encoder_loss(x, args, training, seed)

        assert _grad_bytes(workers, build, leaves) == _grad_bytes(0, build, leaves)

    def test_same_bytes_under_contention(self, monkeypatch):
        """Four pool threads on fewer cores, switching every microsecond: each product
        runs once, on a worker or (cancelled) on the caller, and sums in walk order."""
        rng = np.random.default_rng(8)
        args = _encoder_args(rng, 8, 2, 24)
        x = Tensor(rng.standard_normal((4, 5, 8)))
        leaves = _leaves(args)

        def build():
            rng_d = np.random.default_rng(3)
            h = x
            for _ in range(3):
                h = T.encoder_layer(h, *args, True, rng_d)
            return T.tsum(T.mul(h, h))

        serial, interval = _grad_bytes(0, build, leaves), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [_grad_bytes(4, build, leaves) for _ in range(20)]
        finally:
            sys.setswitchinterval(interval)
        assert all(run == serial for run in runs)

    def test_stalled_pool_holds_few_products(self, monkeypatch):
        """Futures no thread ever starts, as in a stalled pool: the caller runs the oldest
        itself, so at most ``_IN_FLIGHT`` products (plus the new one) are left unfinished."""
        from concurrent.futures import Future

        rng = np.random.default_rng(10)
        args = _encoder_args(rng, 8, 2, 24)
        x = Tensor(rng.standard_normal((4, 5, 8)))
        leaves = _leaves(args)

        def build():
            h = x
            for _ in range(3):
                h = T.encoder_layer(h, *args)
            return T.tsum(T.mul(h, h))

        serial, futures, unfinished = _grad_bytes(0, build, leaves), [], []
        real = T._accum_product

        def stalled(fns, workers):
            futures.extend(Future() for _ in fns)
            return futures[-len(fns):]

        def counted(*a):
            real(*a)
            unfinished.append(sum(not f.done() for f in futures))

        monkeypatch.setattr(T, "_submit", stalled)
        monkeypatch.setattr(T, "_accum_product", counted)
        assert _grad_bytes(1, build, leaves) == serial
        assert len(futures) == 18 and max(unfinished) == T._IN_FLIGHT + 1

    def test_shared_leaf_sums_in_walk_order(self):
        """Two layers share every weight; wo and b2 also act on the input and w1 on the
        output, so their inline terms come after and before the pooled ones in walk
        order.  Three or more terms per leaf round differently in another order."""
        rng = np.random.default_rng(9)
        args = _encoder_args(rng, 8, 2, 24)
        wo, (w1, _, _, b2) = args[2], args[4]
        x = Tensor(rng.standard_normal((4, 5, 8)))
        leaves = _leaves(args)

        def build():
            rng_d = np.random.default_rng(1)
            h = T.encoder_layer(T.matmul(x * b2, wo), *args, True, rng_d)
            h = T.encoder_layer(h, *args, True, rng_d)
            return T.tsum(T.mul(h, h)) + T.tsum(T.matmul(h, w1))

        serial = _grad_bytes(0, build, leaves)
        for workers in (1, 3):
            assert _grad_bytes(workers, build, leaves) == serial

    @pytest.mark.parametrize("which", ["w1", "wq"])
    def test_non_leaf_weight_gradcheck(self, monkeypatch, which):
        """An encoder weight built by an op from the checked leaf needs its grad during
        the walk, so its product runs inline while the leaves' run on the pool."""
        monkeypatch.setattr(T, "_WORKERS", 1)
        rng = np.random.default_rng(6)
        args = _encoder_args(rng, 4, 2, 6)[:-1] + (0.0,)
        x = Tensor(rng.standard_normal((2, 3, 4)))
        base = args[4][0] if which == "w1" else args[1][0][0]

        def f(leaf):
            w = T.mul(leaf, Tensor(1.5))
            if which == "w1":
                swapped = args[:4] + ((w, *args[4][1:]),) + args[5:]
            else:
                swapped = (args[0], [(w, *args[1][0][1:]), *args[1][1:]]) + args[2:]
            return _encoder_loss(x, swapped)

        assert grad_check(f, Tensor(base.data)) < 1e-6

    def test_worker_error_surfaces_after_the_join(self, monkeypatch):
        """The first product raises on a pool thread and the second is still running:
        backward raises only after it has finished, sums nothing, and the next backward
        gives the serial bytes."""
        monkeypatch.setattr(T, "_WORKERS", 1)
        rng = np.random.default_rng(5)
        args = _encoder_args(rng, 8, 2, 16)
        x = Tensor(rng.standard_normal((3, 4, 8)))
        leaves = _leaves(args)
        real, started, finished, calls = T._accum_product, threading.Event(), [], []

        def boom(*a):
            started.set()
            raise RuntimeError("injected")

        def slow(*a):
            started.set()
            time.sleep(0.05)
            finished.append(1)
            return calls[1][0](*a)

        def flaky(targets, fn, *a):
            calls.append((fn,))
            started.clear()
            real(targets, {1: boom, 2: slow}.get(len(calls), fn), *a)
            if len(calls) <= 2:
                assert started.wait(10)  # a pool thread has taken it

        monkeypatch.setattr(T, "_accum_product", flaky)
        with pytest.raises(RuntimeError, match="injected"):
            _encoder_loss(x, args).backward()
        assert finished == [1]
        assert T._deferred.get() is None
        assert all(t.grad is None for t in leaves)

        monkeypatch.setattr(T, "_accum_product", real)
        expected = _grad_bytes(0, lambda: _encoder_loss(x, args), leaves)
        assert _grad_bytes(1, lambda: _encoder_loss(x, args), leaves) == expected

    def test_walk_error_waits_for_started_products(self, monkeypatch):
        """An op below the encoder fails in its VJP after the encoder's products were
        queued: that error surfaces, and no leaf grad is summed."""
        monkeypatch.setattr(T, "_WORKERS", 1)
        rng = np.random.default_rng(7)
        args = _encoder_args(rng, 8, 2, 16)
        src = Tensor(rng.standard_normal((3, 4, 8)), requires_grad=True)

        def fail(g):
            raise KeyError("walk")

        x = T._result(src.data.copy(), (src,), fail)
        with pytest.raises(KeyError, match="walk"):
            _encoder_loss(x, args).backward()
        assert T._deferred.get() is None
        assert all(t.grad is None for t in [src, *_leaves(args)])

    @pytest.mark.parametrize("blas, workers", [("1", 3), ("unset", 0), ("4", 0)])
    def test_pool_only_beside_a_one_thread_blas(self, monkeypatch, blas, workers):
        """A BLAS that runs a thread per CPU already keeps every core busy; ``_WORKERS`` overrides."""
        monkeypatch.setattr(T, "BLAS_THREADS", blas)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert T._workers() == workers
        monkeypatch.setattr(T, "_WORKERS", 2)
        assert T._workers() == 2

    def test_forked_child_runs_its_own_products(self, monkeypatch):
        """A fork copies the pool but not its threads: the join runs every queued product itself."""
        monkeypatch.setattr(T, "_WORKERS", 1)
        T._run_chunks(lambda i: None, 2)  # the pool is started in this process
        child = multiprocessing.get_context("fork").Process(target=_backward_in_child)
        child.start()
        child.join(60)
        alive = child.is_alive()
        if alive:
            child.kill()
        assert not alive and child.exitcode == 0

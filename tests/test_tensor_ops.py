"""Forward-path checks of the layer ops: closed forms, shapes, and bits
against earlier formulations. Their naive-loop oracle comparisons are
`msn verify`'s oracle suite, which tests/test_gradients.py runs over 25 seeds."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msn import network, oracles, verify
from msn.config import RunConfig
from msn.network import build_network, forward_heads
from msn.tensor import (
    ShapeMismatchError,
    Tensor,
    _im2col,
    accumulate_grad,
    batch_norm,
    conv2d,
    global_average_pool,
    grad_check,
    linear,
    max_pool2,
    no_grad,
    relu,
    residual_add,
    weighted_sum,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64))


def rel_err(a, b):
    denom = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max()) / denom


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = t64(rng.standard_normal((2, 5, 5, 1)))
        k = t64(np.ones((1, 1, 1, 1)))
        b = t64(np.zeros(1))
        out = conv2d(x, k, b)
        np.testing.assert_array_equal(out.data, x.data)

    def test_all_ones(self):
        x = t64(np.ones((1, 5, 5, 1)))
        k = t64(np.ones((3, 3, 1, 1)))
        b = t64(np.zeros(1))
        out = conv2d(x, k, b)
        assert out.shape == (1, 3, 3, 1)
        np.testing.assert_allclose(out.data, 9.0)

    def test_channel_mismatch_names_both_shapes(self):
        x = t64(np.zeros((1, 4, 4, 3)))
        k = t64(np.zeros((3, 3, 2, 4)))
        with pytest.raises(ShapeMismatchError) as exc:
            conv2d(x, k, t64(np.zeros(4)))
        assert "(1, 4, 4, 3)" in str(exc.value) and "(3, 3, 2, 4)" in str(exc.value)

    def test_pad_is_keyword_only(self):
        # perfbench's conv2d tracer reads pad from the keywords alone
        x, k, b = t64(np.zeros((1, 4, 4, 1))), t64(np.zeros((3, 3, 1, 1))), t64(np.zeros(1))
        with pytest.raises(TypeError):
            conv2d(x, k, b, 1)

    def test_empty_output_rejected(self):
        x = t64(np.zeros((1, 2, 2, 1)))
        k = t64(np.zeros((3, 3, 1, 1)))
        with pytest.raises(ShapeMismatchError):
            conv2d(x, k, t64(np.zeros(1)))

    def test_linear_in_input_for_fixed_weights(self, rng):
        k = t64(rng.standard_normal((3, 3, 2, 3)))
        b = t64(np.zeros(3))
        x = rng.standard_normal((2, 6, 6, 2))
        y = rng.standard_normal((2, 6, 6, 2))
        alpha, beta = 0.7, -1.3
        lhs = conv2d(t64(alpha * x + beta * y), k, b, pad=1).data
        rhs = alpha * conv2d(t64(x), k, b, pad=1).data + beta * conv2d(t64(y), k, b, pad=1).data
        assert rel_err(lhs, rhs) <= 1e-5


def im2col_slices(x, kh, kw, pad):
    """Column matrix built one kernel offset at a time, rows (n, oh, ow),
    columns (kh, kw, ci)."""
    n, h, w, ci = x.shape
    oh = h + 2 * pad - kh + 1
    ow = w + 2 * pad - kw + 1
    img = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    cols = np.empty((n, oh, ow, kh, kw, ci), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i, j, :] = img[:, i:i + oh, j:j + ow, :]
    return cols.reshape(n * oh * ow, kh * kw * ci), oh, ow


# h > w, and h < w with a single output row at k = 3, pad = 0
CONV_SHAPES = pytest.mark.parametrize("x_shape", [(2, 7, 6, 3), (3, 3, 4, 2)], ids=["7x6", "3x4"])


class TestIm2col:
    @CONV_SHAPES
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_slice_loop_exactly(self, rng, x_shape, k, pad, dtype):
        x = rng.standard_normal(x_shape).astype(dtype)
        cols, oh, ow = _im2col(x, k, k, pad)
        expected, eoh, eow = im2col_slices(x, k, k, pad)
        assert (oh, ow) == (eoh, eow)
        assert cols.dtype == dtype and cols.flags.c_contiguous
        np.testing.assert_array_equal(cols, expected)

    def test_non_contiguous_input(self, rng):
        x = rng.standard_normal((2, 3, 6, 5)).transpose(0, 2, 3, 1)  # (2, 6, 5, 3)
        cols, _, _ = _im2col(x, 3, 3, 1)
        np.testing.assert_array_equal(cols, im2col_slices(x, 3, 3, 1)[0])


def conv2d_columns(x, kernel, bias, g, pad):
    """conv2d's output and its input, kernel and bias gradients for output
    gradient ``g``, by the column formulation: one GEMM against the whole
    (kh*kw*ci, co) weight matrix, its column matrix scattered back one
    column slice at a time in (i, j) order."""
    n, h, w, ci = x.shape
    kh, kw, _, co = kernel.shape
    cols, oh, ow = im2col_slices(x, kh, kw, pad)
    wmat = kernel.reshape(kh * kw * ci, co)
    out = (cols @ wmat + bias).reshape(n, oh, ow, co)
    g2d = g.reshape(n * oh * ow, co)
    gcols = (g2d @ wmat.T).reshape(n, oh, ow, kh, kw, ci)
    gimg = np.zeros((n, h + 2 * pad, w + 2 * pad, ci), dtype=g.dtype)
    for i in range(kh):
        for j in range(kw):
            gimg[:, i:i + oh, j:j + ow, :] += gcols[:, :, :, i, j, :]
    return (out, gimg[:, pad:pad + h, pad:pad + w, :],
            (cols.T @ g2d).reshape(kernel.shape), g2d.sum(axis=0))


class TestConv2dColumnsBitIdentity:
    """conv2d computes its input gradient with one GEMM per kernel tap. Each
    entry is the same dot product over co as in the column formulation, and
    each pixel adds its taps in the same order, so the bits agree as long as
    BLAS computes a dot product the same way in both GEMM shapes. That holds
    for the shapes below and every trunk layer of the shipped configs. It
    does not hold everywhere: with OpenBLAS 0.3.31 (AVX-512 kernels), ci = 1
    (numpy sends a one-column product to gemv) and some products with
    co >= 32 and few rows differ in the last bits."""

    @staticmethod
    def check(rng, x_shape, k, co, pad, dtype):
        x = rng.standard_normal(x_shape).astype(dtype)
        kernel = rng.standard_normal((k, k, x_shape[3], co)).astype(dtype)
        bias = rng.standard_normal(co).astype(dtype)
        tx, tk, tb = (Tensor(a, requires_grad=True) for a in (x, kernel, bias))
        out = conv2d(tx, tk, tb, pad=pad)
        g = rng.standard_normal(out.shape).astype(dtype)
        expected = conv2d_columns(x, kernel, bias, g, pad)
        out_data = out.data
        out.backward(g)
        for got, want in zip((out_data, tx.grad, tk.grad, tb.grad), expected):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @CONV_SHAPES
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_column_formulation_exactly(self, rng, x_shape, k, pad, dtype):
        self.check(rng, x_shape, k, 4, pad, dtype)

    # (input shape, out-channels) of every 3x3 conv whose input needs a
    # gradient in the networks of configs/blobs_small.json and
    # configs/cifar_subset.json, at their batch size of 64
    @pytest.mark.parametrize("x_shape,co", [
        ((64, 8, 8, 4), 4), ((64, 4, 4, 4), 8), ((64, 4, 4, 8), 8),
        ((64, 16, 16, 8), 8), ((64, 8, 8, 8), 16), ((64, 8, 8, 16), 16),
        ((64, 4, 4, 16), 32), ((64, 4, 4, 32), 32),
    ])
    def test_network_layers_match_column_formulation_exactly(self, rng, x_shape, co):
        self.check(rng, x_shape, 3, co, 1, np.float32)


class TestRelu:
    def test_basic(self):
        out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_all_negative(self, rng):
        x = -np.abs(rng.standard_normal((3, 4))) - 0.1
        np.testing.assert_array_equal(relu(t64(x)).data, 0.0)


class TestMaxPool2:
    def test_single_window(self):
        x = t64(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1))
        assert max_pool2(x).data.reshape(()) == 4.0

    def test_tie_routes_to_first_element(self):
        x = Tensor(np.full((1, 2, 2, 1), 7.0, dtype=np.float64), requires_grad=True)
        out = max_pool2(x)
        out.backward(np.ones_like(out.data))
        expected = np.zeros((1, 2, 2, 1))
        expected[0, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_odd_extent_rejected(self):
        with pytest.raises(ShapeMismatchError):
            max_pool2(t64(np.zeros((1, 3, 4, 1))))


class TestGlobalAveragePool:
    def test_single_map(self):
        x = t64(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1))
        assert global_average_pool(x).data.reshape(()) == 2.5

    def test_constant_map(self):
        x = t64(np.full((2, 3, 3, 4), 0.7))
        np.testing.assert_allclose(global_average_pool(x).data, 0.7, rtol=1e-15)


class TestLinear:
    def test_identity_weight(self, rng):
        x = rng.standard_normal((3, 4))
        out = linear(t64(x), t64(np.eye(4)), t64(np.zeros(4)))
        np.testing.assert_allclose(out.data, x, rtol=1e-15)

    def test_zero_weight_broadcasts_bias(self, rng):
        b = rng.standard_normal(5)
        out = linear(t64(rng.standard_normal((3, 4))), t64(np.zeros((4, 5))), t64(b))
        np.testing.assert_allclose(out.data, np.tile(b, (3, 1)), rtol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            linear(t64(np.zeros((2, 3))), t64(np.zeros((4, 5))), t64(np.zeros(5)))

    def test_linear_in_input(self, rng):
        w = t64(rng.standard_normal((5, 3)))
        b = t64(np.zeros(3))
        x, y = rng.standard_normal((2, 5)), rng.standard_normal((2, 5))
        lhs = linear(t64(2.0 * x - 0.5 * y), w, b).data
        rhs = 2.0 * linear(t64(x), w, b).data - 0.5 * linear(t64(y), w, b).data
        assert rel_err(lhs, rhs) <= 1e-5


class TestBatchNorm:
    def test_constant_input_maps_to_zero(self):
        x = t64(np.full((4, 3, 3, 2), 5.0))
        rm, rv = np.zeros(2), np.ones(2)
        out = batch_norm(x, t64(np.ones(2)), t64(np.zeros(2)), rm, rv, mode="train")
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_train_mode_normalizes(self, rng):
        x = t64(rng.standard_normal((8, 4, 4, 3)) * 3.0 + 1.0)
        rm, rv = np.zeros(3), np.ones(3)
        out = batch_norm(x, t64(np.ones(3)), t64(np.zeros(3)), rm, rv, mode="train")
        means = out.data.mean(axis=(0, 1, 2))
        variances = out.data.var(axis=(0, 1, 2))
        assert np.abs(means).max() <= 1e-6
        assert np.abs(variances - 1.0).max() <= 1e-4

    def test_zero_gamma_gives_beta(self, rng):
        x = t64(rng.standard_normal((4, 2, 2, 3)))
        beta = rng.standard_normal(3)
        rm, rv = np.zeros(3), np.ones(3)
        out = batch_norm(x, t64(np.zeros(3)), t64(beta), rm, rv, mode="train")
        np.testing.assert_allclose(out.data, np.broadcast_to(beta, out.shape), rtol=1e-12)

    def test_running_stats_update_and_infer(self, rng):
        x = rng.standard_normal((16, 2, 2, 2)) * 2.0 + 3.0
        rm, rv = np.zeros(2), np.ones(2)
        batch_norm(t64(x), t64(np.ones(2)), t64(np.zeros(2)), rm, rv,
                   mode="train", momentum=0.0)
        np.testing.assert_allclose(rm, x.mean(axis=(0, 1, 2)), rtol=1e-12)
        np.testing.assert_allclose(rv, x.var(axis=(0, 1, 2)), rtol=1e-12)
        out = batch_norm(t64(x), t64(np.ones(2)), t64(np.zeros(2)), rm, rv, mode="infer")
        assert np.abs(out.data.mean(axis=(0, 1, 2))).max() <= 1e-6

    def test_update_stats_flag(self, rng):
        x = t64(rng.standard_normal((4, 2, 2, 2)))
        rm, rv = np.zeros(2), np.ones(2)
        batch_norm(x, t64(np.ones(2)), t64(np.zeros(2)), rm, rv,
                   mode="train", update_stats=False)
        np.testing.assert_array_equal(rm, 0.0)
        np.testing.assert_array_equal(rv, 1.0)


def reduced_shapes(monkeypatch, config, batch):
    """(op, shape) of every leading-axis reduction the layer ops make in a
    forward pass of a shipped config's network at ``batch``: each conv2d
    output (its gradient is what the bias gradient sums) and each batch_norm
    and global_average_pool input."""
    spec = RunConfig.from_file(CONFIGS / f"{config}.json").network
    # built before the ops are wrapped: building walks the trunk at batch 1
    state = build_network(spec, seed=0)
    shapes = set()

    def record(name, of_output):
        op = getattr(network, name)

        def wrapped(*args, **kwargs):
            out = op(*args, **kwargs)
            shapes.add((name, (out if of_output else args[0]).shape))
            return out

        monkeypatch.setattr(network, name, wrapped)

    record("conv2d", True)
    record("batch_norm", False)
    record("global_average_pool", False)
    with no_grad():
        forward_heads(state, np.zeros((batch, *spec.input_shape), np.float32))
    return sorted(shapes)


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


def reduction_mismatches(rng, op, shape, dtype):
    """The quantities of ``op`` at input (for conv2d: output) ``shape`` whose
    bits differ from the .sum/.mean/.var formulation the op used before."""
    x = (rng.standard_normal(shape) * 2 + 1).astype(dtype)
    c = shape[-1]
    if op == "conv2d":
        # a 1x1 conv from one channel, so x is the output gradient whose sum
        # over (n, h, w) is the bias gradient
        bias = Tensor(np.zeros(c, dtype), requires_grad=True)
        out = conv2d(Tensor(np.zeros((*shape[:3], 1), dtype)),
                     Tensor(np.zeros((1, 1, 1, c), dtype)), bias)
        out.backward(x)
        pairs = {"bias grad": (bias.grad, x.reshape(-1, c).sum(axis=0))}
    elif op == "global_average_pool":
        pairs = {"output": (global_average_pool(Tensor(x)).data, x.mean(axis=(1, 2)))}
    elif op == "batch_norm.infer":
        # no reduction in the forward pass, but the same per-channel row
        # arithmetic as train mode
        gamma = rng.uniform(0.5, 1.5, c).astype(dtype)
        beta = rng.standard_normal(c).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        rm = rng.standard_normal(c).astype(dtype)
        rv = rng.uniform(0.5, 2.0, c).astype(dtype)
        inv_std = 1.0 / np.sqrt(rv + 1e-5)
        tx = Tensor(x, requires_grad=True)
        out = batch_norm(tx, Tensor(gamma), Tensor(beta), rm, rv, mode="infer")
        out_data = out.data
        out.backward(g)
        pairs = {"output": (out_data, gamma * ((x - rm) * inv_std) + beta),
                 "input grad": (tx.grad, g * gamma * inv_std)}
    else:
        axes = (0, 1, 2)
        gamma = rng.uniform(0.5, 1.5, c).astype(dtype)
        beta = rng.standard_normal(c).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        mu, var = x.mean(axis=axes), x.var(axis=axes)
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        xhat = (x - mu) * inv_std
        # momentum 0 writes the batch mean and variance to the buffers as is
        rm, rv = np.zeros(c, dtype), np.ones(c, dtype)
        tx, tg, tb = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        out = batch_norm(tx, tg, tb, rm, rv, momentum=0.0)
        out_data = out.data
        out.backward(g)
        pairs = {
            "mean": (rm, mu),
            "variance": (rv, var),
            "output": (out_data, gamma * xhat + beta),
            "beta grad": (tb.grad, g.sum(axis=axes)),
            "gamma grad": (tg.grad, (g * xhat).sum(axis=axes)),
            "input grad": (tx.grad, gamma * inv_std * (
                g - g.mean(axis=axes) - xhat * (g * xhat).mean(axis=axes))),
        }
    return [name for name, (got, want) in pairs.items() if not same_bits(got, want)]


class TestEinsumReductionBits:
    """conv2d's bias gradient, batch_norm and global_average_pool reduce over
    leading NHWC axes with np.einsum, several times faster there than
    add.reduce. Their bits equal .sum/.mean/.var's on this numpy build: an
    observed property, not a documented one, so unlike tests/test_golden.py
    these fail rather than skip on a build where it no longer holds. The
    per-channel arithmetic around them runs on (N*H, W*C) rows; its bits
    must equal the broadcast NHWC formulas', which holds on any build."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("config,batch", [
        ("blobs_small", 64), ("cifar_subset", 64),
        ("cifar_subset", 256),  # an eval batch, run whole
    ])
    def test_shipped_network_shapes(self, monkeypatch, rng, config, batch, dtype):
        shapes = reduced_shapes(monkeypatch, config, batch)
        assert {op for op, _ in shapes} >= {"conv2d", "global_average_pool"}
        shapes += [("batch_norm.infer", shape) for op, shape in shapes if op == "batch_norm"]
        failures = [f"{op} at {shape} in {np.dtype(dtype).name}: {', '.join(names)}"
                    for op, shape in shapes
                    if (names := reduction_mismatches(rng, op, shape, dtype))]
        assert not failures, "bits differ from add.reduce: " + "; ".join(failures)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op,shape", [
        ("conv2d", (64, 7, 7, 5)), ("batch_norm", (64, 7, 7, 5)),
        ("global_average_pool", (64, 7, 7, 5)), ("batch_norm.infer", (64, 7, 7, 5)),
        # one-pixel rows (W = 1) and one row per image (H = 1)
        *((op, shape) for shape in ((64, 7, 1, 5), (64, 1, 7, 5))
          for op in ("conv2d", "batch_norm", "batch_norm.infer", "global_average_pool")),
    ])
    def test_odd_shapes(self, rng, op, shape, dtype):
        assert reduction_mismatches(rng, op, shape, dtype) == []

    @pytest.mark.parametrize("mode", [None, "train", "infer"])
    def test_inputs_left_unchanged(self, rng, mode):
        # the row arithmetic works in place on buffers the op made: no input
        # array, nor the output gradient, may change in forward or backward
        # (mode None is conv2d, the others batch_norm)
        def draw(*shape):
            return rng.uniform(0.5, 1.5, shape).astype(np.float32)

        x = draw(4, 6, 5, 3)
        if mode is None:
            arrays, g = [x, draw(3, 3, 3, 2), draw(2)], draw(4, 6, 5, 2)
        else:
            arrays, g = [x, draw(3), draw(3), draw(3), draw(3)], draw(*x.shape)
        before = [a.tobytes() for a in (*arrays, g)]
        tensors = [Tensor(a, requires_grad=True) for a in arrays[:3]]
        if mode is None:
            out = conv2d(*tensors, pad=1)
        else:
            out = batch_norm(*tensors, *arrays[3:], mode=mode, update_stats=False)
        assert [a.tobytes() for a in (*arrays, g)] == before
        out.backward(g)
        assert [a.tobytes() for a in (*arrays, g)] == before
        assert all(t.grad is not None for t in tensors)

    def test_float32_stays_float32(self, rng):
        # the divisors are Python ints: a float32 array divided by a numpy
        # integer would come out float64
        x, ones, zeros = (a.astype(np.float32) for a in (
            rng.standard_normal((4, 3, 3, 2)), np.ones(2), np.zeros(2)))
        bn = batch_norm(Tensor(x), Tensor(ones), Tensor(zeros), zeros.copy(), ones.copy())
        gap = global_average_pool(bn)
        assert bn.data.dtype == gap.data.dtype == np.float32


class TestResidualAdd:
    def test_add_zero(self, rng):
        a = rng.standard_normal((2, 3, 3, 2))
        out = residual_add(t64(a), t64(np.zeros_like(a)))
        np.testing.assert_array_equal(out.data, a)

    def test_add_negation(self, rng):
        a = rng.standard_normal((2, 3, 3, 2))
        out = residual_add(t64(a), t64(-a))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_random_elementwise(self, rng):
        a, b = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
        np.testing.assert_allclose(residual_add(t64(a), t64(b)).data, a + b, rtol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            residual_add(t64(np.zeros((2, 3))), t64(np.zeros((3, 2))))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3), h=st.integers(1, 9), w=st.integers(1, 9),
    ci=st.integers(1, 3), co=st.integers(1, 3),
    kh=st.integers(1, 3), kw=st.integers(1, 3),
    pad=st.integers(0, 2),
)
def test_conv_output_shape_is_total_function_of_inputs(n, h, w, ci, co, kh, kw, pad):
    oh = h + 2 * pad - kh + 1
    ow = w + 2 * pad - kw + 1
    x = Tensor(np.zeros((n, h, w, ci)))
    k = Tensor(np.zeros((kh, kw, ci, co)))
    b = Tensor(np.zeros(co))
    if oh < 1 or ow < 1:
        with pytest.raises(ShapeMismatchError):
            conv2d(x, k, b, pad=pad)
    else:
        assert conv2d(x, k, b, pad=pad).shape == (n, oh, ow, co)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), h2=st.integers(1, 4), w2=st.integers(1, 4), c=st.integers(1, 3))
def test_pool_and_gap_shapes(n, h2, w2, c):
    x = Tensor(np.zeros((n, 2 * h2, 2 * w2, c)))
    assert max_pool2(x).shape == (n, h2, w2, c)
    assert global_average_pool(x).shape == (n, c)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), d=st.integers(1, 6), c=st.integers(1, 6))
def test_linear_shape(n, d, c):
    out = linear(Tensor(np.zeros((n, d))), Tensor(np.zeros((d, c))), Tensor(np.zeros(c)))
    assert out.shape == (n, c)


def test_oracles_import_only_math_and_numpy():
    # The oracles stay independent of the code they check.
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"math", "numpy"}


def test_every_oracle_is_called_by_verify_or_another_oracle():
    # One set of naive oracles: each serves a check of `msn verify`, directly
    # or through another oracle.
    oracle_tree = ast.parse(Path(oracles.__file__).read_text())
    verify_tree = ast.parse(Path(verify.__file__).read_text())
    public = {f.name for f in oracle_tree.body
              if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}
    called = {node.func.attr for node in ast.walk(verify_tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "oracles"}
    for f in oracle_tree.body:
        if isinstance(f, ast.FunctionDef):
            called |= {node.func.id for node in ast.walk(f) if isinstance(node, ast.Call)
                       and isinstance(node.func, ast.Name) and node.func.id != f.name}
    assert sorted(public - called) == []


def zeros(*shape):
    return t64(np.zeros(shape))


def bn(x, gamma=zeros(3), mode="train"):
    """batch_norm of ``x`` with 3-channel beta and running buffers."""
    return batch_norm(x, gamma, zeros(3), np.zeros(3), np.ones(3), mode=mode)


# Refusals that no other test reaches: the call, its exception type, and the
# parts of the message that name what it refused (a ShapeMismatchError's
# message names the shapes involved).
REFUSALS = [
    pytest.param(lambda: Tensor(np.zeros((1,) * 5)), ShapeMismatchError,
                 ["rank 5", "(1, 1, 1, 1, 1)"], id="Tensor-rank-5"),
    pytest.param(lambda: linear(zeros(2, 3), zeros(3, 2), zeros(2)).backward(np.zeros(3)),
                 ShapeMismatchError, ["(3,)", "(2, 2)"], id="backward-seed-shape"),
    pytest.param(lambda: accumulate_grad(Tensor(np.zeros((2, 3)), requires_grad=True),
                                         np.zeros((3, 2))),
                 ShapeMismatchError, ["(3, 2)", "(2, 3)"], id="accumulate_grad-shape"),
    pytest.param(lambda: conv2d(zeros(4, 4, 1), zeros(3, 3, 1, 1), zeros(1)),
                 ShapeMismatchError, ["(4, 4, 1)", "(3, 3, 1, 1)"], id="conv2d-rank"),
    pytest.param(lambda: conv2d(zeros(1, 4, 4, 1), zeros(3, 3, 1, 2), zeros(3)),
                 ShapeMismatchError, ["(3,)", "(3, 3, 1, 2)"], id="conv2d-bias"),
    pytest.param(lambda: conv2d(zeros(1, 4, 4, 1), zeros(3, 3, 1, 1), zeros(1), pad=-1),
                 ValueError, ["pad=-1"], id="conv2d-negative-pad"),
    pytest.param(lambda: max_pool2(zeros(4, 4, 1)), ShapeMismatchError, ["(4, 4, 1)"],
                 id="max_pool2-rank"),
    pytest.param(lambda: global_average_pool(zeros(2, 3)), ShapeMismatchError, ["(2, 3)"],
                 id="global_average_pool-rank"),
    pytest.param(lambda: linear(zeros(2, 3, 1), zeros(3, 2), zeros(2)), ShapeMismatchError,
                 ["(2, 3, 1)", "(3, 2)"], id="linear-rank"),
    pytest.param(lambda: linear(zeros(2, 3), zeros(3, 2), zeros(3)), ShapeMismatchError,
                 ["(3,)", "(3, 2)"], id="linear-bias"),
    pytest.param(lambda: bn(zeros(2, 3)), ShapeMismatchError, ["(2, 3)"], id="batch_norm-rank"),
    pytest.param(lambda: bn(zeros(1, 2, 2, 3), gamma=zeros(2)), ShapeMismatchError,
                 ["(2,)/(3,)", "(1, 2, 2, 3)"], id="batch_norm-gamma"),
    pytest.param(lambda: bn(zeros(1, 2, 2, 3), mode="eval"), ValueError, ["'eval'"],
                 id="batch_norm-mode"),
    pytest.param(lambda: weighted_sum(zeros(2, 3), np.zeros((3, 2))), ShapeMismatchError,
                 ["(3, 2)", "(2, 3)"], id="weighted_sum-weights"),
    pytest.param(lambda: grad_check(relu, [np.zeros(2)]), ValueError, ["scalar", "(2,)"],
                 id="grad_check-non-scalar"),
]


@pytest.mark.parametrize("call,error,named", REFUSALS)
def test_refusal_names_what_it_refuses(call, error, named):
    with pytest.raises(Exception) as exc:
        call()
    assert type(exc.value) is error
    assert [part for part in named if part not in str(exc.value)] == []

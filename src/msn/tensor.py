"""Dense tensors with reverse-mode autodiff and the layer ops the networks need.

Layout conventions (fixed everywhere in this package):
  activations  (N, H, W, C)       batch, height, width, channels
  conv kernels (Kh, Kw, Ci, Co)   kernel height/width, in-channels, out-channels

Training runs in float32; gradient checking requires float64 (see grad_check).

Per-channel arithmetic runs on (N*H, W*C) rows (``_rows``): broadcasting a
(C,) vector over NHWC gives numpy an inner loop only C floats long.

Ops record their inputs and a backward closure only when the result needs a
gradient; inside ``no_grad()`` none does, so a forward pass builds no graph. A
graph can be backpropagated once: ``Tensor.backward`` releases it as it goes.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Sequence

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible. Message names both shapes."""


class NonFiniteError(FloatingPointError):
    """Raised when a NaN or Inf shows up where only finite values are allowed."""


def check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values in {what}")


def _no_backward() -> None:
    pass


def _released() -> None:
    raise RuntimeError("backward() through a graph that was already backpropagated; "
                       "each graph can be backpropagated once, so run the forward pass again")


_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Within this block ops build no graph: results record no inputs, attach
    no backward closure and have ``requires_grad`` False. Values are unchanged."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Tensor:
    """A dense array plus its gradient and the provenance needed for backprop.

    ``data`` and ``grad`` always share shape and dtype. ``_prev`` holds the
    input tensors of the producing op and ``_backward`` accumulates gradients
    into them; ``_result`` sets both. Leaves, and results that need no
    gradient, have no provenance.
    """

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if arr.ndim > 4:
            raise ShapeMismatchError(f"rank {arr.ndim} tensor not supported (shape {arr.shape})")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._prev = ()
        self._backward: Callable[[], None] = _no_backward

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Reverse accumulation from this node, visiting each node exactly once.

        ``seed`` defaults to 1 for scalars; non-scalar roots must supply one.
        Each node drops its backward closure and its inputs once the closure
        has run, so the graph is freed by reference counting when this returns
        (the closure refers to its own node, a cycle otherwise left to the
        cyclic collector). A second call through a released graph raises.
        """
        if self._backward is _released:
            _released()
        if seed is None:
            if self.data.ndim != 0:
                raise ValueError("backward() on a non-scalar tensor needs an explicit seed")
            seed = np.ones_like(self.data)
        seed = np.asarray(seed, dtype=self.data.dtype)
        if seed.shape != self.data.shape:
            raise ShapeMismatchError(
                f"seed shape {seed.shape} does not match tensor shape {self.data.shape}")

        order = _topo_order(self)
        self.grad = seed if self.grad is None else self.grad + seed
        while order:
            node = order.pop()
            node._backward()
            if node._prev:
                node._prev = ()
                node._backward = _released


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS; recursion would overflow on deep networks.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for child in node._prev:
            if id(child) not in visited:
                stack.append((child, False))
    return order


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad`` (out-of-place, so upstream buffers stay intact)."""
    if not t.requires_grad:
        return
    g = np.asarray(g, dtype=t.data.dtype)
    if g.shape != t.data.shape:
        raise ShapeMismatchError(
            f"gradient shape {g.shape} does not match value shape {t.data.shape}")
    t.grad = g if t.grad is None else t.grad + g


def _result(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[], None]) -> Tensor:
    """The output node of an op, holding ``data``.

    Only when grad mode is on and some parent needs a gradient does the node
    record ``parents`` and ``backward``; otherwise the closure, and every
    buffer it holds (im2col columns, pooling windows), is dropped here. An op
    defines ``backward`` first, as a closure that reads the node, by the name
    it is bound to, only when it runs: ``return (out := _result(..., _bw))``.
    """
    out = Tensor(data)
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# layer operations
# ---------------------------------------------------------------------------

def _rows(a: np.ndarray, *per_channel: np.ndarray):
    """``a`` (N, H, W, C) as (N*H, W*C) rows, then each (C,) vector tiled W
    times to span a row. Each element meets the same channel entry as under
    broadcasting, so elementwise results keep their bits. The rows are a view
    of a contiguous ``a``; write only to buffers the caller made."""
    n, h, w, c = a.shape
    return (a.reshape(n * h, w * c), *(np.tile(v, w) for v in per_channel))


def _im2col(x: np.ndarray, kh: int, kw: int, pad: int):
    n, h, w, ci = x.shape
    oh = h + 2 * pad - kh + 1
    ow = w + 2 * pad - kw + 1
    if pad:
        # zero only the border, then copy the input into the interior
        img = np.empty((n, h + 2 * pad, w + 2 * pad, ci), x.dtype)
        img[:, :pad] = 0
        img[:, pad + h:] = 0
        img[:, pad:pad + h, :pad] = 0
        img[:, pad:pad + h, pad + w:] = 0
        img[:, pad:pad + h, pad:pad + w] = x
    else:
        img = x
    # one read-only (n, oh, ow, kh, kw, ci) window view of the padded input;
    # the reshape makes the one contiguous copy (or none, for a 1x1 kernel)
    s0, s1, s2, s3 = img.strides
    windows = np.lib.stride_tricks.as_strided(
        img, shape=(n, oh, ow, kh, kw, ci),
        strides=(s0, s1, s2, s1, s2, s3), writeable=False)
    return windows.reshape(n * oh * ow, kh * kw * ci), oh, ow


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, *, pad: int = 0) -> Tensor:
    """Cross-correlation at stride 1 with zero padding.

    ``x`` is NHWC, ``kernel`` is (Kh, Kw, Ci, Co), ``bias`` is (Co,). Output
    shape is (N, H+2p-Kh+1, W+2p-Kw+1, Co).
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeMismatchError(
            f"conv2d needs rank-4 input and kernel, got {x.shape} and {kernel.shape}")
    n, h, w, ci = x.shape
    kh, kw, kci, co = kernel.shape
    if ci != kci:
        raise ShapeMismatchError(
            f"input channels {x.shape} do not match kernel in-channels {kernel.shape}")
    if bias.data.shape != (co,):
        raise ShapeMismatchError(
            f"bias shape {bias.data.shape} does not match out-channels of kernel {kernel.shape}")
    if pad < 0:
        raise ValueError(f"invalid pad={pad}")
    if h + 2 * pad < kh or w + 2 * pad < kw:
        raise ShapeMismatchError(
            f"conv2d output would be empty for input {x.shape}, kernel {kernel.shape}, "
            f"pad {pad}")

    cols, oh, ow = _im2col(x.data, kh, kw, pad)
    wmat = kernel.data.reshape(kh * kw * ci, co)
    y = (cols @ wmat).reshape(n, oh, ow, co)
    y_rows, bias_row = _rows(y, bias.data)
    y_rows += bias_row

    def _bw():
        g2d = out.grad.reshape(n * oh * ow, co)
        if bias.requires_grad:
            accumulate_grad(bias, np.einsum('ij->j', g2d))
        if kernel.requires_grad:
            accumulate_grad(kernel, (cols.T @ g2d).reshape(kh, kw, ci, co))
        if x.requires_grad:
            # one GEMM per kernel tap, so each add below reads one contiguous
            # tap. An entry is the dot product over co that the column matrix
            # g2d @ wmat.T holds, and each pixel adds its taps in (i, j) order
            # from zero: where BLAS sums a dot product alike for both shapes
            # (every layer of the shipped networks) the bits equal a column
            # scatter's
            gtaps = np.matmul(g2d, wmat.reshape(kh * kw, ci, co).transpose(0, 2, 1))
            gtaps = gtaps.reshape(kh, kw, n, oh, ow, ci)
            gimg = np.zeros((n, h + 2 * pad, w + 2 * pad, ci), dtype=out.grad.dtype)
            for i in range(kh):
                for j in range(kw):
                    gimg[:, i:i + oh, j:j + ow, :] += gtaps[i, j]
            accumulate_grad(x, gimg[:, pad:pad + h, pad:pad + w, :])

    return (out := _result(y, (x, kernel, bias), _bw))


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient 0 at exactly 0."""

    def _bw():
        accumulate_grad(x, out.grad * (x.data > 0))

    return (out := _result(np.maximum(x.data, 0), (x,), _bw))


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; gradient goes to the first (row-major) max."""
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"max_pool2 needs a rank-4 input, got {x.shape}")
    n, h, w, c = x.shape
    if h % 2 or w % 2:
        raise ShapeMismatchError(f"max_pool2 needs even spatial extents, got {x.shape}")
    win = x.data.reshape(n, h // 2, 2, w // 2, 2, c)
    rows = np.maximum(win[:, :, :, :, 0], win[:, :, :, :, 1])  # each window row's max

    def _bw():
        # the first row-major max: row 0 unless row 1's max is larger, then
        # column 0 of that row unless column 1 is larger
        row0 = rows[:, :, 0] >= rows[:, :, 1]
        col0 = win[:, :, :, :, 0] >= win[:, :, :, :, 1]
        g = out.grad
        g_rows = np.stack((g * row0, g * ~row0), axis=2)
        gx = np.stack((g_rows * col0, g_rows * ~col0), axis=4)
        accumulate_grad(x, gx.reshape(n, h, w, c))

    return (out := _result(np.maximum(rows[:, :, 0], rows[:, :, 1]), (x,), _bw))


def global_average_pool(x: Tensor) -> Tensor:
    """Per-channel spatial mean: (N, H, W, C) -> (N, C)."""
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"global_average_pool needs a rank-4 input, got {x.shape}")
    n, h, w, c = x.shape

    def _bw():
        g = out.grad[:, None, None, :] / (h * w)
        accumulate_grad(x, np.broadcast_to(g, (n, h, w, c)))

    return (out := _result(np.einsum('nhwc->nc', x.data) / (h * w), (x,), _bw))


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map (N, d) @ (d, c) + (c,) -> (N, c)."""
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ShapeMismatchError(
            f"linear needs rank-2 input and weight, got {x.shape} and {weight.shape}")
    if x.shape[1] != weight.shape[0]:
        raise ShapeMismatchError(
            f"linear inner dimensions disagree: input {x.shape}, weight {weight.shape}")
    if bias.data.shape != (weight.shape[1],):
        raise ShapeMismatchError(
            f"bias shape {bias.data.shape} does not match weight {weight.shape}")

    def _bw():
        g = out.grad
        if x.requires_grad:
            accumulate_grad(x, g @ weight.data.T)
        if weight.requires_grad:
            accumulate_grad(weight, x.data.T @ g)
        if bias.requires_grad:
            accumulate_grad(bias, g.sum(axis=0))

    return (out := _result(x.data @ weight.data + bias.data, (x, weight, bias), _bw))


# Added to the variance under batch_norm's square root.
BN_EPS = 1e-5


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               mode: str = "train", momentum: float = 0.9,
               update_stats: bool = True) -> Tensor:
    """Per-channel normalization of an NHWC input over its batch and spatial axes.

    Train mode normalizes by batch statistics and, unless ``update_stats`` is
    False, folds them into the running buffers (in place). Infer mode uses the
    running buffers. ``running_mean``/``running_var`` are plain arrays owned by
    the caller, not part of the autodiff graph.
    """
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"batch_norm needs a rank-4 input, got {x.shape}")
    c = x.shape[-1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeMismatchError(
            f"gamma/beta shapes {gamma.data.shape}/{beta.data.shape} do not match "
            f"channel count of input {x.shape}")
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown batch_norm mode {mode!r}")
    # einsum over the leading axes gives add.reduce's bits there, 3-5x faster
    # (tests/test_tensor_ops.py pins the equality); m is a Python int, so a
    # float32 sum divided by it stays float32
    m = x.data.size // c

    if mode == "train":
        mu = np.einsum('nhwc->c', x.data) / m
    else:
        mu = running_mean.astype(x.data.dtype, copy=False)
    x_rows, mu_row = _rows(x.data, mu)
    # x - mu in a fresh buffer, normalised in place once the variance is known
    xhat = (x_rows - mu_row).reshape(x.shape)
    if mode == "train":
        var = np.einsum('nhwc->c', xhat * xhat) / m  # numpy's two-pass biased variance
        if update_stats:
            running_mean[:] = momentum * running_mean + (1.0 - momentum) * mu
            running_var[:] = momentum * running_var + (1.0 - momentum) * var
    else:
        var = running_var.astype(x.data.dtype, copy=False)

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat_rows, inv_std_row, gamma_row, beta_row = _rows(xhat, inv_std, gamma.data, beta.data)
    xhat_rows *= inv_std_row
    y = xhat_rows * gamma_row
    y += beta_row

    def _bw():
        g = out.grad
        gsum = np.einsum('nhwc->c', g)
        gxhat_sum = np.einsum('nhwc->c', g * xhat)
        if beta.requires_grad:
            accumulate_grad(beta, gsum)
        if gamma.requires_grad:
            accumulate_grad(gamma, gxhat_sum)
        if x.requires_grad:
            if mode == "train":
                g_rows, gmean_row, gxhat_mean_row, scale_row = _rows(
                    g, gsum / m, gxhat_sum / m, gamma.data * inv_std)
                gx = g_rows - gmean_row
                gx -= xhat_rows * gxhat_mean_row
                gx *= scale_row
            else:
                g_rows, gamma_row, inv_std_row = _rows(g, gamma.data, inv_std)
                gx = g_rows * gamma_row
                gx *= inv_std_row
            accumulate_grad(x, gx.reshape(x.shape))

    return (out := _result(y.reshape(x.shape), (x, gamma, beta), _bw))


def residual_add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shaped tensors; gradient copies to both."""
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(
            f"residual_add shapes disagree: {a.data.shape} vs {b.data.shape}")

    def _bw():
        accumulate_grad(a, out.grad)
        accumulate_grad(b, out.grad)

    return (out := _result(a.data + b.data, (a, b), _bw))


def weighted_sum(x: Tensor, weights: np.ndarray) -> Tensor:
    """Scalar projection sum(x * weights) for a constant weight array.

    Mainly a reduction head for gradient checking individual ops.
    """
    weights = np.asarray(weights, dtype=x.data.dtype)
    if weights.shape != x.data.shape:
        raise ShapeMismatchError(
            f"weights shape {weights.shape} does not match input {x.data.shape}")

    def _bw():
        accumulate_grad(x, out.grad * weights)

    return (out := _result(np.asarray((x.data * weights).sum(), dtype=x.data.dtype), (x,), _bw))


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

def grad_check(f: Callable[..., Tensor], inputs: Sequence[np.ndarray],
               eps: float | None = None) -> float:
    """Worst relative error between reverse-mode and central-difference gradients.

    ``f`` maps one Tensor per entry of ``inputs`` to a scalar Tensor and must be
    free of side effects (re-evaluated many times). Inputs must be float64.
    The per-coordinate step is ``eps`` when given, else 1e-5 * max(1, |x|).
    Relative error is |a - n| / max(1, |a|, |n|).
    """
    arrays = [np.asarray(a) for a in inputs]
    for a in arrays:
        if a.dtype != np.float64:
            raise ValueError("grad_check requires float64 inputs")
        check_finite(a, "grad_check input")

    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = f(*tensors)
    if out.data.ndim != 0:
        raise ValueError("grad_check expects f to return a scalar tensor")
    check_finite(out.data, "grad_check output")
    out.backward()
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]
    for g in analytic:
        check_finite(g, "reverse-mode gradient")

    def eval_at(pts: list[np.ndarray]) -> float:
        with no_grad():
            v = f(*[Tensor(p) for p in pts]).data
        check_finite(v, "grad_check evaluation")
        return float(v)

    worst = 0.0
    for k, base in enumerate(arrays):
        flat = base.reshape(-1)
        for i in range(flat.size):
            step = eps if eps is not None else 1e-5 * max(1.0, abs(flat[i]))
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[k].reshape(-1)[i] += step
            minus[k].reshape(-1)[i] -= step
            numeric = (eval_at(plus) - eval_at(minus)) / (2.0 * step)
            a_val = float(analytic[k].reshape(-1)[i])
            rel = abs(a_val - numeric) / max(1.0, abs(a_val), abs(numeric))
            if rel > worst:
                worst = rel
    return worst

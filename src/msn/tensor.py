"""Dense tensors with reverse-mode autodiff and the layer ops the networks need.

Layout conventions (fixed everywhere in this package):
  activations  (N, H, W, C)       batch, height, width, channels
  conv kernels (Kh, Kw, Ci, Co)   kernel height/width, in-channels, out-channels

Training runs in float32; gradient checking requires float64 (see grad_check).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible. Message names both shapes."""


class NonFiniteError(FloatingPointError):
    """Raised when a NaN or Inf shows up where only finite values are allowed."""


def check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values in {what}")


class Tensor:
    """A dense array plus its gradient and the provenance needed for backprop.

    ``data`` and ``grad`` always share shape and dtype. ``_prev`` holds the
    input tensors of the producing op and ``_backward`` accumulates gradients
    into them; leaves have no provenance.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_prev", "_backward")

    def __init__(self, data, requires_grad: bool = False, _prev: tuple = (), op: str = "leaf"):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if arr.ndim > 4:
            raise ShapeMismatchError(f"rank {arr.ndim} tensor not supported (shape {arr.shape})")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = op
        self._prev = _prev
        self._backward: Callable[[], None] = lambda: None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, op={self.op})"

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Reverse accumulation from this node, visiting each node exactly once.

        ``seed`` defaults to 1 for scalars; non-scalar roots must supply one.
        """
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
        for node in reversed(order):
            node._backward()


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


def _result(data: np.ndarray, parents: Sequence[Tensor], op: str) -> Tensor:
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, _prev=tuple(parents), op=op)


# ---------------------------------------------------------------------------
# layer operations
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    n, h, w, ci = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    img = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else x
    cols = np.empty((n, oh, ow, kh, kw, ci), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i, j, :] = img[:, i:i + stride * oh:stride, j:j + stride * ow:stride, :]
    return cols.reshape(n * oh * ow, kh * kw * ci), oh, ow


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation with zero padding.

    ``x`` is NHWC, ``kernel`` is (Kh, Kw, Ci, Co), ``bias`` is (Co,). Output
    shape is (N, (H+2p-Kh)//s+1, (W+2p-Kw)//s+1, Co).
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
    if stride < 1 or pad < 0:
        raise ValueError(f"invalid stride={stride} or pad={pad}")
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeMismatchError(
            f"conv2d output would be empty for input {x.shape}, kernel {kernel.shape}, "
            f"stride {stride}, pad {pad}")

    cols, oh, ow = _im2col(x.data, kh, kw, stride, pad)
    wmat = kernel.data.reshape(kh * kw * ci, co)
    out2d = cols @ wmat + bias.data
    out = _result(out2d.reshape(n, oh, ow, co), (x, kernel, bias), "conv2d")

    def _bw():
        g2d = out.grad.reshape(n * oh * ow, co)
        if bias.requires_grad:
            accumulate_grad(bias, g2d.sum(axis=0))
        if kernel.requires_grad:
            accumulate_grad(kernel, (cols.T @ g2d).reshape(kh, kw, ci, co))
        if x.requires_grad:
            gcols = (g2d @ wmat.T).reshape(n, oh, ow, kh, kw, ci)
            gimg = np.zeros((n, h + 2 * pad, w + 2 * pad, ci), dtype=out.grad.dtype)
            for i in range(kh):
                for j in range(kw):
                    gimg[:, i:i + stride * oh:stride, j:j + stride * ow:stride, :] += \
                        gcols[:, :, :, i, j, :]
            accumulate_grad(x, gimg[:, pad:pad + h, pad:pad + w, :])

    out._backward = _bw
    return out


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient 0 at exactly 0."""
    out = _result(np.maximum(x.data, 0), (x,), "relu")

    def _bw():
        accumulate_grad(x, out.grad * (x.data > 0))

    out._backward = _bw
    return out


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; gradient goes to the first (row-major) max."""
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"max_pool2 needs a rank-4 input, got {x.shape}")
    n, h, w, c = x.shape
    if h % 2 or w % 2:
        raise ShapeMismatchError(f"max_pool2 needs even spatial extents, got {x.shape}")
    h2, w2 = h // 2, w // 2
    win = x.data.reshape(n, h2, 2, w2, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, h2, w2, 4, c)
    idx = win.argmax(axis=3)
    out_data = np.take_along_axis(win, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    out = _result(out_data, (x,), "max_pool2")

    def _bw():
        gwin = np.zeros((n, h2, w2, 4, c), dtype=out.grad.dtype)
        np.put_along_axis(gwin, idx[:, :, :, None, :], out.grad[:, :, :, None, :], axis=3)
        gx = gwin.reshape(n, h2, w2, 2, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, h, w, c)
        accumulate_grad(x, gx)

    out._backward = _bw
    return out


def global_average_pool(x: Tensor) -> Tensor:
    """Per-channel spatial mean: (N, H, W, C) -> (N, C)."""
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"global_average_pool needs a rank-4 input, got {x.shape}")
    n, h, w, c = x.shape
    out = _result(x.data.mean(axis=(1, 2)), (x,), "global_average_pool")

    def _bw():
        g = out.grad[:, None, None, :] / (h * w)
        accumulate_grad(x, np.broadcast_to(g, (n, h, w, c)))

    out._backward = _bw
    return out


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
    out = _result(x.data @ weight.data + bias.data, (x, weight, bias), "linear")

    def _bw():
        g = out.grad
        if x.requires_grad:
            accumulate_grad(x, g @ weight.data.T)
        if weight.requires_grad:
            accumulate_grad(weight, x.data.T @ g)
        if bias.requires_grad:
            accumulate_grad(bias, g.sum(axis=0))

    out._backward = _bw
    return out


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               mode: str = "train", eps: float = 1e-5, momentum: float = 0.9,
               update_stats: bool | None = None) -> Tensor:
    """Per-channel normalization over the batch (and spatial axes for NHWC input).

    Train mode normalizes by batch statistics and, unless ``update_stats`` is
    False, folds them into the running buffers (in place). Infer mode uses the
    running buffers. ``running_mean``/``running_var`` are plain arrays owned by
    the caller, not part of the autodiff graph.
    """
    if x.data.ndim not in (2, 4):
        raise ShapeMismatchError(f"batch_norm needs a rank-2 or rank-4 input, got {x.shape}")
    c = x.shape[-1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeMismatchError(
            f"gamma/beta shapes {gamma.data.shape}/{beta.data.shape} do not match "
            f"channel count of input {x.shape}")
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown batch_norm mode {mode!r}")
    axes = (0,) if x.data.ndim == 2 else (0, 1, 2)

    if mode == "train":
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        if update_stats is None or update_stats:
            running_mean[:] = momentum * running_mean + (1.0 - momentum) * mu
            running_var[:] = momentum * running_var + (1.0 - momentum) * var
    else:
        mu = running_mean.astype(x.data.dtype, copy=False)
        var = running_var.astype(x.data.dtype, copy=False)

    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std
    out = _result(gamma.data * xhat + beta.data, (x, gamma, beta), "batch_norm")

    m = 1
    for a in axes:
        m *= x.shape[a]

    def _bw():
        g = out.grad
        if beta.requires_grad:
            accumulate_grad(beta, g.sum(axis=axes))
        if gamma.requires_grad:
            accumulate_grad(gamma, (g * xhat).sum(axis=axes))
        if x.requires_grad:
            if mode == "train":
                gmean = g.mean(axis=axes)
                gxhat_mean = (g * xhat).mean(axis=axes)
                accumulate_grad(x, gamma.data * inv_std * (g - gmean - xhat * gxhat_mean))
            else:
                accumulate_grad(x, g * gamma.data * inv_std)

    out._backward = _bw
    return out


def residual_add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shaped tensors; gradient copies to both."""
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(
            f"residual_add shapes disagree: {a.data.shape} vs {b.data.shape}")
    out = _result(a.data + b.data, (a, b), "residual_add")

    def _bw():
        accumulate_grad(a, out.grad)
        accumulate_grad(b, out.grad)

    out._backward = _bw
    return out


def weighted_sum(x: Tensor, weights: np.ndarray) -> Tensor:
    """Scalar projection sum(x * weights) for a constant weight array.

    Mainly a reduction head for gradient checking individual ops.
    """
    weights = np.asarray(weights, dtype=x.data.dtype)
    if weights.shape != x.data.shape:
        raise ShapeMismatchError(
            f"weights shape {weights.shape} does not match input {x.data.shape}")
    out = _result(np.asarray((x.data * weights).sum(), dtype=x.data.dtype), (x,), "weighted_sum")

    def _bw():
        accumulate_grad(x, out.grad * weights)

    out._backward = _bw
    return out


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

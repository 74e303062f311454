"""Independent brute-force oracles used to cross-check the production code,
by `msn verify` and by the tests.

Everything here is deliberately naive (explicit loops, direct formulas) and
imports only ``math`` and ``numpy``, so it shares no code with the rest of
the package.
"""

import math

import numpy as np


def conv2d_loops(x, kernel, bias, pad=0):
    n, h, w, ci = x.shape
    kh, kw, _, co = kernel.shape
    oh = h + 2 * pad - kh + 1
    ow = w + 2 * pad - kw + 1
    padded = np.zeros((n, h + 2 * pad, w + 2 * pad, ci), dtype=np.float64)
    padded[:, pad:pad + h, pad:pad + w, :] = x
    out = np.zeros((n, oh, ow, co), dtype=np.float64)
    for b in range(n):
        for i in range(oh):
            for j in range(ow):
                for o in range(co):
                    acc = 0.0
                    for di in range(kh):
                        for dj in range(kw):
                            for c in range(ci):
                                acc += padded[b, i + di, j + dj, c] * kernel[di, dj, c, o]
                    out[b, i, j, o] = acc + bias[o]
    return out


def conv2d_input_grad_loops(x, kernel, g, pad=0):
    """Input gradient of ``conv2d_loops`` for output gradient ``g``: each
    output entry's gradient, times the kernel weight that joined it to an
    input pixel, added into that pixel, zero padding dropped."""
    n, h, w, ci = x.shape
    kh, kw, _, co = kernel.shape
    _, oh, ow, _ = g.shape
    padded = np.zeros((n, h + 2 * pad, w + 2 * pad, ci), dtype=np.float64)
    for b in range(n):
        for i in range(oh):
            for j in range(ow):
                for o in range(co):
                    for di in range(kh):
                        for dj in range(kw):
                            for c in range(ci):
                                padded[b, i + di, j + dj, c] += \
                                    g[b, i, j, o] * kernel[di, dj, c, o]
    return padded[:, pad:pad + h, pad:pad + w, :]


def max_pool2_loops(x):
    n, h, w, c = x.shape
    out = np.zeros((n, h // 2, w // 2, c), dtype=np.float64)
    for b in range(n):
        for i in range(h // 2):
            for j in range(w // 2):
                for ch in range(c):
                    out[b, i, j, ch] = max(
                        x[b, 2 * i, 2 * j, ch], x[b, 2 * i, 2 * j + 1, ch],
                        x[b, 2 * i + 1, 2 * j, ch], x[b, 2 * i + 1, 2 * j + 1, ch])
    return out


def max_pool2_grad_loops(x, g):
    """Input gradient of 2x2 max pooling: each window's output gradient ``g``
    goes to the first maximum in row-major order, zero elsewhere."""
    n, h, w, c = x.shape
    out = np.zeros((n, h, w, c), dtype=np.float64)
    for b in range(n):
        for i in range(h // 2):
            for j in range(w // 2):
                for ch in range(c):
                    best = None
                    for di in range(2):
                        for dj in range(2):
                            v = x[b, 2 * i + di, 2 * j + dj, ch]
                            if best is None or v > best[0]:
                                best = (v, di, dj)
                    out[b, 2 * i + best[1], 2 * j + best[2], ch] = g[b, i, j, ch]
    return out


def gap_loops(x):
    n, h, w, c = x.shape
    out = np.zeros((n, c), dtype=np.float64)
    for b in range(n):
        for ch in range(c):
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    acc += x[b, i, j, ch]
            out[b, ch] = acc / (h * w)
    return out


def batch_norm_loops(x, gamma, beta, eps=1e-5):
    """Train-mode batch norm: each channel shifted by the mean and scaled by
    the biased variance of its values over every axis but the last."""
    c = x.shape[-1]
    rows = np.asarray(x, dtype=np.float64).reshape(-1, c)
    out = np.zeros_like(rows)
    for ch in range(c):
        vals = [float(v) for v in rows[:, ch]]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        for i, v in enumerate(vals):
            out[i, ch] = gamma[ch] * (v - mean) / math.sqrt(var + eps) + beta[ch]
    return out.reshape(x.shape)


def linear_loops(x, w, bias):
    n, d = x.shape
    c = w.shape[1]
    out = np.zeros((n, c), dtype=np.float64)
    for b in range(n):
        for k in range(c):
            acc = bias[k]
            for i in range(d):
                acc += x[b, i] * w[i, k]
            out[b, k] = acc
    return out


def softmax_direct(q):
    q = np.asarray(q, dtype=np.float64)
    out = np.zeros_like(q)
    for i in range(q.shape[0]):
        exps = [math.exp(v) for v in q[i]]
        s = sum(exps)
        out[i] = [e / s for e in exps]
    return out


def between_class_direct(q, y):
    p = softmax_direct(q)
    n = q.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(q.shape[1]):
            if y[i] == j:
                total -= math.log(p[i, j])
    return total / n


def class_distance_brute(q, y, j):
    idx = [i for i in range(len(y)) if y[i] == j]
    mu = len(idx)
    lam = mu * (mu - 1) // 2
    total = 0.0
    for a in range(mu):
        for b in range(a + 1, mu):
            diff = q[idx[a]] - q[idx[b]]
            total += math.sqrt(float((diff * diff).sum()))
    return total / lam


def within_class_brute(q, y, xi):
    loss = 0.0
    for j in sorted(set(int(v) for v in y)):
        mu = sum(1 for v in y if v == j)
        if mu < 2:
            continue
        d = class_distance_brute(q, y, j)
        loss += max(0.0, d - xi) ** 2
    return loss

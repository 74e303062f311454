"""Self-check suites behind `msn verify`: gradient checks, brute-force oracle
comparisons, and formula invariants.

The oracles are the deliberately naive loop implementations in
`msn.oracles`, kept separate from the production code paths they validate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracles
from .losses import (
    LogitBatch,
    XiState,
    between_class_loss,
    msl_total,
    within_class_loss,
)
from .network import NetworkSpec, attach_msn_loss, build_network, forward_heads
from .tensor import (
    Tensor,
    batch_norm,
    conv2d,
    global_average_pool,
    grad_check,
    linear,
    max_pool2,
    relu,
    residual_add,
    weighted_sum,
)
from .trainer import OptimizerState, TrainConfig, lr_schedule, sgd_momentum_step

SUITES = ("gradcheck", "oracle", "invariants", "all")


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    threshold: float

    # Suites take the worst error with np.maximum, which keeps a NaN that the
    # builtin max drops, or count mismatches, a NaN among them: NaN fails.
    @property
    def passed(self) -> bool:
        return self.worst <= self.threshold

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name} worst_err={self.worst:.3e} threshold={self.threshold:.1e} {status}"


def _rel(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max()) / max(
        1.0, float(np.abs(a).max()), float(np.abs(b).max()))


# ---------------------------------------------------------------------------
# gradient-check suite
# ---------------------------------------------------------------------------

def gradcheck_suite(seed: int = 0) -> list:
    """Finite-difference checks of each layer op, and of the loss w.r.t. its
    logits, on small inputs kept away from ReLU and max-pool kinks."""
    results = []
    rng = np.random.default_rng(seed)

    worst = 0.0
    for pad in (0, 1, 2):
        x = rng.standard_normal((2, 4, 4, 2))
        k = rng.standard_normal((3, 3, 2, 3))
        b = rng.standard_normal(3)
        proj = rng.standard_normal((2, 2 + 2 * pad, 2 + 2 * pad, 3))
        worst = np.maximum(worst, grad_check(
            lambda xt, kt, bt: weighted_sum(conv2d(xt, kt, bt, pad=pad), proj), [x, k, b]))
    results.append(CheckResult("gradcheck/conv2d", worst, 1e-4))

    x = rng.uniform(0.1, 1.5, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
    proj = rng.standard_normal((3, 4))
    err = grad_check(lambda t: weighted_sum(relu(t), proj), [x])
    results.append(CheckResult("gradcheck/relu", err, 1e-7))

    # each 2x2 window holds 0, 0.4, 0.8 and 1.2 in a random order, each
    # jittered by < 0.09, all shifted together: the max lands in any corner,
    # and gaps >= 0.22 keep it there under the finite-difference steps
    windows = rng.permuted(np.tile(np.arange(4.0), (8, 1)), axis=1) * 0.4
    windows += rng.uniform(-0.09, 0.09, (8, 4)) + rng.normal(size=(8, 1)) * 2.0
    x = windows.reshape(1, 2, 2, 2, 2, 2).transpose(0, 1, 4, 2, 5, 3).reshape(1, 4, 4, 2)
    proj = rng.standard_normal((1, 2, 2, 2))
    err = grad_check(lambda t: weighted_sum(max_pool2(t), proj), [x])
    results.append(CheckResult("gradcheck/max_pool2", err, 1e-4))

    x = rng.standard_normal((2, 3, 3, 2))
    proj = rng.standard_normal((2, 2))
    err = grad_check(lambda t: weighted_sum(global_average_pool(t), proj), [x])
    results.append(CheckResult("gradcheck/global_average_pool", err, 1e-7))

    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 3))
    bias = rng.standard_normal(3)
    proj = rng.standard_normal((3, 3))
    err = grad_check(lambda xt, wt, bt: weighted_sum(linear(xt, wt, bt), proj),
                     [x, w, bias])
    results.append(CheckResult("gradcheck/linear", err, 1e-7))

    for mode in ("train", "infer"):
        x = rng.standard_normal((6, 2, 2, 3))
        gamma = rng.uniform(0.5, 1.5, 3)
        beta = rng.standard_normal(3)
        rm, rv = rng.standard_normal(3) * 0.1, rng.uniform(0.5, 1.5, 3)
        proj = rng.standard_normal((6, 2, 2, 3))
        err = grad_check(
            lambda xt, gt, bt: weighted_sum(
                batch_norm(xt, gt, bt, rm, rv, mode=mode, update_stats=False), proj),
            [x, gamma, beta])
        results.append(CheckResult(f"gradcheck/batch_norm_{mode}", err, 1e-4))

    a = rng.standard_normal((2, 3))
    c = rng.standard_normal((2, 3))
    proj = rng.standard_normal((2, 3))
    err = grad_check(lambda at, bt: weighted_sum(residual_add(at, bt), proj), [a, c])
    results.append(CheckResult("gradcheck/residual_add", err, 1e-7))

    labels = np.array([0, 0, 1, 1, 2, 2])
    q0 = rng.standard_normal((6, 3)) * 2
    xi = XiState(initial_xi=0.05)

    def loss_of_logits(t):
        out, _, _ = attach_msn_loss([t], labels, [xi])
        return out

    err = grad_check(loss_of_logits, [q0])
    results.append(CheckResult("gradcheck/msl_vs_logits", err, 1e-6))
    return results


def full_network_problem(seed: int = 0) -> tuple:
    """The averaged loss of a four-head residual network (all blocks attached)
    on a batch of 4, as ``(f, names, arrays)``: ``f`` takes one tensor per
    parameter, in the order of the sorted ``names``, whose float64 values as
    built are ``arrays``."""
    rng = np.random.default_rng(seed + 17)
    spec = NetworkSpec(family="resnet", depth_k=1, width_multiplier=0.25,
                       attachment=(1, 2, 3, 4), num_classes=2, input_shape=(8, 8, 3))
    state = build_network(spec, seed=seed, dtype=np.float64)
    images = rng.standard_normal((4, 8, 8, 3))
    labels = np.array([0, 0, 1, 1])
    xi_states = [XiState(initial_xi=0.05) for _ in state.heads]
    names = sorted(state.params)
    arrays = [state.params[n].data.copy() for n in names]

    def f(*tensors):
        for name, t in zip(names, tensors):
            state.params[name] = t
        logits = forward_heads(state, images, mode="train", update_stats=False)
        out, _, _ = attach_msn_loss(logits, labels, xi_states)
        return out

    return f, names, arrays


def full_network_gradcheck(seed: int = 0) -> CheckResult:
    """Finite-difference check of ``full_network_problem``'s loss w.r.t. every
    parameter."""
    f, _, arrays = full_network_problem(seed)
    # A 1e-7 step keeps the central differences from straddling a ReLU or
    # max-pool kink, which the default 1e-5 step does at some seeds.
    err = grad_check(f, arrays, eps=1e-7)
    return CheckResult("gradcheck/full_msn_config7", err, 1e-4)


# ---------------------------------------------------------------------------
# oracle suite
# ---------------------------------------------------------------------------

def oracle_suite(seed: int = 0) -> list:
    results = []
    rng = np.random.default_rng(seed)

    worst = 0.0
    for pad in (0, 1, 2):
        x = rng.standard_normal((2, 6, 6, 3))
        k = rng.standard_normal((3, 3, 3, 4))
        b = rng.standard_normal(4)
        out = conv2d(Tensor(x), Tensor(k), Tensor(b), pad=pad)
        worst = np.maximum(worst, _rel(out.data, oracles.conv2d_loops(x, k, b, pad)))
    results.append(CheckResult("oracle/conv2d_vs_loops", worst, 1e-12))

    x = rng.standard_normal((2, 8, 8, 3))
    out = max_pool2(Tensor(x))
    results.append(CheckResult("oracle/max_pool2_vs_loops",
                               _rel(out.data, oracles.max_pool2_loops(x)), 0.0))

    x = rng.standard_normal((4, 6))
    w = rng.standard_normal((6, 3))
    b = rng.standard_normal(3)
    out = linear(Tensor(x), Tensor(w), Tensor(b))
    results.append(CheckResult("oracle/linear_vs_loops",
                               _rel(out.data, oracles.linear_loops(x, w, b)), 1e-12))

    x = rng.standard_normal((3, 4, 4, 5))
    out = global_average_pool(Tensor(x))
    results.append(CheckResult("oracle/global_average_pool_vs_mean",
                               _rel(out.data, oracles.gap_loops(x)), 1e-12))

    # between_class_loss's gradient is (p - onehot(y)) / N: recover its p.
    # The labels take no draw, so every later check sees the same numbers.
    q = rng.standard_normal((5, 7)) * 3
    y = np.arange(5)
    _, grad = between_class_loss(LogitBatch(q=q, y=y))
    p = grad * len(q)
    p[np.arange(5), y] += 1.0
    results.append(CheckResult("oracle/softmax_vs_direct",
                               _rel(p, oracles.softmax_direct(q)), 1e-12))

    q = rng.standard_normal((5, 4))
    y = rng.integers(0, 4, 5)
    loss, _ = between_class_loss(LogitBatch(q=q, y=y))
    results.append(CheckResult("oracle/between_class_vs_direct",
                               abs(loss - oracles.between_class_direct(q, y)), 1e-12))

    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        c = int(rng.integers(2, 11))
        q = rng.standard_normal((n, c)) * 3
        y = rng.integers(0, c, n)
        loss, _, _ = within_class_loss(LogitBatch(q=q, y=y), xi=0.5)
        brute = oracles.within_class_brute(q, y, 0.5)
        worst = np.maximum(worst, abs(loss - brute) / max(1.0, abs(brute)))
    results.append(CheckResult("oracle/within_class_vs_all_pairs", worst, 1e-10))

    # Each of the 256 windows over the values {0, 1, 2, 3} at one (image, row,
    # column, channel): all 15 ways four entries can tie, each with every
    # ordering of the tied groups, and an all-zero window, as after a ReLU.
    windows = np.indices((4, 4, 4, 4)).reshape(4, 256).T.astype(np.float64)
    x = windows.reshape(4, 4, 4, 4, 2, 2).transpose(0, 1, 4, 2, 5, 3).reshape(4, 8, 8, 4)
    g = rng.standard_normal((4, 4, 4, 4))
    t = Tensor(x, requires_grad=True)
    max_pool2(t).backward(g)
    results.append(CheckResult("oracle/max_pool2_grad_vs_loops",
                               _rel(t.grad, oracles.max_pool2_grad_loops(x, g)), 0.0))

    # a non-square input, so a swap of height and width shows
    worst = 0.0
    for pad in (0, 1, 2):
        x = rng.standard_normal((2, 7, 6, 3))
        k = rng.standard_normal((3, 3, 3, 4))
        t = Tensor(x, requires_grad=True)
        out = conv2d(t, Tensor(k), Tensor(rng.standard_normal(4)), pad=pad)
        g = rng.standard_normal(out.shape)
        out.backward(g)
        worst = np.maximum(worst, _rel(t.grad, oracles.conv2d_input_grad_loops(x, k, g, pad)))
    results.append(CheckResult("oracle/conv2d_input_grad_vs_loops", worst, 1e-12))

    # offset inputs, so a normalisation that skips the mean shows; the 1x1
    # maps leave each channel one value per image
    worst = 0.0
    for shape in ((8, 4, 4, 3), (5, 7, 7, 5), (6, 1, 1, 2)):
        x = rng.standard_normal(shape) * 2 + 1
        c = shape[-1]
        gamma = rng.uniform(0.5, 1.5, c)
        beta = rng.standard_normal(c)
        out = batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), np.zeros(c), np.ones(c),
                         mode="train", update_stats=False)
        worst = np.maximum(worst, _rel(out.data, oracles.batch_norm_loops(x, gamma, beta)))
    results.append(CheckResult("oracle/batch_norm_vs_loops", worst, 1e-12))
    return results


# ---------------------------------------------------------------------------
# invariant suite
# ---------------------------------------------------------------------------

def invariant_suite(seed: int = 0) -> list:
    results = []
    rng = np.random.default_rng(seed)

    worst = 0  # mismatched values; NaN != NaN, so a NaN counts too
    for _ in range(100):
        c = int(rng.integers(2, 11))
        n = int(rng.integers(1, c + 1))
        q = rng.standard_normal((n, c)) * 3
        y = rng.permutation(c)[:n]  # distinct labels: every class has mu <= 1
        batch = LogitBatch(q=q, y=y)
        breakdown, grad = msl_total(batch, xi=0.5)
        ce, ce_grad = between_class_loss(batch)
        worst += ((breakdown.total != ce) + (breakdown.within != 0.0)
                  + np.count_nonzero(grad != ce_grad))
    results.append(CheckResult("invariant/singleton_batch_reduces_to_ce", worst, 0.0))

    worst = 0.0
    for count in (1, 2, 3, 4):
        n, c = 24, 6
        y = rng.integers(0, c, n)
        logits = [Tensor(rng.standard_normal((n, c)) * 2, requires_grad=True)
                  for _ in range(count)]
        xis = [0.1 * (i + 1) for i in range(count)]
        loss, aggregate, per_head = attach_msn_loss(
            logits, y, [XiState(initial_xi=xi) for xi in xis])
        mean_total = math.fsum(bd.total for bd in per_head) / count
        worst = np.maximum(worst, abs(aggregate.total - mean_total))
        # each head's breakdown, and its gradient / count, are msl_total's for
        # that head alone at its xi, bit for bit: a mismatch adds 1 >> 1e-12
        loss.backward()
        for t, xi, bd in zip(logits, xis, per_head):
            alone, grad = msl_total(LogitBatch(q=t.data, y=y), xi=xi)
            worst += (bd != alone) + np.count_nonzero(t.grad != grad * (1.0 / count))
    results.append(CheckResult("invariant/head_averaging", worst, 1e-12))

    # reordering a batch leaves the total (relative to max(1, |total|)) and
    # the classes with a distance, and permutes the gradient's rows
    worst = 0.0
    for _ in range(60):
        n, c = int(rng.integers(1, 17)), int(rng.integers(2, 7))
        q = rng.uniform(-5.0, 5.0, (n, c))
        y = rng.integers(0, c, n)
        perm = rng.permutation(n)
        a, grad_a = msl_total(LogitBatch(q=q, y=y), xi=0.5)
        b, grad_b = msl_total(LogitBatch(q=q[perm], y=y[perm]), xi=0.5)
        rel_total = abs(a.total - b.total) / max(1.0, abs(a.total))
        worst = np.maximum(worst, np.maximum(rel_total, np.abs(grad_a[perm] - grad_b).max()))
        worst += a.per_class_distance.keys() != b.per_class_distance.keys()
    results.append(CheckResult("invariant/permutation_invariance", worst, 1e-12))

    y = np.array([0, 0, 0, 1, 1])
    worst = 0.0
    for _ in range(60):
        q = rng.uniform(-5.0, 5.0, (5, 3))
        _, _, dist_a = within_class_loss(LogitBatch(q=q, y=y), xi=0.5)
        shifted = q.copy()
        shifted[:3] += rng.uniform(-5.0, 5.0, 3)
        _, _, dist_b = within_class_loss(LogitBatch(q=shifted, y=y), xi=0.5)
        worst = np.maximum(worst, abs(dist_a[0] - dist_b[0]))
    results.append(CheckResult("invariant/class_shift_distance", worst, 1e-9))

    # the defaults but the window: from 0.5, x0.9 per plateau of 2 * window
    # values down to the 1e-4 floor, where one more plateau leaves it. xi
    # holds until a plateau's last value, and each decay clears the history.
    expected = [0.5]
    while expected[-1] > 1e-4:
        expected.append(max(1e-4, expected[-1] * 0.9))
    expected.append(1e-4)
    worst = 0
    for window in (1, 5, 100):
        state = XiState(window=window)
        for before, after in zip(expected, expected[1:]):
            for _ in range(2 * window - 1):
                state.update(1.0)
                worst += state.xi != before
            state.update(1.0)
            worst += (state.xi != after) + (len(state.history) != 0)
    results.append(CheckResult("invariant/xi_forced_plateau_sequence", worst, 0.0))

    # constant within a period, and x0.9 (to 1e-12) at each period's start
    cfg = TrainConfig(iterations=1, lr_period=20)
    violations = 0.0
    prev = lr_schedule(cfg, 0)
    for i in range(1, 100):
        cur = lr_schedule(cfg, i)
        if i % 20:
            violations += cur != prev
        else:
            violations += abs(cur - prev * cfg.lr_decay) > 1e-12 * prev
        prev = cur
    results.append(CheckResult("invariant/lr_schedule_shape", violations, 0.0))

    momentum, lr = 0.9, 0.01
    grads = rng.standard_normal(8)
    w = Tensor(np.zeros(1))
    opt_state = OptimizerState.zeros_like({"w": w})
    for g in grads:
        w.grad = np.array([g])
        sgd_momentum_step({"w": w}, opt_state, lr, momentum)
    w_closed = -lr * sum(g * (1 - momentum ** (len(grads) - i)) / (1 - momentum)
                         for i, g in enumerate(grads))
    results.append(CheckResult("invariant/momentum_unrolled_recurrence",
                               abs(w.data[0] - w_closed), 1e-12))

    worst = 0.0
    for _ in range(50):
        n, c = int(rng.integers(1, 20)), int(rng.integers(2, 8))
        batch = LogitBatch(q=rng.standard_normal((n, c)) * 3, y=rng.integers(0, c, n))
        bd, _ = msl_total(batch, xi=0.3)
        worst += sum(not v >= 0.0 for v in (bd.between, bd.within))  # NaN counts too
    results.append(CheckResult("invariant/non_negative_losses", worst, 0.0))
    return results


def run_suites(which: str, seed: int = 0) -> list:
    if which not in SUITES:
        raise ValueError(f"unknown suite {which!r}, expected one of {SUITES}")
    results = []
    if which in ("gradcheck", "all"):
        results.extend(gradcheck_suite(seed))
        results.append(full_network_gradcheck(seed))
    if which in ("oracle", "all"):
        results.extend(oracle_suite(seed))
    if which in ("invariants", "all"):
        results.extend(invariant_suite(seed))
    return results

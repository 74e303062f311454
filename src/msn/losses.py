"""Mixture separability loss: between-class cross-entropy, within-class
pairwise-distance hinge, the adaptive threshold, and their analytic gradients.

All computations here are plain float64 numpy on logit matrices; hooking the
gradients into the autodiff graph is the network module's job.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .tensor import check_finite

ZERO_DISTANCE_GUARD = 1e-12


@dataclass(frozen=True)
class LogitBatch:
    """Post-FC logits q (N, c) with integer labels y (N,).

    The one place logits are validated: shape, label range and finiteness
    (``NonFiniteError``). The loss terms below trust a constructed batch.
    """

    q: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        if q.ndim != 2 or q.shape[0] < 1 or q.shape[1] < 2:
            raise ValueError(f"logits must be (N>=1, c>=2), got shape {q.shape}")
        if y.shape != (q.shape[0],):
            raise ValueError(f"labels shape {y.shape} does not match logits {q.shape}")
        if y.size and (y.min() < 0 or y.max() >= q.shape[1]):
            raise ValueError(f"labels must lie in [0, {q.shape[1]}), got range "
                             f"[{y.min()}, {y.max()}]")
        check_finite(q, "logits")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.q.shape[0]


def pair_count(mu: int) -> int:
    """Number of unordered same-class pairs: mu choose 2, and 0 for mu < 2."""
    return mu * (mu - 1) // 2 if mu >= 2 else 0


@dataclass
class XiState:
    """Adaptive threshold below which within-class spread is not penalized.

    Decays by ``decay`` whenever the within-class loss plateaus: the last
    ``window`` values and the ``window`` before them differ by less than
    ``plateau_tol`` in relative terms. The history clears after each decay,
    and the threshold never drops below ``floor``.
    """

    initial_xi: float = 0.5
    decay: float = 0.9
    window: int = 100
    plateau_tol: float = 1e-3
    floor: float = 1e-4
    xi: float = field(init=False)
    history: deque = field(init=False, repr=False)

    def __post_init__(self):
        # written so that NaN fails each check; an infinite value fails too
        if not 0 < self.initial_xi < math.inf:
            raise ValueError(f"xi initial must be finite and positive, got {self.initial_xi}")
        if not (0 < self.decay < 1):
            raise ValueError(f"xi decay must lie in (0, 1), got {self.decay}")
        if not (1 <= self.window <= sys.maxsize // 2):  # deque(maxlen=2 * window) fits
            raise ValueError(f"xi window must lie in [1, {sys.maxsize // 2}], got {self.window}")
        if not 0 <= self.plateau_tol < math.inf:
            raise ValueError(f"xi plateau_tol must be finite and non-negative, "
                             f"got {self.plateau_tol}")
        if not 0 <= self.floor < math.inf:
            raise ValueError(f"xi floor must be finite and non-negative, got {self.floor}")
        self.xi = self.initial_xi
        self.history = deque(maxlen=2 * self.window)

    def update(self, within_loss: float) -> None:
        self.history.append(float(within_loss))
        if len(self.history) == 2 * self.window:
            values = list(self.history)
            prev = sum(values[:self.window]) / self.window
            recent = sum(values[self.window:]) / self.window
            if abs(recent - prev) / max(prev, 1e-12) < self.plateau_tol:
                self.xi = max(self.floor, self.xi * self.decay)
                self.history.clear()


@dataclass(frozen=True)
class XiConfig:
    """The settings of each head's XiState, as the config's ``train.xi`` block
    names them; XiState checks their ranges."""

    initial: float = XiState.initial_xi
    decay: float = XiState.decay
    window: int = XiState.window
    plateau_tol: float = XiState.plateau_tol
    floor: float = XiState.floor

    def __post_init__(self):
        self.state()

    def state(self) -> XiState:
        return XiState(initial_xi=self.initial, decay=self.decay, window=self.window,
                       plateau_tol=self.plateau_tol, floor=self.floor)


@dataclass(frozen=True)
class LossBreakdown:
    """between + within == total; per_class_distance maps j -> d_j (mu_j >= 2)."""

    between: float
    within: float
    total: float
    per_class_distance: dict

    def mean_distance(self) -> float:
        if not self.per_class_distance:
            return 0.0
        return float(np.mean(list(self.per_class_distance.values())))


def between_class_loss(batch: LogitBatch) -> tuple[float, np.ndarray]:
    """Batch-mean cross-entropy over softmax probabilities.

    Returns the loss and its gradient w.r.t. the logits, (p - onehot(y)) / N.
    The shifted exponentials serve both the log-sum-exp and p.
    """
    q, y = batch.q, batch.y
    n = batch.n
    m = q.max(axis=1, keepdims=True)
    e = np.exp(q - m)
    total = e.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(total[:, 0])
    loss = float(np.mean(lse - q[np.arange(n), y]))
    grad = e / total
    grad[np.arange(n), y] -= 1.0
    grad /= n
    return loss, grad


@functools.cache
def _pair_indices(mu: int) -> tuple:
    """``np.triu_indices(mu, 1)``, made read-only because callers share it."""
    iu = np.triu_indices(mu, 1)
    for rows in iu:
        rows.flags.writeable = False
    return iu


def _pairwise_distance(points: np.ndarray):
    """Mean pairwise Euclidean distance of rows and its gradient w.r.t. each
    row. Pairs closer than ZERO_DISTANCE_GUARD contribute zero gradient."""
    mu = points.shape[0]
    lam = pair_count(mu)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    safe = np.where(dist < ZERO_DISTANCE_GUARD, 1.0, dist)
    unit = diff / safe[:, :, None]
    unit[dist < ZERO_DISTANCE_GUARD] = 0.0
    iu = _pair_indices(mu)
    return float(dist[iu].sum() / lam), unit.sum(axis=1) / lam


def within_class_loss(batch: LogitBatch, xi: float) -> tuple[float, np.ndarray, dict]:
    """Squared hinge on per-class mean pairwise distance exceeding xi.

    Sum over classes with at least two batch samples of max(0, d_j - xi)^2;
    classes with fewer samples contribute nothing. Returns the loss, its
    gradient w.r.t. the logits, and the map j -> d_j.
    """
    if xi <= 0:
        raise ValueError(f"xi must be positive, got {xi}")
    grad = np.zeros_like(batch.q)
    loss = 0.0
    distances: dict[int, float] = {}
    # only the classes with at least two batch samples, in ascending order
    for j in np.flatnonzero(np.bincount(batch.y) >= 2).tolist():
        idx = np.flatnonzero(batch.y == j)
        d, d_grad = _pairwise_distance(batch.q[idx])
        distances[j] = d
        excess = d - xi
        if excess > 0:
            loss += excess * excess
            grad[idx] += 2.0 * excess * d_grad
    return loss, grad, distances


def msl_total(batch: LogitBatch, xi: float,
              within_weight: float = 1.0) -> tuple[LossBreakdown, np.ndarray]:
    """Combined loss: between-class plus (optionally weighted) within-class.

    The weight defaults to 1 so the total is the plain sum of the two terms;
    weight 0 gives the pure cross-entropy baseline on the identical code path.
    """
    between, g_between = between_class_loss(batch)
    within_raw, g_within, distances = within_class_loss(batch, xi)
    within = within_weight * within_raw
    breakdown = LossBreakdown(
        between=between,
        within=within,
        total=between + within,
        per_class_distance=distances,
    )
    return breakdown, g_between + within_weight * g_within

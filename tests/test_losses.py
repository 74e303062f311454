"""Loss formulas against closed forms, brute-force pair oracles, and finite
differences. Their oracle and invariant checks are `msn verify`'s, which
tests/test_gradients.py runs over 25 seeds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from msn import oracles
from msn.losses import (
    LogitBatch,
    XiState,
    _pair_indices,
    between_class_loss,
    msl_total,
    pair_count,
    within_class_loss,
)
from msn.network import attach_msn_loss
from msn.tensor import NonFiniteError, grad_check

finite_floats = st.floats(-5.0, 5.0, allow_nan=False)


def loss_grad_check(q, y, xi=0.5, within_weight=1.0):
    """grad_check's worst relative error for the loss of one head with logits
    ``q``, at a fixed xi."""
    xi_state = XiState(initial_xi=xi)
    return grad_check(lambda t: attach_msn_loss([t], y, [xi_state], within_weight)[0], [q])


def softmax_of(q):
    """The p that between_class_loss computes, read back from its gradient
    (p - onehot(y)) / N with every label 0."""
    n = len(q)
    _, grad = between_class_loss(LogitBatch(q=q, y=np.zeros(n, dtype=np.int64)))
    p = grad * n
    p[:, 0] += 1.0
    return p


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax_of(np.array([[0.0, 0.0, 0.0]])), 1 / 3,
                                   rtol=1e-15)

    def test_two_to_one(self):
        p = softmax_of(np.array([[math.log(2.0), 0.0]]))
        np.testing.assert_allclose(p, [[2 / 3, 1 / 3]], rtol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(q=arrays(np.float64, (3, 4), elements=finite_floats), shift=finite_floats)
    def test_row_shift_invariance(self, q, shift):
        base = softmax_of(q)
        shifted = q.copy()
        shifted[1] += shift
        moved = softmax_of(shifted)
        assert np.abs(moved[1] - base[1]).max() <= 1e-12
        assert np.abs(base.sum(axis=1) - 1.0).max() <= 1e-12


class TestBetweenClassLoss:
    def test_uniform_prediction(self):
        loss, _ = between_class_loss(LogitBatch(q=np.zeros((1, 2)), y=np.array([0])))
        assert abs(loss - math.log(2.0)) <= 1e-12

    def test_confident_prediction_closed_form(self):
        loss, _ = between_class_loss(LogitBatch(q=np.array([[20.0, 0.0]]), y=np.array([0])))
        assert abs(loss - math.log1p(math.exp(-20.0))) <= 1e-15

    def test_batch_is_mean_of_singles(self, rng):
        q = rng.standard_normal((2, 4))
        y = np.array([1, 3])
        both, _ = between_class_loss(LogitBatch(q=q, y=y))
        first, _ = between_class_loss(LogitBatch(q=q[:1], y=y[:1]))
        second, _ = between_class_loss(LogitBatch(q=q[1:], y=y[1:]))
        assert abs(both - (first + second) / 2) <= 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        # within_weight 0 leaves the between-class loss alone
        q = rng.standard_normal((6, 4))
        y = rng.integers(0, 4, 6)
        assert loss_grad_check(q, y, within_weight=0.0) <= 1e-8

    @pytest.mark.parametrize("n,c", [(1, 2), (5, 3), (64, 4), (33, 10)])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_gradient_is_softmax_minus_onehot_bit_for_bit(self, rng, n, c, scale):
        q = rng.standard_normal((n, c)) * scale
        y = rng.integers(0, c, n)
        _, grad = between_class_loss(LogitBatch(q=q, y=y))
        e = np.exp(q - q.max(axis=1, keepdims=True))
        np.testing.assert_array_equal(grad, (e / e.sum(axis=1, keepdims=True) - np.eye(c)[y]) / n)


NON_FINITE = [np.nan, np.inf, -np.inf]


def _logits_with(bad):
    q = np.zeros((4, 3))
    q[2, 1] = bad
    return q, np.array([0, 0, 1, 1])


class TestNonFiniteLogits:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_logit_batch_rejects(self, bad):
        q, y = _logits_with(bad)
        with pytest.raises(NonFiniteError):
            LogitBatch(q=q, y=y)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_within_class_loss_rejects_through_logit_batch(self, bad):
        q, y = _logits_with(bad)
        with pytest.raises(NonFiniteError):
            within_class_loss(LogitBatch(q=q, y=y), xi=0.5)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_msl_total_rejects(self, bad):
        q, y = _logits_with(bad)
        with pytest.raises(NonFiniteError):
            msl_total(LogitBatch(q=q, y=y), xi=0.5)


class TestPairCount:
    @pytest.mark.parametrize("mu,expected", [(0, 0), (1, 0), (2, 1), (3, 3), (5, 10)])
    def test_values(self, mu, expected):
        assert pair_count(mu) == expected


class TestPairIndices:
    @pytest.mark.parametrize("mu", [2, 3, 7])
    def test_cached_triu_indices(self, mu):
        rows, cols = _pair_indices(mu)
        expected_rows, expected_cols = np.triu_indices(mu, 1)
        np.testing.assert_array_equal(rows, expected_rows)
        np.testing.assert_array_equal(cols, expected_cols)
        assert _pair_indices(mu)[0] is rows

    def test_cached_arrays_are_read_only(self):
        for arr in _pair_indices(4):
            with pytest.raises(ValueError):
                arr[0] = 1


def class_distances(batch):
    """The map j -> d_j that within_class_loss returns."""
    return within_class_loss(batch, xi=0.5)[2]


class TestInClassDistance:
    def test_three_four_five(self):
        batch = LogitBatch(q=np.array([[0.0, 0.0], [3.0, 4.0]]), y=np.array([0, 0]))
        assert class_distances(batch)[0] == pytest.approx(5.0, abs=1e-12)

    def test_identical_vectors(self):
        batch = LogitBatch(q=np.ones((3, 4)), y=np.zeros(3, dtype=int))
        assert class_distances(batch)[0] == 0.0

    def test_matches_bruteforce_over_six_pairs(self, rng):
        q = rng.standard_normal((4, 5))
        y = np.zeros(4, dtype=int)
        batch = LogitBatch(q=q, y=y)
        expected = oracles.class_distance_brute(q, y, 0)
        assert abs(class_distances(batch)[0] - expected) <= 1e-12

    def test_single_sample_class_has_no_distance(self):
        batch = LogitBatch(q=np.zeros((3, 2)), y=np.array([0, 1, 1]))
        assert set(class_distances(batch)) == {1}


class TestWithinClassLoss:
    def test_single_class_hinge_value(self):
        batch = LogitBatch(q=np.array([[0.0, 0.0], [3.0, 4.0]]), y=np.array([0, 0]))
        loss, _, dists = within_class_loss(batch, xi=0.5)
        assert loss == pytest.approx(4.5 ** 2, abs=1e-12)
        assert dists[0] == pytest.approx(5.0, abs=1e-12)

    def test_inactive_hinge_gives_zero_loss_and_gradient(self, rng):
        q = rng.standard_normal((6, 3)) * 0.01
        batch = LogitBatch(q=q, y=np.array([0, 0, 0, 1, 1, 1]))
        loss, grad, _ = within_class_loss(batch, xi=10.0)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_zero_distance_pairs_contribute_zero_gradient(self):
        q = np.array([[1.0, 2.0], [1.0, 2.0], [4.0, 6.0]])
        batch = LogitBatch(q=q, y=np.zeros(3, dtype=int))
        loss, grad, _ = within_class_loss(batch, xi=0.1)
        assert np.all(np.isfinite(grad)) and loss > 0

    def test_hinge_is_smooth_at_threshold(self):
        # d approaches xi from above: both loss and gradient shrink to zero.
        xi = 1.0
        for delta in (1e-3, 1e-6):
            d = xi + delta
            q = np.array([[0.0, 0.0], [d, 0.0]])
            batch = LogitBatch(q=q, y=np.array([0, 0]))
            loss, grad, _ = within_class_loss(batch, xi=xi)
            assert loss <= delta ** 2 * (1 + 1e-9)
            assert np.abs(grad).max() <= 2 * delta * (1 + 1e-9)

    def test_rejects_nonpositive_xi(self):
        batch = LogitBatch(q=np.zeros((2, 2)), y=np.array([0, 0]))
        with pytest.raises(ValueError):
            within_class_loss(batch, xi=0.0)


class TestMslTotal:
    def test_total_is_sum_of_parts(self, rng):
        q = rng.standard_normal((16, 4)) * 2
        y = rng.integers(0, 4, 16)
        breakdown, _ = msl_total(LogitBatch(q=q, y=y), xi=0.2)
        assert abs(breakdown.total - (breakdown.between + breakdown.within)) <= 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        q = rng.standard_normal((10, 3)) * 2
        y = rng.integers(0, 3, 10)
        assert loss_grad_check(q, y, xi=0.2) <= 1e-6

    def test_zero_weight_is_pure_cross_entropy(self, rng):
        q = rng.standard_normal((8, 3))
        y = rng.integers(0, 3, 8)
        batch = LogitBatch(q=q, y=y)
        breakdown, grad = msl_total(batch, xi=0.001, within_weight=0.0)
        ce, ce_grad = between_class_loss(batch)
        assert breakdown.total == ce
        np.testing.assert_array_equal(grad, ce_grad)


# Refusals that no other test reaches: the call, its exception type, and the
# parts of the message that name what it refused.
REFUSALS = [
    pytest.param(lambda: LogitBatch(q=np.zeros((3, 1)), y=np.zeros(3, int)), ValueError,
                 ["(N>=1, c>=2)", "(3, 1)"], id="LogitBatch-one-class"),
    pytest.param(lambda: LogitBatch(q=np.zeros((3, 2)), y=np.zeros(2, int)), ValueError,
                 ["(2,)", "(3, 2)"], id="LogitBatch-label-count"),
    pytest.param(lambda: LogitBatch(q=np.zeros((3, 2)), y=np.array([0, 1, 2])), ValueError,
                 ["[0, 2)", "[0, 2]"], id="LogitBatch-label-range"),
]


@pytest.mark.parametrize("call,error,named", REFUSALS)
def test_refusal_names_what_it_refuses(call, error, named):
    with pytest.raises(Exception) as exc:
        call()
    assert type(exc.value) is error
    assert [part for part in named if part not in str(exc.value)] == []

"""Adaptive-threshold schedule: plateau detection and geometric decay. The
forced plateau sequence is `msn verify`'s `invariant/xi_forced_plateau_sequence`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msn.losses import XiState


def feed_constant(state, value, count):
    for _ in range(count):
        state.update(value)


def test_fresh_state_starts_at_half():
    assert XiState().xi == 0.5


def test_changing_loss_does_not_decay():
    state = XiState(window=5)
    for i in range(40):
        state.update(10.0 - 0.2 * i)  # steadily moving, never a plateau
    assert state.xi == 0.5


def test_zero_within_loss_counts_as_plateau():
    state = XiState(window=3)
    feed_constant(state, 0.0, 6)
    assert state.xi == pytest.approx(0.45)


def test_relative_tolerance_scales_with_level():
    # 0.05% relative drift around a large level is still a plateau at tol 1e-3.
    state = XiState(window=4, plateau_tol=1e-3)
    for v in [100.0, 100.0, 100.0, 100.0, 100.02, 100.02, 100.02, 100.02]:
        state.update(v)
    assert state.xi == pytest.approx(0.45)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.floats(0, 100, allow_nan=False), min_size=0, max_size=400),
       window=st.integers(1, 10))
def test_xi_is_monotone_and_floored(values, window):
    state = XiState(window=window)
    seen = [state.xi]
    for v in values:
        state.update(v)
        seen.append(state.xi)
    assert all(a >= b for a, b in zip(seen, seen[1:]))
    assert all(x >= state.floor for x in seen)
    # until the floor binds, xi stays on the geometric grid
    if seen[-1] > state.floor:
        k = round(np.log(seen[-1] / state.initial_xi) / np.log(state.decay))
        assert seen[-1] == pytest.approx(state.initial_xi * state.decay ** k, rel=1e-12)

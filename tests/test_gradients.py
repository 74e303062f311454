"""Reverse-mode gradients of every layer op against central finite differences,
and the mechanics of reverse accumulation.

The per-op checks are `msn verify`'s (`msn.verify.gradcheck_suite`), run here
over 25 seeds; they keep their inputs away from relu and max-pool kinks.
"""

import numpy as np
import pytest

from msn.tensor import (
    NonFiniteError,
    Tensor,
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
from msn.verify import gradcheck_suite


@pytest.mark.parametrize("seed", range(25))
def test_every_op_gradient_matches_finite_differences(seed):
    failed = [r.line() for r in gradcheck_suite(seed) if not r.passed]
    assert not failed


def test_reverse_accumulation_visits_shared_nodes_once():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    y = relu(x)
    z = residual_add(y, y)
    z.backward(np.ones(3))
    # A shared node revisited twice would double the contribution.
    np.testing.assert_array_equal(x.grad, np.array([2.0, 0.0, 2.0]))


def test_gradient_shape_matches_value_shape():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 4, 4, 2)), requires_grad=True)
    k = Tensor(rng.standard_normal((3, 3, 2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    out = conv2d(x, k, b, pad=1)
    out.backward(np.ones_like(out.data))
    for t in (x, k, b):
        assert t.grad.shape == t.data.shape


def test_backward_without_seed_needs_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        relu(x).backward()


def test_grad_check_rejects_float32():
    x = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        grad_check(lambda t: weighted_sum(relu(t), np.ones((2, 2))), [x])


def test_grad_check_rejects_non_finite():
    x = np.array([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        grad_check(lambda t: weighted_sum(relu(t), np.ones(2)), [x])


def every_op(seed):
    """One result of each layer op, on inputs that all need a gradient."""
    rng = np.random.default_rng(seed)

    def param(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    x4, x2 = param(2, 4, 4, 3), param(2, 3)
    return [
        conv2d(x4, param(3, 3, 3, 2), param(2), pad=1),
        relu(x4),
        max_pool2(x4),
        global_average_pool(x4),
        linear(x2, param(3, 4), param(4)),
        batch_norm(x4, param(3), param(3), np.zeros(3), np.ones(3)),
        residual_add(x2, x2),
        weighted_sum(x2, np.ones((2, 3))),
    ]


def test_no_grad_results_record_no_graph():
    with no_grad():
        inside = every_op(0)
    outside = every_op(0)
    for a, b in zip(inside, outside):
        assert a._prev == () and not a.requires_grad, a.op
        assert b._prev and b.requires_grad, b.op
        np.testing.assert_array_equal(a.data, b.data)


def test_no_grad_restores_grad_mode_on_exit():
    x = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ZeroDivisionError):
        with no_grad():
            with no_grad():
                pass
            assert not relu(x).requires_grad
            1 / 0
    assert relu(x).requires_grad


def test_second_backward_through_a_released_graph_raises():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    h = relu(x)
    y = weighted_sum(h, np.ones(3))
    y.backward()
    assert h._prev == () and y._prev == ()
    with pytest.raises(RuntimeError, match="already backpropagated"):
        y.backward()
    np.testing.assert_array_equal(x.grad, [1.0, 0.0, 1.0])
    with pytest.raises(RuntimeError, match="already backpropagated"):
        weighted_sum(h, np.ones(3)).backward()  # a new graph reaching a released node
    x.grad = None
    weighted_sum(relu(x), np.ones(3)).backward()  # a fresh forward pass over the leaf
    np.testing.assert_array_equal(x.grad, [1.0, 0.0, 1.0])


def test_grad_check_differences_build_no_graph():
    built = []
    offset = Tensor(np.ones(3), requires_grad=True)  # a constant that needs a gradient

    def f(t):
        out = weighted_sum(relu(residual_add(t, offset)), np.ones(3))
        built.append(bool(out._prev))
        return out

    grad_check(f, [np.array([1.0, -3.0, 3.0])])
    assert built == [True] + [False] * 6

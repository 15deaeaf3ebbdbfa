"""Tests for the dual-averaging sparse baseline."""

import math

import numpy as np
import pytest

from saew.baselines import (
    HYPERPARAMETER_GRID,
    RdaState,
    rda_init,
    rda_predict,
    rda_step,
)


def test_init_at_origin():
    state = rda_init(d=3, gamma=1.0, rho=0.5, lam=0.1)
    np.testing.assert_array_equal(state.theta, np.zeros(3))
    np.testing.assert_array_equal(state.grad_sum, np.zeros(3))
    assert state.t == 0
    np.testing.assert_array_equal(rda_predict(state), np.zeros(3))


def test_init_validation():
    with pytest.raises(ValueError, match="gamma"):
        rda_init(d=2, gamma=0.0)
    with pytest.raises(ValueError, match="gamma"):
        rda_init(d=2, gamma=-1.0)
    with pytest.raises(ValueError, match="rho"):
        rda_init(d=2, gamma=1.0, rho=-0.1)
    with pytest.raises(ValueError, match="lambda"):
        rda_init(d=2, gamma=1.0, lam=-0.1)
    with pytest.raises(ValueError, match="d must"):
        rda_init(d=0, gamma=1.0)


def test_zero_gradients_keep_origin():
    state = rda_init(d=2, gamma=1.0, rho=0.3, lam=0.2)
    for _ in range(10):
        rda_step(state, np.zeros(2))
        np.testing.assert_array_equal(state.theta, np.zeros(2))


def test_mean_below_lambda_gives_full_sparsity():
    # |mean gradient| <= lambda in every coordinate: theta is exactly 0.
    state = rda_init(d=3, gamma=2.0, rho=0.0, lam=0.5)
    rda_step(state, np.array([0.4, -0.5, 0.1]))
    np.testing.assert_array_equal(state.theta, np.zeros(3))


def test_constant_unit_gradients_closed_form():
    # d=1, lambda=rho=0, gamma=1, gradients all 1: theta_{t+1} = -sqrt(t).
    state = rda_init(d=1, gamma=1.0, rho=0.0, lam=0.0)
    for t in range(1, 20):
        rda_step(state, np.ones(1))
        assert state.theta[0] == pytest.approx(-math.sqrt(t), rel=1e-12)


def test_gradient_mean_is_exact():
    rng = np.random.default_rng(8)
    state = rda_init(d=4, gamma=1.0)
    grads = rng.normal(size=(500, 4))
    total = np.zeros(4)
    for g in grads:
        rda_step(state, g)
        total += g
        np.testing.assert_array_equal(state.grad_sum / state.t,
                                      total / state.t)


def test_soft_threshold_coordinates_exactly_zero():
    # Coordinates whose mean is inside the threshold are exactly 0; the
    # others are shrunk toward zero by lam_t.
    rng = np.random.default_rng(15)
    state = rda_init(d=6, gamma=1.5, rho=0.2, lam=0.3)
    for _ in range(50):
        rda_step(state, rng.normal(scale=0.5, size=6))
        lam_t = state.lam + state.gamma * state.rho / math.sqrt(state.t)
        grad_mean = state.grad_sum / state.t
        inside = np.abs(grad_mean) <= lam_t
        assert np.all(state.theta[inside] == 0.0)
        outside = ~inside
        expected = -(math.sqrt(state.t) / state.gamma) * (
            grad_mean[outside] - lam_t * np.sign(grad_mean[outside]))
        np.testing.assert_allclose(state.theta[outside], expected, rtol=1e-12)


def test_sparsity_monotone_in_lambda():
    # Running identical streams with growing lambda never increases the
    # number of nonzeros.
    rng = np.random.default_rng(4)
    grads = rng.normal(size=(200, 8)) + 0.3
    nnz = []
    for lam in (0.0, 0.1, 0.3, 1.0, 3.0):
        state = rda_init(d=8, gamma=1.0, rho=0.0, lam=lam)
        for g in grads:
            rda_step(state, g)
        nnz.append(int(np.count_nonzero(state.theta)))
    assert nnz == sorted(nnz, reverse=True)


def test_rho_increases_early_sparsity():
    rng = np.random.default_rng(44)
    grads = rng.normal(scale=0.2, size=(5, 6))
    plain = rda_init(d=6, gamma=1.0, rho=0.0, lam=0.0)
    sparse = rda_init(d=6, gamma=1.0, rho=1.0, lam=0.0)
    for g in grads:
        rda_step(plain, g)
        rda_step(sparse, g)
    assert np.count_nonzero(sparse.theta) <= np.count_nonzero(plain.theta)


def test_step_rejects_bad_gradients():
    state = rda_init(d=2, gamma=1.0)
    with pytest.raises(ValueError, match="finite"):
        rda_step(state, np.array([np.inf, 0.0]))
    for bad in ([np.inf, -np.inf], [np.nan, 1.0], [1e200, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            rda_step(state, np.array(bad))
    with pytest.raises(ValueError, match="shape"):
        rda_step(state, np.zeros(3))
    assert state.t == 0


def test_step_takes_a_finite_gradient_whose_squares_overflow():
    # The finiteness check sums squares: 1e200 overflows it, and the
    # entry-by-entry scan then finds every entry finite.
    state = rda_init(d=2, gamma=1.0, rows=2)
    rda_step(state, np.array([[1e200, 0.0], [0.0, 1.0]]))
    assert state.t == 1 and np.isfinite(state.theta).all()
    np.testing.assert_array_equal(state.theta[1], [0.0, -1.0])


def test_hyperparameter_grid_is_log_decade():
    assert HYPERPARAMETER_GRID[0] == pytest.approx(1e-5)
    assert HYPERPARAMETER_GRID[-1] == pytest.approx(1e3)
    ratios = [HYPERPARAMETER_GRID[i + 1] / HYPERPARAMETER_GRID[i]
              for i in range(len(HYPERPARAMETER_GRID) - 1)]
    assert all(r == pytest.approx(10.0) for r in ratios)


def test_state_is_inplace_and_returned():
    state = rda_init(d=2, gamma=1.0)
    out = rda_step(state, np.array([1.0, -1.0]))
    assert out is state and state.t == 1

"""Tests for the exponentiated-gradient ball optimizer and its certificate."""

import math

import numpy as np
import pytest

from saew.core import L1Ball, ball_contains
from saew.subroutine import (
    EGState,
    RegretCertificate,
    eg_certificate,
    eg_init,
)


def _ball(d=2, radius=1.0, center=None):
    if center is None:
        center = np.zeros(d)
    return L1Ball(center=np.asarray(center, float), radius=radius)


def _weights(state):
    """Normalized simplex weights over the ``2d`` corners."""
    w = np.exp(state.log_w - np.max(state.log_w))
    return w / w.sum()


def _corner_regret(ball, B, gradients):
    """Run EG on a gradient sequence; return (regret vs best corner, v2)."""
    state = eg_init(ball, B)
    learner_loss = 0.0
    grad_sum = np.zeros(ball.dimension)
    for g in gradients:
        theta = state.predict()
        learner_loss += float(g @ theta)
        state.update(g)
        grad_sum += g
    # Best fixed corner of the ball in hindsight: center -+ radius on the
    # largest-|sum| coordinate.
    best_corner_loss = float(grad_sum @ ball.center) - ball.radius * float(
        np.max(np.abs(grad_sum))) if ball.dimension else 0.0
    return learner_loss - best_corner_loss, state.v2


# ============================================================
# RegretCertificate / eg_certificate
# ============================================================

def test_certificate_d1_values():
    cert = eg_certificate(1)
    assert cert.a == pytest.approx(2.0 * math.sqrt(2.0 * math.log(2.0)), rel=1e-12)
    assert cert.a == pytest.approx(2.3548, abs=5e-4)
    assert cert.b == pytest.approx(2.0 + 2.0 * math.log(2.0), rel=1e-12)


def test_certificate_monotone_in_dimension():
    a_values = [eg_certificate(d).a for d in (1, 2, 5, 10, 100)]
    assert all(x < y for x, y in zip(a_values, a_values[1:]))


def test_certificate_rejects_bad_dimension():
    with pytest.raises(ValueError):
        eg_certificate(0)


def test_certificate_rejects_negative_constants():
    with pytest.raises(ValueError):
        RegretCertificate(a=-1.0, b=0.0)


# ============================================================
# eg_init
# ============================================================

def test_init_uniform_weights_d2():
    state = eg_init(_ball(d=2), B=1.0)
    np.testing.assert_allclose(_weights(state), np.full(4, 0.25), rtol=1e-15)
    assert state.v2 == 0.0


def test_init_uniform_weights_d1():
    state = eg_init(_ball(d=1), B=1.0)
    np.testing.assert_allclose(_weights(state), np.array([0.5, 0.5]),
                               rtol=1e-15)


def test_init_rejects_nonpositive_B():
    with pytest.raises(ValueError):
        eg_init(_ball(), B=0.0)
    with pytest.raises(ValueError):
        eg_init(_ball(), B=-1.0)


# ============================================================
# predict
# ============================================================

def test_predict_uniform_weights_returns_center():
    center = np.array([0.3, -0.2, 1.0])
    state = eg_init(_ball(d=3, radius=0.7, center=center), B=1.0)
    np.testing.assert_allclose(state.predict(), center, atol=1e-15)


def test_predict_weighted_d1():
    # Weights (0.75, 0.25) on corners (+1, -1) => 0.75 - 0.25 = 0.5.
    state = EGState(ball=_ball(d=1), B=1.0,
                    log_w=np.log(np.array([0.75, 0.25])))
    np.testing.assert_allclose(state.predict(), np.array([0.5]), rtol=1e-12)


def test_predict_vertex_weight():
    center = np.array([1.0, 2.0])
    state = EGState(ball=_ball(d=2, radius=0.5, center=center), B=1.0,
                    log_w=np.array([0.0, -1e9, -1e9, -1e9]))  # all on +e_1
    np.testing.assert_allclose(state.predict(), np.array([1.5, 2.0]),
                               rtol=1e-12)


def test_predict_degenerate_radius_returns_center():
    center = np.array([0.4, -0.4])
    state = eg_init(_ball(d=2, radius=0.0, center=center), B=1.0)
    state.update(np.array([1.0, -1.0]))
    np.testing.assert_allclose(state.predict(), center, atol=0.0)


def _from_scratch_prediction(state):
    center, radius = state.ball.center, state.ball.radius
    if radius == 0.0:
        return center
    d = state.ball.dimension
    w = np.exp(state.log_w - np.max(state.log_w))
    return center + radius / w.sum() * (w[:d] - w[d:])


def _rebuilt(state):
    """A copy built from the stored fields, as a snapshot restore does."""
    return EGState(ball=state.ball, B=state.B, log_w=state.log_w.copy(),
                   grad_sum=state.grad_sum.copy(), v2=state.v2,
                   b_hat=state.b_hat, t=state.t)


@pytest.mark.parametrize("radius", [0.8, 0.0])
def test_stored_prediction_matches_from_scratch(radius):
    rng = np.random.default_rng(29)
    state = eg_init(_ball(d=3, radius=radius, center=rng.normal(size=3)),
                    B=2.0)
    states = [state]
    for step in range(60):
        if step == 30:
            states.append(_rebuilt(state))
        g = np.zeros(3) if step % 4 == 3 else rng.uniform(-2.0, 2.0, size=3)
        for s in states:
            before = s.predict()
            held = before.copy()
            s.update(g)
            # The previous prediction is never written into.
            np.testing.assert_array_equal(before, held)
            pred = s.predict()
            assert pred.tobytes() == _from_scratch_prediction(s).tobytes()
            with pytest.raises(ValueError):
                pred[0] = 1.0
        assert states[-1].predict().tobytes() == state.predict().tobytes()


# ============================================================
# update
# ============================================================

def test_update_zero_gradient_is_noop():
    state = eg_init(_ball(d=2), B=1.0)
    state.update(np.array([0.5, -0.5]))
    w_before, v2_before = _weights(state), state.v2
    state.update(np.zeros(2))
    np.testing.assert_array_equal(_weights(state), w_before)
    assert state.v2 == v2_before


def test_update_moves_weight_away_from_gradient():
    state = eg_init(_ball(d=1), B=1.0)
    state.update(np.array([1.0]))  # gradient +B favors the -1 corner
    w = _weights(state)
    assert w[1] > w[0]
    assert state.predict()[0] < 0.0


def test_update_rejects_nonfinite_gradient():
    state = eg_init(_ball(d=2), B=1.0)
    with pytest.raises(ValueError):
        state.update(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        state.update(np.array([np.inf, 0.0]))


def test_update_rejects_dimension_mismatch():
    state = eg_init(_ball(d=2), B=1.0)
    with pytest.raises(ValueError):
        state.update(np.zeros(3))


def test_update_warns_when_gradient_exceeds_declared_bound():
    state = eg_init(_ball(d=1), B=1.0)
    with pytest.warns(RuntimeWarning):
        state.update(np.array([2.5]))
    # Continues operating with the observed running max.
    assert state.b_hat == 2.5


def test_v2_accumulates_squared_sup_norms():
    state = eg_init(_ball(d=2), B=3.0)
    state.update(np.array([1.0, -2.0]))
    state.update(np.array([0.5, 0.0]))
    assert state.v2 == pytest.approx(4.0 + 0.25, rel=1e-15)


def test_weights_stay_simplex_under_random_updates():
    rng = np.random.default_rng(11)
    state = eg_init(_ball(d=4, radius=0.3, center=rng.normal(size=4)), B=2.0)
    for _ in range(300):
        state.update(rng.uniform(-2.0, 2.0, size=4))
        w = _weights(state)
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert state.v2 >= 0.0


def test_predictions_stay_in_ball():
    rng = np.random.default_rng(23)
    for trial in range(20):
        d = int(rng.integers(1, 6))
        ball = _ball(d=d, radius=float(rng.uniform(0.0, 2.0)),
                     center=rng.normal(size=d))
        state = eg_init(ball, B=1.0)
        for _ in range(50):
            assert ball_contains(ball, state.predict())
            state.update(rng.uniform(-1.0, 1.0, size=d))


# ============================================================
# Regret certificate property
# ============================================================

def test_regret_random_sequences_within_certificate():
    rng = np.random.default_rng(5)
    B = 1.5
    for trial in range(100):
        d = int(rng.integers(1, 5))
        radius = float(rng.uniform(0.1, 2.0))
        ball = _ball(d=d, radius=radius, center=rng.normal(size=d))
        T = int(rng.integers(1, 120))
        grads = rng.uniform(-B, B, size=(T, d))
        regret, v2 = _corner_regret(ball, B, grads)
        cert = eg_certificate(d)
        bound = radius * (cert.a * math.sqrt(v2) + cert.b * B)
        assert regret <= bound + 1e-9, (
            f"trial {trial}: regret {regret} exceeds certificate {bound}")


def test_regret_adversarial_sign_flips_within_certificate():
    # Alternating +-B on a cycling coordinate is the classic worst case for
    # exponential weights; the certificate must still hold with margin.
    B = 1.0
    for d in (1, 2, 3):
        ball = _ball(d=d, radius=1.0)
        T = 200
        grads = np.zeros((T, d))
        for t in range(T):
            grads[t, t % d] = B if t % 2 == 0 else -B
        regret, v2 = _corner_regret(ball, B, grads)
        cert = eg_certificate(d)
        bound = 1.0 * (cert.a * math.sqrt(v2) + cert.b * B)
        assert regret <= bound + 1e-9


def test_regret_scale_invariance():
    # Same gradients, radius scaled by c: regret stays below the scaled bound.
    rng = np.random.default_rng(17)
    B = 1.0
    grads = rng.uniform(-B, B, size=(80, 3))
    cert = eg_certificate(3)
    for c in (0.1, 1.0, 10.0):
        ball = _ball(d=3, radius=c)
        regret, v2 = _corner_regret(ball, B, grads)
        bound = c * (cert.a * math.sqrt(v2) + cert.b * B)
        assert regret <= bound + 1e-9

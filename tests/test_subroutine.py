"""Tests for the exponentiated-gradient ball optimizer and its certificate."""

import math
import warnings

import numpy as np
import pytest

from saew.core import L1Ball, ball_contains
from saew.subroutine import (
    OVER_B_WARNING,
    EGBank,
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
    log_w = state._log_weights()
    w = np.exp(log_w - np.max(log_w))
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
    # With b_hat = v2 = 1 the learning rate is sqrt(ln 2), and this gradient
    # sum gives weights (0.75, 0.25) on corners (+1, -1) => 0.75 - 0.25.
    grad_sum = np.array([-math.log(3.0) / (2.0 * math.sqrt(math.log(2.0)))])
    state = EGState(ball=_ball(d=1), B=1.0, grad_sum=grad_sum, v2=1.0,
                    b_hat=1.0)
    np.testing.assert_allclose(_weights(state), [0.75, 0.25], rtol=1e-12)
    np.testing.assert_allclose(state.predict(), np.array([0.5]), rtol=1e-12)


def test_predict_vertex_weight():
    center = np.array([1.0, 2.0])
    state = EGState(ball=_ball(d=2, radius=0.5, center=center), B=1.0,
                    grad_sum=np.array([-1e9, 0.0]), v2=1.0, b_hat=1.0)
    np.testing.assert_array_equal(_weights(state), [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(state.predict(), np.array([1.5, 2.0]),
                               rtol=1e-12)


def test_log_weights_follow_gradient_sums():
    rng = np.random.default_rng(3)
    d, radius = 3, 0.6
    state = eg_init(_ball(d=d, radius=radius), B=2.0)
    np.testing.assert_array_equal(state._log_weights(), np.zeros(2 * d))
    for _ in range(20):
        state.update(rng.uniform(-2.0, 2.0, size=d))
    eta = min(1.0 / (radius * state.b_hat),
              math.sqrt(math.log(2 * d)) / (radius * math.sqrt(state.v2)))
    log_w = np.concatenate((-eta * radius * state.grad_sum,
                            eta * radius * state.grad_sum))
    np.testing.assert_allclose(state._log_weights(), log_w - log_w.max(),
                               rtol=1e-12, atol=1e-12)
    assert state._log_weights().max() == 0.0


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
    log_w = state._log_weights()
    w = np.exp(log_w - np.max(log_w))
    return center + radius / w.sum() * (w[:d] - w[d:])


def _rebuilt(state):
    """A copy built from the stored fields, as a snapshot restore does."""
    return EGState(ball=state.ball, B=state.B,
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


def test_update_takes_a_gradient_whose_square_underflows():
    # 1e-170 squared underflows, so v2 stays 0 while b_hat > 0: the rate
    # falls back to 1 / (radius * b_hat) instead of dividing by zero.
    state = eg_init(_ball(d=2, radius=0.5), B=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state.update(np.array([1e-170, 0.0]))
    assert state.v2 == 0.0 and state.b_hat == 1e-170
    step = (1.0 / (0.5 * 1e-170)) * 0.5 * state.grad_sum
    log_w = np.concatenate((-step, step))
    np.testing.assert_array_equal(state._log_weights(), log_w - log_w.max())
    assert np.all(np.isfinite(state.predict()))


@pytest.mark.parametrize("radius", [1.0, 0.5])
def test_update_of_the_smallest_subnormal_predicts_in_the_ball(radius):
    # 1 / (radius * 5e-324) overflows (radius 1) or divides by zero
    # (radius 0.5, where the product rounds to 0): the learning rate is
    # +inf, and the weights are its limit, all on the corner -e_1.
    state = eg_init(_ball(d=2, radius=radius), B=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state.update(np.array([5e-324, 0.0]))
        np.testing.assert_array_equal(state._log_weights(),
                                      [-np.inf, -np.inf, 0.0, -np.inf])
        np.testing.assert_array_equal(state.predict(), [-radius, 0.0])
    assert ball_contains(state.ball, state.predict())
    # A gradient sum of ties shares the weight between the tied corners.
    state = eg_init(_ball(d=3, radius=radius), B=1.0)
    state.update(np.array([5e-324, 0.0, -5e-324]))
    np.testing.assert_array_equal(state.predict(),
                                  [-radius / 2, 0.0, radius / 2])


def test_update_rejects_overflowing_gradient_unchanged():
    state = eg_init(_ball(d=2), B=1.0)
    state.update(np.array([0.5, -0.25]))
    before = (state.t, state.v2, state.b_hat, state.grad_sum.copy(),
              state.predict())
    for g in ([1e200, 0.0], [0.0, -1.5e154]):
        with pytest.raises(ValueError, match="finite"):
            state.update(np.array(g))
    assert (state.t, state.v2, state.b_hat) == before[:3]
    np.testing.assert_array_equal(state.grad_sum, before[3])
    assert state.predict() is before[4]


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


def test_update_warns_once_per_instance_without_numbers():
    state = eg_init(_ball(d=2), B=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for g in ([0.5, 0.0], [2.5, 0.0], [0.0, 3.5], [1.5, -4.0]):
            state.update(np.array(g))
        assert len(caught) == 1
        assert caught[0].category is RuntimeWarning
        assert not any(ch.isdigit() for ch in str(caught[0].message))
        # A fresh instance warns again.
        eg_init(_ball(d=2), B=1.0).update(np.array([0.0, -2.0]))
        assert len(caught) == 2
    assert state.b_hat == 4.0


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


# ============================================================
# EGBank
# ============================================================

def _bank_gradients(rng, n, d, steps):
    """Gradient rows with zero rows, subnormal sup-norms, squares that
    underflow and values above B."""
    for step in range(steps):
        g = rng.uniform(-2.0, 2.0, size=(n, d))
        g[step % n] = 0.0 if step % 3 == 0 else g[step % n]
        if step == 4:
            g[1] = [5e-324] + [0.0] * (d - 1)
        if step == 5:
            g[2] *= 1e-170
        yield g


def test_bank_rows_match_eg_states_bit_for_bit():
    rng = np.random.default_rng(5)
    d = 3
    radii = [0.7, 1.0, 0.5, 0.0, 2.0]
    centers = rng.normal(size=(len(radii), d))
    bank = EGBank(centers, radii, [1.5] * len(radii),
                  [f"row {r}" for r in range(len(radii))])
    states = [eg_init(_ball(d=d, radius=r, center=c), B=1.5)
              for r, c in zip(radii, centers)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for step, g in enumerate(_bank_gradients(rng, len(radii), d, 40), 1):
            if step == 20:
                # A fresh forecaster in another ball, as a session close.
                bank.reset(2, np.array([0.1, 0.0, -0.2]), 0.25)
                states[2] = eg_init(_ball(d=d, radius=0.25,
                                          center=[0.1, 0.0, -0.2]), B=1.5)
            bank.update(g)
            for r, state in enumerate(states):
                state.update(g[r])
                assert (bank.prediction[r].tobytes()
                        == state.predict().tobytes()), (step, r)
                assert (bank.v2[r], bank.b_hat[r]) == (state.v2, state.b_hat)
                assert bank.grad_sum[r].tobytes() == state.grad_sum.tobytes()


@pytest.mark.parametrize("radius", [1.0, 0.5])
def test_bank_takes_the_smallest_subnormal_like_eg_state(radius):
    bank = EGBank(np.zeros((2, 2)), [radius, 1.0], [1.0, 1.0], ["a", "b"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bank.update(np.array([[5e-324, 0.0], [0.5, -0.25]]))
    state = eg_init(_ball(d=2, radius=radius), B=1.0)
    state.update(np.array([5e-324, 0.0]))
    np.testing.assert_array_equal(bank.prediction[0], [-radius, 0.0])
    assert bank.prediction[0].tobytes() == state.predict().tobytes()


def test_bank_warns_at_most_once_per_update_and_forecaster():
    bank = EGBank(np.zeros((3, 2)), [1.0] * 3, [1.0, 1.0, 5.0], ["a", "b", "c"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bank.update(np.array([[2.0, 0.0], [0.0, 3.0], [2.0, 0.0]]))
        bank.update(np.array([[4.0, 0.0], [0.0, 0.5], [4.0, 0.0]]))
        assert [str(w.message) for w in caught] == [OVER_B_WARNING]
        bank.reset(0, np.zeros(2), 1.0)
        bank.update(np.array([[0.0, 1.5], [0.5, 0.0], [6.0, 0.0]]))
    assert [w.category for w in caught] == [RuntimeWarning] * 2


def test_bank_rejects_bad_gradients_naming_row_and_step():
    bank = EGBank(np.zeros((2, 2)), [1.0, 1.0], [1.0, 1.0],
                  ["seed 7", "seed 9"])
    bank.update(np.array([[0.5, 0.0], [0.0, 0.5]]))
    before = (bank.v2.copy(), bank.b_hat.copy(), bank.grad_sum.copy(),
              bank.prediction.copy())
    for g, label in (([[0.5, 0.0], [np.nan, 0.0]], "seed 9"),
                     ([[np.inf, 0.0], [0.5, 0.0]], "seed 7"),
                     ([[0.1, 0.0], [0.0, -1.5e154]], "seed 9")):
        with pytest.raises(ValueError, match=f"^{label}: .* step 2 "):
            with np.errstate(over="ignore"):
                bank.update(np.array(g))
    for got, want in zip((bank.v2, bank.b_hat, bank.grad_sum,
                          bank.prediction), before):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("shape", [(1, 5), (3, 1), (5,), (3, 6)],
                         ids=["one_row", "one_column", "vector", "wide"])
def test_bank_rejects_a_misshaped_gradient_stack(shape):
    # (1, d) and (N, 1) would broadcast over every row.
    bank = EGBank(np.zeros((3, 5)), [1.0] * 3, [1.0] * 3, ["a", "b", "c"])
    bank.update(np.full((3, 5), 0.25))
    before = (bank.v2.copy(), bank.b_hat.copy(), bank.grad_sum.copy(),
              bank.prediction.copy())
    with pytest.raises(ValueError, match=r"shape .*, expected \(3, 5\)$"):
        bank.update(np.ones(shape))
    for got, want in zip((bank.v2, bank.b_hat, bank.grad_sum,
                          bank.prediction), before):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("radius,B,labels", [
    ([1.0] * 3, [1.0] * 3, ["a", "b"]),
    ([1.0] * 2, [1.0] * 3, ["a", "b", "c"]),
    ([1.0] * 3, [1.0] * 4, ["a", "b", "c"]),
], ids=["short_labels", "short_radii", "long_B"])
def test_bank_needs_one_radius_B_and_label_per_row(radius, B, labels):
    # A short label list would turn a gradient error into an IndexError.
    with pytest.raises(ValueError, match=(
            f"^3 forecasters need 3 radii, B values and labels, got "
            f"{len(radius)}, {len(B)} and {len(labels)}$")):
        EGBank(np.zeros((3, 2)), radius, B, labels)

"""Tests for the acceleration wrapper (sessions, radii, estimators)."""

import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import saew.engine
from saew.bounds import (
    a_prime,
    b_prime,
    delta_i,
    err_bound,
    radius_bound,
    session_length_bound,
)
from saew.calibration import Grid, GridEntry, _fit_candidates, build_grid
from saew.core import BALL_TOL, L1Ball, ProblemParams, ball_contains, l1_norm
from saew.engine import (
    SNAPSHOT_VERSION,
    SaewState,
    WrapperBank,
    _next_session,
    saew_estimators,
    saew_init,
    saew_restore,
    saew_snapshot,
    saew_step,
    truncate_top,
)
from saew.losses import (
    make_quantile_env,
    make_square_env,
    make_truncated_square_env,
    pinball_subgrad,
    square_grad,
)
from saew.subroutine import OVER_B_WARNING, RegretCertificate


# ============================================================
# Helpers
# ============================================================

def _square_oracle_factory(env, T):
    """Per-step gradient oracles for a square-loss environment."""
    x, y = env.draw(T)

    def oracle_at(t):
        def oracle(theta):
            return 2.0 * (float(x[t] @ theta) - y[t]) * x[t]
        return oracle

    return [oracle_at(t) for t in range(T)]


def _zero_oracle(theta):
    return np.zeros_like(theta)


def _run_recording(state, oracles):
    """Run steps, recording per-step diagnostics for invariant checks."""
    rows = []
    centers = {0: state.optimizer.ball.center}
    for oracle in oracles:
        pred = state.optimizer.predict()
        session_before = state.session
        ball_before = state.optimizer.ball
        start_before = state.session_start
        sum_before = state.theta_bar_sum.copy()
        window = state.t - state.session_start + 1
        saew_step(state, oracle)
        rows.append({
            "pred": pred,
            "session": session_before,
            "center": ball_before.center,
            "radius": ball_before.radius,
            "session_start": start_before,
            "eps": state.eps_t,
            "err": state.err_t,
            # The session average this step, as the engine computes it.
            "theta_bar": (sum_before + pred) / window,
            "theta_tilde": state.theta_tilde.copy(),
            "eps_min": state.eps_min,
        })
        for s in range(session_before + 1, state.session + 1):
            if s not in centers:
                centers[s] = state.optimizer.ball.center
    return rows, centers


FAST_PARAMS = ProblemParams(d0=1, alpha=50.0, U=1.0, B=0.5, delta=0.1)


# ============================================================
# truncate_top
# ============================================================

def test_truncate_top_single_largest():
    np.testing.assert_array_equal(
        truncate_top(np.array([0.5, -0.2, 0.1]), 1), np.array([0.5, 0.0, 0.0]))


def test_truncate_top_identity_when_d0_equals_d():
    v = np.array([1.0, -3.0, 2.0, 0.0])
    np.testing.assert_array_equal(truncate_top(v, 4), v)


def test_truncate_top_two_largest_magnitudes():
    np.testing.assert_array_equal(
        truncate_top(np.array([1.0, -3.0, 2.0, 0.0]), 2),
        np.array([0.0, -3.0, 2.0, 0.0]))


def test_truncate_top_zero_support():
    np.testing.assert_array_equal(truncate_top(np.array([1.0, 2.0]), 0),
                                  np.zeros(2))


def test_truncate_top_tie_keeps_lowest_index():
    np.testing.assert_array_equal(truncate_top(np.array([1.0, -1.0]), 1),
                                  np.array([1.0, 0.0]))
    np.testing.assert_array_equal(
        truncate_top(np.array([-2.0, 1.0, 2.0]), 2),
        np.array([-2.0, 0.0, 2.0]))


def test_truncate_top_rejects_bad_support_size():
    with pytest.raises(ValueError):
        truncate_top(np.array([1.0, 2.0]), -1)
    with pytest.raises(ValueError):
        truncate_top(np.array([1.0, 2.0]), 3)
    with pytest.raises(ValueError):
        truncate_top(np.ones((2, 2)), 1)


def test_truncate_top_is_l2_projection_onto_sparse_vectors():
    # Compare against brute force over all supports of size d0.
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = 5
        v = rng.normal(size=d)
        for d0 in (1, 2, 3):
            got = truncate_top(v, d0)
            best = math.inf
            for support in itertools.combinations(range(d), d0):
                cand = np.zeros(d)
                cand[list(support)] = v[list(support)]
                best = min(best, float(np.sum((v - cand) ** 2)))
            assert float(np.sum((v - got) ** 2)) == pytest.approx(best)
            assert np.count_nonzero(got) <= d0


def test_truncate_top_idempotent():
    v = np.array([0.3, -0.7, 0.05, 0.7])
    once = truncate_top(v, 2)
    np.testing.assert_array_equal(truncate_top(once, 2), once)


# ============================================================
# saew_init
# ============================================================

def test_init_session_zero_ball():
    params = ProblemParams(d0=1, alpha=1.0, U=2.5, B=1.0, delta=0.1)
    state = saew_init(params, d=3)
    np.testing.assert_array_equal(state.optimizer.ball.center, np.zeros(3))
    assert state.optimizer.ball.radius == 2.5
    assert state.session == 0
    assert state.t == 1 and state.session_start == 1
    assert state.session_starts == [1]
    assert state.eps_t == 2.5 and state.eps_min == 2.5
    assert state.eps_argmin == 0


def test_init_estimators_are_zero_vectors():
    params = ProblemParams(d0=1, alpha=1.0, U=1.0, B=1.0, delta=0.1)
    state = saew_init(params, d=4)
    theta_hat, theta_tilde = saew_estimators(state)
    np.testing.assert_array_equal(theta_hat, np.zeros(4))
    np.testing.assert_array_equal(theta_tilde, np.zeros(4))


def test_init_validation():
    params = ProblemParams(d0=3, alpha=1.0, U=1.0, B=1.0, delta=0.1)
    with pytest.raises(ValueError, match="d0"):
        saew_init(params, d=2)
    with pytest.raises(ValueError, match="d must be"):
        saew_init(params, d=0)


def test_init_warns_on_degenerate_sparsity():
    params = ProblemParams(d0=0, alpha=1.0, U=1.0, B=1.0, delta=0.1)
    with pytest.warns(UserWarning, match="degenerate"):
        saew_init(params, d=2)


# ============================================================
# saew_step basics
# ============================================================

def test_first_step_budget_and_radius_cross_consistency():
    # The state's err/eps must equal the bounds-module formulas exactly.
    params = ProblemParams(d0=1, alpha=2.0, U=1.0, B=1.0, delta=0.1)
    state = saew_init(params, d=2)
    g = np.array([0.3, -0.8])
    saew_step(state, lambda theta: g)
    a_p = a_prime(state.certificate.a, 1, delta_i(0.1, 1))
    b_p = b_prime(state.certificate.b, 1, delta_i(0.1, 1))
    err = err_bound(0.8 ** 2, a_p, b_p, 1.0)
    assert state.a_prime_t == a_p and state.b_prime_t == b_p
    assert state.err_t == err
    assert state.eps_t == radius_bound(1, 1.0, 0, 2.0, 1, err)
    assert state.t == 2
    assert state.optimizer.v2 == pytest.approx(0.64)


def test_step_rejects_bad_gradients():
    params = ProblemParams(d0=1, alpha=1.0, U=1.0, B=1.0, delta=0.1)
    state = saew_init(params, d=2)
    with pytest.raises(ValueError, match="finite"):
        saew_step(state, lambda theta: np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match="shape"):
        saew_step(state, lambda theta: np.zeros(3))
    # Failed steps leave the clock untouched.
    assert state.t == 1 and state.optimizer.v2 == 0.0


@pytest.mark.parametrize("t_fail", [1, 4])
def test_step_rejects_overflowing_gradient_state_unchanged(t_fail):
    # The squared sup-norm of 1e200 overflows v2: the step is refused
    # before the subroutine, the clock or the radius change.
    params = ProblemParams(d0=1, alpha=1.0, U=1.0, B=1.0, delta=0.1)
    state = saew_init(params, d=2)
    for _ in range(t_fail - 1):
        saew_step(state, lambda theta: np.array([0.3, -0.1]))
    before = json.dumps(saew_snapshot(state))
    with pytest.raises(ValueError, match="finite"):
        saew_step(state, lambda theta: np.array([1e200, 0.0]))
    assert json.dumps(saew_snapshot(state)) == before
    assert state.t == t_fail and state.optimizer.t == t_fail - 1
    saew_restore(json.loads(before))


def test_oracle_receives_current_prediction():
    params = ProblemParams(d0=1, alpha=1.0, U=1.0, B=1.0, delta=0.1)
    state = saew_init(params, d=2)
    seen = []

    def oracle(theta):
        seen.append(theta.copy())
        return np.array([0.5, 0.0])

    expected = state.optimizer.predict()
    saew_step(state, oracle)
    np.testing.assert_array_equal(seen[0], expected)


def test_single_step_estimators_equal_first_prediction():
    # One-element average: theta_bar = theta_hat_0; if eps drops below U
    # the best estimator equals it as well.
    params = ProblemParams(d0=1, alpha=1e6, U=1.0, B=0.5, delta=0.1)
    state = saew_init(params, d=2)
    first_pred = state.optimizer.predict()
    sum_before = state.theta_bar_sum.copy()
    window = state.t - state.session_start + 1
    saew_step(state, lambda theta: np.array([0.1, -0.2]))
    np.testing.assert_array_equal((sum_before + first_pred) / window,
                                  first_pred)
    assert state.eps_t < 1.0  # huge alpha forces an immediate drop
    np.testing.assert_array_equal(state.theta_tilde, first_pred)
    assert state.eps_argmin == 1


# ============================================================
# Session scheduling
# ============================================================

def _predicted_schedule(params, cert, T):
    """Closed-form session schedule for an all-zero gradient stream."""
    starts = [1]
    session = 0
    start = 1
    for t in range(1, T + 1):
        w = t - start + 1
        d_next = delta_i(params.delta, session + 1)
        err = err_bound(0.0, a_prime(cert.a, w, d_next),
                        b_prime(cert.b, w, d_next), params.B)
        eps = radius_bound(params.d0, params.U, session, params.alpha, w, err)
        while eps <= params.U * 2.0 ** (-(session + 1) / 2.0):
            session += 1
            start = t + 1
            starts.append(start)
    return starts


def test_zero_gradient_schedule_matches_closed_form():
    # With zero gradients the error budget is b'*B and session closes are
    # exactly predictable from the formulas.
    cert = RegretCertificate(0.0, 1.0)
    state = saew_init(FAST_PARAMS, d=3, certificate=cert)
    T = 400
    for _ in range(T):
        saew_step(state, _zero_oracle)
    assert len(state.session_starts) > 3  # several sessions actually closed
    assert state.session_starts == _predicted_schedule(FAST_PARAMS, cert, T)


def test_zero_gradient_predictions_stay_at_origin():
    state = saew_init(FAST_PARAMS, d=3, certificate=RegretCertificate(0.0, 1.0))
    for _ in range(100):
        theta_hat, theta_tilde = saew_estimators(state)
        np.testing.assert_array_equal(theta_hat, np.zeros(3))
        np.testing.assert_array_equal(theta_tilde, np.zeros(3))
        saew_step(state, _zero_oracle)
    np.testing.assert_array_equal(state.optimizer.ball.center, np.zeros(3))


def test_session_radius_bookkeeping_exact():
    state = saew_init(FAST_PARAMS, d=2, certificate=RegretCertificate(0.0, 1.0))
    for _ in range(300):
        saew_step(state, _zero_oracle)
        assert (state.optimizer.ball.radius
                == FAST_PARAMS.U * 2.0 ** (-state.session / 2.0))
    assert len(state.session_starts) == state.session + 1


def test_stopping_rule_is_tight():
    # At each recorded close, eps was at most the next radius; one step
    # earlier (within the same session, if any) it was above it.
    rng = np.random.default_rng(12)
    params = ProblemParams(d0=1, alpha=30.0, U=1.0, B=2.0, delta=0.1)
    state = saew_init(params, d=2)
    T = 600
    eps_hist = []
    session_of_step = []
    for t in range(1, T + 1):
        saew_step(state, lambda theta: rng.uniform(-1, 1, size=2))
        eps_hist.append(state.eps_t)
        session_of_step.append(state.session)
    starts = state.session_starts
    assert len(starts) >= 3
    for i in range(1, len(starts)):
        close_t = starts[i] - 1  # last executed step before session i began
        if close_t < 1 or close_t > T:
            continue
        # The radius that triggered the close is that of session i.
        threshold = params.U * 2.0 ** (-i / 2.0)
        assert eps_hist[close_t - 1] <= threshold + 1e-15
        prev_t = close_t - 1
        if prev_t >= max(starts[i - 1], 1) and prev_t >= 1:
            # Previous step belonged to session i-1 and did not close it.
            if session_of_step[prev_t - 1] == i - 1:
                assert eps_hist[prev_t - 1] > params.U * 2.0 ** (-i / 2.0)


def test_cascade_opens_zero_length_sessions():
    # A huge alpha makes eps tiny immediately: several sessions close on
    # the very first step, all starting at t=2.
    params = ProblemParams(d0=1, alpha=1e8, U=1.0, B=0.5, delta=0.1)
    state = saew_init(params, d=2)
    saew_step(state, lambda theta: np.array([0.2, 0.1]))
    assert state.session >= 2  # at least one zero-length session
    assert state.session_starts[1:] == [2] * state.session
    assert state.optimizer.ball.radius == \
        params.U * 2.0 ** (-state.session / 2.0)
    assert state.eps_t > params.U * 2.0 ** (-(state.session + 1) / 2.0)


def test_degenerate_d0_closes_one_session_per_step():
    params = ProblemParams(d0=0, alpha=1.0, U=1.0, B=1.0, delta=0.1)
    with pytest.warns(UserWarning, match="degenerate"):
        state = saew_init(params, d=2)
    for k in range(1, 6):
        saew_step(state, lambda theta: np.array([0.3, -0.3]))
        assert state.eps_t == 0.0
        assert state.session == k
    theta_hat, theta_tilde = saew_estimators(state)
    np.testing.assert_array_equal(theta_hat, np.zeros(2))
    np.testing.assert_array_equal(theta_tilde, np.zeros(2))
    assert state.eps_min == 0.0 and state.eps_argmin == 1


def test_next_session_cascades_while_the_next_radius_admits_eps():
    # U = 1: radii 2**(-i/2) are 0.71, 0.5, 0.35, 0.25 for sessions 1-4.
    assert _next_session(1.0, 0, 0.3) == 3
    assert _next_session(1.0, 0, 0.6) == 1
    assert _next_session(1.0, 2, 0.3) == 3


_UNDERFLOW_PROBE = """
import json, warnings
import numpy as np
from saew.core import ProblemParams
from saew.engine import WrapperBank, saew_init, saew_step

warnings.simplefilter("error")
# eps_t underflows to 0.0 on the first step, and session radii reach 0
# from session 157 on.
params = ProblemParams(d0=1, alpha=1e300, U=1e-300, B=1e-10, delta=0.05)
grad = np.array([1e-11, 0.0])
state = saew_init(params, 2)
bank = WrapperBank([params.d0], [params.alpha], [params.U], [params.B],
                   params.delta, 2, ["a"])
sessions = []
for _ in range(400):
    saew_step(state, lambda theta: grad)
    bank.step(grad[None])
    assert (bank.session[0], bank.eps[0]) == (state.session, state.eps_t)
    assert bank.prediction[0].tobytes() == state.optimizer.predict().tobytes()
    assert bank.theta_tilde[0].tobytes() == state.theta_tilde.tobytes()
    sessions.append(state.session)
print(json.dumps([sessions, state.eps_t, len(state.session_starts)]))
"""


def test_underflowing_radius_closes_one_session_per_step():
    # A fresh interpreter with a timeout: a cascade that never ends fails
    # the test instead of hanging the suite.
    src = os.path.dirname(os.path.dirname(saew.engine.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", _UNDERFLOW_PROBE],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    sessions, eps, starts = json.loads(done.stdout)
    assert sessions == list(range(1, 401))
    assert eps == 0.0 and starts == 401


# ============================================================
# Session average and best estimator
# ============================================================

def test_theta_bar_matches_recomputed_session_average():
    env = make_square_env(d=4, d0=2, noise_sd=0.2, seed=31)
    params = ProblemParams(d0=2, alpha=20.0, U=1.0, B=4.0, delta=0.1)
    state = saew_init(params, d=4)
    T = 2500  # crosses the periodic full-recompute boundary
    rows, _ = _run_recording(state, _square_oracle_factory(env, T))
    preds_by_session: dict[int, list[np.ndarray]] = {}
    for row in rows:
        preds_by_session.setdefault(row["session"], []).append(row["pred"])
        mean = np.mean(preds_by_session[row["session"]], axis=0)
        np.testing.assert_allclose(row["theta_bar"], mean, atol=1e-9)


def test_eps_argmin_freezing_and_global_minimum():
    env = make_square_env(d=3, d0=1, noise_sd=0.3, seed=7)
    params = ProblemParams(d0=1, alpha=15.0, U=1.0, B=4.0, delta=0.1)
    state = saew_init(params, d=3)
    rows, _ = _run_recording(state, _square_oracle_factory(env, 400))
    eps_min = params.U  # pre-loop value
    argmin_bar = np.zeros(3)
    for row in rows:
        if row["eps"] < eps_min:  # strict: earliest tie kept
            eps_min = row["eps"]
            argmin_bar = row["theta_bar"]
        assert row["eps_min"] == eps_min
        np.testing.assert_array_equal(row["theta_tilde"], argmin_bar)
    assert state.eps_min == eps_min


def test_theta_tilde_stays_zero_when_eps_never_drops():
    # Tiny alpha keeps eps above U for a short run: the best estimator
    # remains the initialization.
    params = ProblemParams(d0=1, alpha=1e-4, U=1.0, B=4.0, delta=0.1)
    env = make_square_env(d=3, d0=1, noise_sd=0.3, seed=7)
    state = saew_init(params, d=3)
    for oracle in _square_oracle_factory(env, 50):
        saew_step(state, oracle)
        assert state.eps_t > 1.0
    np.testing.assert_array_equal(state.theta_tilde, np.zeros(3))
    assert state.eps_argmin == 0 and state.eps_min == 1.0


# ============================================================
# Ball membership and norm control
# ============================================================

def test_predictions_in_session_ball_and_l1_under_induction():
    violations = 0
    event_runs = 0
    for seed in range(6):
        env = make_truncated_square_env(d=5, d0=2, noise_sd=0.1, seed=seed,
                                        x_bound=1.5)
        params = ProblemParams(d0=2, alpha=10.0, U=1.0, B=5.0, delta=0.1)
        state = saew_init(params, d=5)
        rows, centers = _run_recording(state,
                                       _square_oracle_factory(env, 1200))
        for row in rows:
            ball = L1Ball(row["center"], row["radius"])
            assert ball_contains(ball, row["pred"])
        # Lemma-style norm bound under the induction event.
        event = all(
            l1_norm(c - env.theta_star_metrics) <= params.U * 2 ** (-i / 2)
            for i, c in centers.items())
        if event:
            event_runs += 1
            for row in rows:
                if l1_norm(row["pred"]) > 2 * params.U + BALL_TOL:
                    violations += 1
    assert event_runs >= 1  # the check must not be vacuous
    assert violations == 0


# ============================================================
# Session-length bound
# ============================================================

def test_session_lengths_within_bound():
    # Zero-gradient stream: every gradient is (trivially) within B, so the
    # closed-session length bound must hold for each recorded session.
    params = FAST_PARAMS
    cert = RegretCertificate(0.0, 1.0)
    state = saew_init(params, d=3, certificate=cert)
    for _ in range(400):
        saew_step(state, _zero_oracle)
    starts = state.session_starts
    assert len(starts) >= 4
    gamma = 2 ** 4 * params.d0 * params.B / (params.alpha * params.U)
    for j in range(len(starts) - 1):
        T_j = starts[j + 1] - starts[j]
        w = max(T_j, 1)
        a_p = a_prime(cert.a, w, delta_i(params.delta, j + 1))
        b_p = b_prime(cert.b, w, delta_i(params.delta, j + 1))
        assert T_j <= session_length_bound(gamma, a_p, b_p, j) + 1e-9


def test_session_lengths_within_bound_noisy_gradients():
    rng = np.random.default_rng(3)
    params = ProblemParams(d0=1, alpha=40.0, U=1.0, B=2.0, delta=0.1)
    state = saew_init(params, d=2)
    grads_ok = True
    for _ in range(800):
        g = rng.uniform(-2.0, 2.0, size=2)
        grads_ok &= float(np.max(np.abs(g))) <= params.B
        saew_step(state, lambda theta, g=g: g)
    assert grads_ok
    starts = state.session_starts
    assert len(starts) >= 3
    gamma = 2 ** 4 * params.d0 * params.B / (params.alpha * params.U)
    for j in range(len(starts) - 1):
        T_j = starts[j + 1] - starts[j]
        a_p = a_prime(state.certificate.a, max(T_j, 1),
                      delta_i(params.delta, j + 1))
        b_p = b_prime(state.certificate.b, max(T_j, 1),
                      delta_i(params.delta, j + 1))
        assert T_j <= session_length_bound(gamma, a_p, b_p, j) + 1e-9


# ============================================================
# Statistical behaviour on square-loss environments
# ============================================================

def test_induction_event_coverage():
    # Completed-session centers stay within the session radius of the
    # truth in at least a 1 - delta fraction of runs.
    hits = 0
    runs = 30
    completed_any = 0
    for seed in range(runs):
        env = make_truncated_square_env(d=5, d0=1, noise_sd=0.05, seed=seed,
                                        x_bound=1.5)
        params = ProblemParams(d0=1, alpha=8.0, U=1.0, B=4.0, delta=0.05)
        state = saew_init(params, d=5)
        centers = {0: state.optimizer.ball.center}
        for oracle in _square_oracle_factory(env, 1500):
            before = state.session
            saew_step(state, oracle)
            for s in range(before + 1, state.session + 1):
                centers.setdefault(s, state.optimizer.ball.center)
        if len(centers) > 1:
            completed_any += 1
        ok = all(
            l1_norm(c - env.theta_star_metrics) <= params.U * 2 ** (-i / 2)
            for i, c in centers.items())
        hits += ok
    assert completed_any >= runs // 2  # sessions really close
    assert hits / runs >= 1 - 0.05


def test_theta_tilde_risk_within_radius_chain():
    # Risk(theta_tilde) <= alpha * eps_min^2 / (8 d0) on runs where the
    # induction event holds (square loss: exact excess risk available).
    checked = 0
    for seed in range(5):
        env = make_truncated_square_env(d=4, d0=1, noise_sd=0.05, seed=seed,
                                        x_bound=1.5)
        params = ProblemParams(d0=1, alpha=8.0, U=1.0, B=4.0, delta=0.05)
        state = saew_init(params, d=4)
        centers = {0: state.optimizer.ball.center}
        for oracle in _square_oracle_factory(env, 1500):
            before = state.session
            saew_step(state, oracle)
            for s in range(before + 1, state.session + 1):
                centers.setdefault(s, state.optimizer.ball.center)
        event = all(
            l1_norm(c - env.theta_star_metrics) <= params.U * 2 ** (-i / 2)
            for i, c in centers.items())
        if not event or state.eps_min >= params.U:
            continue
        checked += 1
        risk = env.excess_risk_exact(state.theta_tilde)
        bound = params.alpha * state.eps_min ** 2 / (8 * params.d0)
        assert risk <= bound
    assert checked >= 3  # the assertion must actually fire


def test_determinism_same_seed_same_trajectory():
    def run():
        env = make_square_env(d=4, d0=2, noise_sd=0.2, seed=11)
        params = ProblemParams(d0=2, alpha=25.0, U=1.0, B=4.0, delta=0.1)
        state = saew_init(params, d=4)
        for oracle in _square_oracle_factory(env, 700):
            saew_step(state, oracle)
        return state

    s1, s2 = run(), run()
    assert s1.session_starts == s2.session_starts
    np.testing.assert_array_equal(s1.theta_tilde, s2.theta_tilde)
    assert s1.eps_t == s2.eps_t and s1.eps_min == s2.eps_min


def test_misspecified_bound_warns_at_most_once_per_session():
    env = make_square_env(d=20, d0=3, noise_sd=0.2, seed=4)
    params = ProblemParams(d0=3, alpha=30.0, U=1.0, B=0.5, delta=0.1)
    state = saew_init(params, d=20)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for oracle in _square_oracle_factory(env, 3000):
            saew_step(state, oracle)
    assert state.session >= 2  # several subroutine instances ran
    assert state.optimizer.b_hat > params.B
    runtime = [w for w in caught if w.category is RuntimeWarning]
    assert 1 <= len(runtime) <= state.session + 1


# ============================================================
# Snapshot / restore
# ============================================================

def _json_round_trip(state):
    return saew_restore(json.loads(json.dumps(saew_snapshot(state))))


def _derived(state):
    """The facts a snapshot leaves out and restore derives again."""
    opt = state.optimizer
    return (state.session, state.session_start, opt.ball.radius, opt.B,
            opt.t, opt._log_weights().tobytes(), opt.predict().tobytes())


def _assert_restores_at(params, oracles, at):
    """Snapshot after each step count in ``at``; both copies must then
    stay equal, snapshot for snapshot, to the end of ``oracles``."""
    for k in at:
        state = saew_init(params, d=3)
        for oracle in oracles[:k]:
            saew_step(state, oracle)
        restored = _json_round_trip(state)
        assert saew_snapshot(restored) == saew_snapshot(state)
        assert _derived(restored) == _derived(state)
        for oracle in oracles[k:]:
            saew_step(state, oracle)
            saew_step(restored, oracle)
            assert saew_snapshot(restored) == saew_snapshot(state)
        np.testing.assert_array_equal(restored.optimizer.predict(),
                                      state.optimizer.predict())


def _closing_steps(params, oracles):
    """``{step: sessions closed by it}`` for every step that closed one."""
    state = saew_init(params, d=3)
    closes = {}
    for k, oracle in enumerate(oracles, 1):
        before = state.session
        saew_step(state, oracle)
        if state.session > before:
            closes[k] = state.session - before
    return closes


def test_snapshot_roundtrips_through_json():
    env = make_square_env(d=3, d0=1, noise_sd=0.2, seed=2)
    params = ProblemParams(d0=1, alpha=20.0, U=1.0, B=4.0, delta=0.1)
    oracles = _square_oracle_factory(env, 300)
    close = min(_closing_steps(params, oracles))
    doc = json.loads(json.dumps(saew_snapshot(saew_init(params, d=3))))
    assert doc["version"] == SNAPSHOT_VERSION == "saew-state-v3"
    # Before any step, mid-session, just before and just after a close.
    _assert_restores_at(params, oracles, [0, close // 2, close - 1, close,
                                          120])


def test_snapshot_roundtrips_across_zero_length_cascade():
    env = make_square_env(d=3, d0=1, noise_sd=0.2, seed=2)
    params = ProblemParams(d0=1, alpha=1e8, U=1.0, B=4.0, delta=0.1)
    oracles = _square_oracle_factory(env, 40)
    closes = _closing_steps(params, oracles)
    cascade = min(k for k, n in closes.items() if n > 1)
    _assert_restores_at(params, oracles, [cascade - 1, cascade, cascade + 1])


def test_snapshot_has_no_derived_fields():
    params = ProblemParams(d0=1, alpha=1.0, U=1.0, B=1.0, delta=0.1)
    doc = saew_snapshot(saew_init(params, d=2))
    for key in ("grad_sq_sum", "theta_bar", "center", "radius", "session",
                "session_start"):
        assert key not in doc
    # No radius, B, log_w or t.
    assert set(doc["optimizer"]) == {"center", "grad_sum", "v2", "b_hat"}


def test_snapshot_rejects_unknown_version():
    params = ProblemParams(d0=1, alpha=1.0, U=1.0, B=1.0, delta=0.1)
    doc = saew_snapshot(saew_init(params, d=2))
    doc["version"] = "saew-state-v999"
    with pytest.raises(ValueError, match="version"):
        saew_restore(doc)


def test_snapshot_rejects_v1_document():
    params = ProblemParams(d0=1, alpha=1.0, U=1.0, B=1.0, delta=0.1)
    doc = saew_snapshot(saew_init(params, d=2))
    doc["version"] = "saew-state-v1"
    with pytest.raises(ValueError, match="'saew-state-v1'"):
        saew_restore(doc)


def test_snapshot_rejects_v2_document():
    # A v2 document stored the six facts v3 derives; it is not read.
    params = ProblemParams(d0=1, alpha=1.0, U=1.0, B=1.0, delta=0.1)
    doc = saew_snapshot(saew_init(params, d=2))
    doc.update(version="saew-state-v2", session=0, session_start=1)
    doc["optimizer"].update(radius=1.0, B=1.0, log_w=[0.0] * 4, t=0)
    with pytest.raises(ValueError, match="'saew-state-v2'"):
        saew_restore(doc)


@pytest.fixture
def snapshot_doc():
    """JSON snapshot of a run that has closed at least one session."""
    env = make_square_env(d=3, d0=1, noise_sd=0.2, seed=2)
    params = ProblemParams(d0=1, alpha=20.0, U=1.0, B=4.0, delta=0.1)
    state = saew_init(params, d=3)
    for oracle in _square_oracle_factory(env, 150):
        saew_step(state, oracle)
    assert state.session >= 1
    doc = json.loads(json.dumps(saew_snapshot(state)))
    saew_restore(doc)  # the untouched document is consistent
    return doc


def _cut(values, doc):
    return values[:-1]


def _non_finite(values, doc):
    return [math.inf] + values[1:]


def _nan(value, doc):
    return math.nan


def _negative(value, doc):
    return -1.0


def _below_b_hat_squared(value, doc):
    return 0.5 * doc["optimizer"]["b_hat"] ** 2


def _empty(values, doc):
    return []


def _not_from_one(values, doc):
    return [2] + values[1:]


def _decreasing(values, doc):
    return values + [values[-1] - 1]


@pytest.mark.parametrize("field, change", [
    ("theta_bar_sum", _cut),
    ("theta_tilde", _cut),
    ("optimizer.center", _cut),
    ("optimizer.grad_sum", _cut),
    ("optimizer.grad_sum", _non_finite),
    ("optimizer.v2", _nan),
    ("optimizer.v2", _negative),
    ("optimizer.v2", _below_b_hat_squared),
    ("optimizer.b_hat", _nan),
    ("optimizer.b_hat", _negative),
    ("session_starts", _empty),
    ("session_starts", _not_from_one),
    ("session_starts", _decreasing),
    ("eps_min", lambda v, doc: doc["params"]["U"] * 1.5),
    ("eps_min", _negative),
    ("eps_argmin", lambda v, doc: -7),
    ("eps_argmin", lambda v, doc: doc["t"]),
    ("eps_argmin", lambda v, doc: doc["t"] + 100),
    ("eps_t", _nan),
    ("eps_t", lambda v, doc: math.inf),
    ("eps_t", _negative),
    ("err_t", _negative),
    ("err_t", lambda v, doc: math.inf),
    ("a_prime_t", _nan),
    ("a_prime_t", _negative),
    ("b_prime_t", _nan),
    ("b_prime_t", _negative),
])
def test_snapshot_rejects_inconsistent_document(snapshot_doc, field, change):
    *parents, key = field.split(".")
    owner = snapshot_doc
    for name in parents:
        owner = owner[name]
    owner[key] = change(owner[key], snapshot_doc)
    with pytest.raises(ValueError, match=re.escape(field)):
        saew_restore(snapshot_doc)


def test_snapshot_rejects_session_start_after_t(snapshot_doc):
    doc = snapshot_doc
    doc["session_starts"][-1] = doc["t"] + 1
    with pytest.raises(ValueError, match="session_starts"):
        saew_restore(doc)


def _drop(owner, key):
    del owner[key]


@pytest.mark.parametrize("field, change", [
    ("eps_t", _drop),
    ("optimizer.grad_sum", _drop),
    ("params", lambda owner, key: owner[key].update(extra=1.0)),
    ("params", lambda owner, key: owner[key].pop("delta")),
    ("certificate", lambda owner, key: owner[key].update(c=1.0)),
    ("t", lambda owner, key: owner.update(t="abc")),
    ("eps_argmin", lambda owner, key: owner.update(eps_argmin=None)),
    ("optimizer", lambda owner, key: owner.update(optimizer=[])),
    ("version", _drop),
])
def test_snapshot_names_malformed_field(snapshot_doc, field, change):
    *parents, key = field.split(".")
    owner = snapshot_doc
    for name in parents:
        owner = owner[name]
    change(owner, key)
    with pytest.raises(ValueError, match=re.escape(field)):
        saew_restore(snapshot_doc)


# ============================================================
# Square-loss bank fit against independent wrapper runs
# ============================================================

def _columns(params):
    """``WrapperBank``'s columns ``d0, alpha, U, B`` and its ``delta`` for
    one row per parameter set (all of one ``delta``)."""
    (delta,) = {p.delta for p in params}
    return (*([getattr(p, name) for p in params]
              for name in ("d0", "alpha", "U", "B")), delta)


def _fit_square(params, d, xs, ys):
    """Calibration's candidate fit: one bank row per parameter set, stepped
    on ``square_grad`` over the history in stream order, without the
    over-``B`` warning.  Returns each row's ``theta_tilde`` and final
    session index."""
    bank = WrapperBank(*_columns(params), d,
                       [f"candidate {r}" for r in range(len(params))])
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", re.escape(OVER_B_WARNING),
                                RuntimeWarning)
        for x, y in zip(xs, ys):
            bank.step(square_grad(bank.prediction, x, y))
    return bank.theta_tilde, bank.session


def _replica_states(params, d, xs, ys, zero_steps=None):
    """One ``saew_step`` run per parameter set over the history; records
    ``(replica, step)`` pairs whose gradient was zero in ``zero_steps``."""
    states = []
    for r, p in enumerate(params):
        state = saew_init(p, d)
        for k, (x, y) in enumerate(zip(xs, ys.tolist()), 1):
            grad = 2.0 * (float(x @ state.optimizer.predict()) - y) * x
            if zero_steps is not None and not grad.any():
                zero_steps.add((r, k))
            saew_step(state, lambda theta: 2.0 * (float(x @ theta) - y) * x)
        states.append(state)
    return states


def _assert_fit_matches_replicas(params, d, xs, ys, zero_steps=None):
    theta_tilde, session = _fit_square(params, d, xs, ys)
    states = _replica_states(params, d, xs, ys, zero_steps)
    np.testing.assert_array_equal(
        theta_tilde, np.array([saew_estimators(s)[1] for s in states]))
    np.testing.assert_array_equal(session, [s.session for s in states])
    return theta_tilde, states


def _grid_params(j, d, clamp, delta=0.01):
    # Calibration's candidates: d0 above d runs at d.
    return [ProblemParams(d0=min(e.d0, d), alpha=e.alpha, U=e.U, B=e.B,
                          delta=delta)
            for e in build_grid(j, d, 2.0, clamp) if not e.is_null]


@pytest.mark.parametrize("d", [1, 3, 10])
@pytest.mark.parametrize("clamp", [(0, 0), (-1, 1), (2, 4)])
def test_fit_square_matches_independent_wrappers(d, clamp):
    env = make_square_env(d=d, d0=1, noise_sd=0.2, seed=d)
    xs, ys = env.draw(31)
    xs[0] = xs[17] = 0.0  # zero gradients: a fresh and a running session
    params = _grid_params(5, d, clamp)
    # Narrow clamps close no session in 31 samples; copies with a larger
    # alpha do.
    params += [dataclasses.replace(p, alpha=256.0 * p.alpha) for p in params]
    theta_tilde, states = _assert_fit_matches_replicas(params, d, xs, ys)
    assert any(s.session > 1 for s in states)
    assert np.any(theta_tilde)


def test_fit_square_cascades_and_partly_zero_gradients():
    # Step 1 closes the large-alpha sessions at the zero average (alpha=1e8
    # several at once), so on step 2 (y = 0) those rows predict 0 and get a
    # zero gradient while the other rows do not.  With d0=1, alpha=960 the
    # row has just opened session 1 and keeps it through step 2: it takes
    # its zero gradient with v2 = 0.
    d = 3
    env = make_square_env(d=d, d0=1, noise_sd=0.2, seed=8)
    xs, ys = env.draw(40)
    xs[0], ys[0] = [1.0, 0.0, 0.0], 1.0
    xs[1], ys[1] = [1.0, 0.5, 0.0], 0.0
    params = [ProblemParams(d0=d0, alpha=alpha, U=1.0, B=4.0, delta=0.05)
              for d0 in (1, 3) for alpha in (1e8, 960.0, 50.0, 1.0)]
    zero_steps = set()
    _, states = _assert_fit_matches_replicas(params, d, xs, ys, zero_steps)
    assert {r for r, k in zero_steps if k == 2} == {0, 1, 4}
    for s in states[0], states[4]:
        assert s.session_starts[1] == s.session_starts[2] == 2
    assert states[1].session_starts[:2] == [1, 2]
    assert states[1].session_starts[2] > 3


def test_fit_square_matches_saew_step_on_underflowing_gradients():
    # The first gradients have sup-norms near 1e-170, whose squares
    # underflow: v2 stays 0 while b_hat > 0.  Both paths take the learning
    # rate's v2 term as +inf, bit for bit and without a warning, and a
    # snapshot taken there restores.
    d = 3
    env = make_square_env(d=d, d0=1, noise_sd=0.2, seed=4)
    xs, ys = env.draw(60)
    xs[:3] = [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, -1.0]]
    ys[:3] = [-5e-171, 3e-171, -2e-171]
    params = [ProblemParams(d0=d0, alpha=alpha, U=1.0, B=100.0, delta=0.05)
              for d0 in (1, 3) for alpha in (960.0, 50.0, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, states = _assert_fit_matches_replicas(params, d, xs, ys)
        state = saew_init(params[0], d)
        saew_step(state, lambda theta: 2.0 * (float(xs[0] @ theta) - ys[0])
                  * xs[0])
        assert state.optimizer.v2 == 0.0 < state.optimizer.b_hat
        restored = saew_restore(json.loads(json.dumps(saew_snapshot(state))))
        np.testing.assert_array_equal(restored.optimizer.predict(),
                                      state.optimizer.predict())
    assert any(np.any(s.theta_tilde) for s in states)


def _grid(*entries):
    """The grid of these entries, as calibration's columns."""
    def column(name):
        return np.array([np.nan if getattr(e, name) is None
                         else getattr(e, name) for e in entries], float)
    return Grid(np.array([e.d0 for e in entries], int), column("alpha"),
                column("U"), column("B"))


def test_fit_square_of_no_wrappers_or_no_history():
    # Calibration fits no bank for a grid without non-null entries.
    xs, ys = np.ones((3, 2)), np.ones(3)
    theta_matrix, stepped = _fit_candidates(_grid(), 2, 0.1, xs, ys)
    assert theta_matrix.shape == (0, 2) and stepped == 0
    theta_matrix, stepped = _fit_candidates(_grid(GridEntry(d0=0)), 2, 0.1,
                                            xs, ys)
    np.testing.assert_array_equal(theta_matrix, np.zeros((1, 2)))
    assert stepped == 0
    params = [ProblemParams(d0=1, alpha=1.0, U=1.0, B=1.0, delta=0.1)]
    theta_tilde, session = _fit_square(params, 2, [], [])
    np.testing.assert_array_equal(theta_tilde, np.zeros((1, 2)))
    np.testing.assert_array_equal(session, [0])


def test_fit_square_validation():
    p = ProblemParams(d0=2, alpha=1.0, U=1.0, B=1.0, delta=0.1)
    xs, ys = np.ones((4, 2)), np.ones(4)
    with pytest.raises(ValueError, match="d0"):
        _fit_square([p], 1, xs[:, :1], ys)
    for bad in (np.nan, np.inf):
        x_bad = xs.copy()
        x_bad[2, 1] = bad
        with pytest.raises(ValueError, match="candidate 0: .* step 3 .*finite"):
            _fit_square([p], 2, x_bad, ys)
        y_bad = ys.copy()
        y_bad[1] = bad
        with pytest.raises(ValueError, match="candidate 0: .* step 2 .*finite"):
            _fit_square([p], 2, xs, y_bad)


def test_fit_square_rejects_overflowing_gradients_like_saew_step():
    p = ProblemParams(d0=1, alpha=1.0, U=1.0, B=1.0, delta=0.1)
    xs, ys = np.full((2, 2), 1e200), np.ones(2)
    with pytest.raises(ValueError, match="finite"):
        with np.errstate(over="ignore"):
            _fit_square([p], 2, xs, ys)
    with pytest.raises(ValueError, match="finite"):
        _replica_states([p], 2, xs, ys)


def test_fit_square_takes_a_subnormal_residual_like_saew_step():
    # The first residual is 5e-324: the gradient's sup-norm 1e-323 makes
    # 1 / (U * b_hat) overflow, and both paths take the rate's limit.
    d = 2
    env = make_square_env(d=d, d0=1, noise_sd=0.2, seed=6)
    xs, ys = env.draw(30)
    xs[0], ys[0] = [1.0, 0.0], -5e-324
    params = [ProblemParams(d0=1, alpha=alpha, U=U, B=100.0, delta=0.05)
              for alpha in (960.0, 1.0) for U in (1.0, 0.5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta_tilde, states = _assert_fit_matches_replicas(params, d, xs, ys)
    assert np.all(np.isfinite(theta_tilde))
    state = saew_init(params[0], d)
    saew_step(state, lambda theta: square_grad(theta, xs[0], ys[0]))
    np.testing.assert_array_equal(state.optimizer.predict(), [-1.0, 0.0])


def test_fit_square_issues_no_warning_above_B():
    env = make_square_env(d=5, d0=1, noise_sd=0.2, seed=2)
    xs, ys = env.draw(200)
    grid = _grid(GridEntry(d0=1, alpha=30.0, U=1.0, B=0.01))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filters = list(warnings.filters)
        theta, stepped = _fit_candidates(grid, 5, 0.05, list(xs),
                                         ys.tolist())
        assert stepped == 1
        assert warnings.filters == filters
    params = [ProblemParams(d0=1, alpha=30.0, U=1.0, B=0.01, delta=0.05)]
    np.testing.assert_array_equal(theta, _fit_square(params, 5, xs, ys)[0])


@pytest.mark.parametrize("loss", ["square", "pinball"])
def test_wrapper_bank_rows_match_saew_step_at_every_step(loss):
    # One stream per row, as seeds are run: every exposed per-row value
    # equals what saew_step leaves behind, bit for bit, at every step.
    d, T = 4, 120
    if loss == "square":
        envs = [make_square_env(d=d, d0=2, noise_sd=0.2, seed=s)
                for s in (1, 2, 3)]
        grad = square_grad
    else:
        envs = [make_quantile_env(d=d - 1, d0=1, alpha_q=0.8, noise_sd=0.2,
                                  seed=s) for s in (1, 2, 3)]

        def grad(theta, x, y):
            return pinball_subgrad(theta, x, y, 0.8)
    draws = [env.draw(T) for env in envs]
    params = [ProblemParams(d0=2, alpha=alpha, U=1.0, B=2.0, delta=0.05)
              for alpha in (30.0, 1e4, 0.5)]
    bank = WrapperBank(*_columns(params), d, ["a", "b", "c"])
    states = [saew_init(p, d) for p in params]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for t in range(T):
            x = np.array([xs[t] for xs, _ in draws])
            y = np.array([ys[t] for _, ys in draws])
            theta_hat = bank.prediction.copy()
            bank.step(grad(theta_hat, x, y))
            for r, state in enumerate(states):
                assert (theta_hat[r].tobytes()
                        == state.optimizer.predict().tobytes())
                saew_step(state, lambda theta: grad(theta, x[r], y[r]))
                assert (bank.theta_tilde[r].tobytes()
                        == state.theta_tilde.tobytes()), (t, r)
                assert (bank.eps[r], bank.session[r], bank.err[r],
                        bank.a_prime[r], bank.b_prime[r]) == (
                    state.eps_t, state.session, state.err_t,
                    state.a_prime_t, state.b_prime_t), (t, r)
    assert len({s.session for s in states}) == 3


def test_wrapper_bank_warns_per_degenerate_row():
    params = [ProblemParams(d0=d0, alpha=1.0, U=1.0, B=1.0, delta=0.1)
              for d0 in (0, 1, 0)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        WrapperBank(*_columns(params), 2, ["a", "b", "c"])
    assert [w.category for w in caught] == [UserWarning] * 2
    assert all("d0=0" in str(w.message) for w in caught)


_ROWS = dict(d0=[1, 2, 3], alpha=[1.0, 2.0, 4.0], U=[1.0, 1.0, 0.5],
             B=[1.0, 2.0, 1.0])


@pytest.mark.parametrize("name,value,rule", [
    ("d0", 1.5, "be a nonnegative integer, got 1.5"),
    ("d0", -1, "be a nonnegative integer, got -1"),
    ("d0", math.nan, "be a nonnegative integer, got nan"),
    ("d0", 4, "be <= d=3, got 4"),
    ("d0", math.inf, "be <= d=3, got inf"),
    *((name, value, f"be finite and > 0, got {value!r}")
      for name in ("alpha", "U", "B")
      for value in (0.0, -1.0, math.nan, math.inf)),
])
def test_wrapper_bank_names_the_first_row_against_a_column_rule(
        name, value, rule):
    # Row b breaks the rule; row c breaks another rule, or the same one.
    columns = {key: list(column) for key, column in _ROWS.items()}
    columns[name][1] = value
    columns["d0"][2] = 9
    with pytest.raises(ValueError, match=f"^b: {name} must {re.escape(rule)}$"):
        WrapperBank(**columns, delta=0.1, d=3, labels=["a", "b", "c"])


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, math.nan, math.inf])
def test_wrapper_bank_rejects_delta_outside_the_unit_interval(delta):
    with pytest.raises(ValueError,
                       match=rf"^a: delta must lie in \(0, 1\), got {delta}$"):
        WrapperBank(**_ROWS, delta=delta, d=3, labels=["a", "b", "c"])


@pytest.mark.parametrize("name", ["d0", "alpha", "U", "B"])
def test_wrapper_bank_rejects_columns_of_unequal_lengths(name):
    columns = dict(_ROWS, **{name: _ROWS[name][:2]})
    lengths = ", ".join("2" if key == name else "3" for key in _ROWS)
    with pytest.raises(ValueError, match=re.escape(
            f"c: the columns labels, d0, alpha, U, B must have one length, "
            f"got 3, {lengths}")):
        WrapperBank(**columns, delta=0.1, d=3, labels=["a", "b", "c"])
    # A row without a label is named by its index.
    with pytest.raises(ValueError, match="^row 2: the columns"):
        WrapperBank(**_ROWS, delta=0.1, d=3, labels=["a", "b"])


def test_wrapper_bank_needs_a_row():
    with pytest.raises(ValueError, match="at least one row"):
        WrapperBank([], [], [], [], 0.1, 2, [])


def test_wrapper_bank_matches_saew_step_as_the_radius_underflows():
    # With d0 = 0 every step closes a session, so past about 2,150 steps
    # U * 2**(-i/2) is subnormal and then 0: the learning rate overflows
    # and the ball degenerates to its center, in both paths alike and
    # without a floating-point warning.
    env = make_square_env(d=2, d0=1, noise_sd=0.2, seed=3)
    xs, ys = env.draw(2300)
    params = ProblemParams(d0=0, alpha=30.0, U=1.0, B=100.0, delta=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        bank = WrapperBank(*_columns([params]), 2, ["a"])
        state = saew_init(params, 2)
    for x, y in zip(xs, ys):
        theta_hat = bank.prediction.copy()
        assert theta_hat[0].tobytes() == state.optimizer.predict().tobytes()
        bank.step(square_grad(theta_hat, x, y))
        saew_step(state, lambda theta: square_grad(theta, x, y))
    assert state.optimizer.ball.radius == 0.0 and state.session == 2300
    assert bank.session[0] == state.session
    assert bank.theta_tilde[0].tobytes() == state.theta_tilde.tobytes()


def test_wrapper_bank_memory_does_not_grow_with_the_session_index():
    # With d0 = 0 every step closes a session: 3,000 sessions in 3,000
    # steps.
    params = ProblemParams(d0=0, alpha=30.0, U=1.0, B=100.0, delta=0.05)
    grad = np.ones((1, 2))
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="d0=0"):
            bank = WrapperBank(*_columns([params]), 2, ["a"])
        for _ in range(3000):
            bank.step(grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bank.session[0] == 3000
    assert peak < 2 ** 20, peak


def test_wrapper_bank_rejects_bad_stacks_naming_its_own_step():
    params = ProblemParams(d0=1, alpha=1.0, U=1.0, B=2.0, delta=0.1)
    bank = WrapperBank(*_columns([params] * 3), 5, ["a", "b", "c"])
    for _ in range(2):
        bank.step(np.full((3, 5), 0.25))
    fields = ("prediction", "theta_tilde", "theta_bar_sum", "eps", "err",
              "window", "session")
    before = {name: np.copy(getattr(bank, name)) for name in fields}
    with pytest.raises(ValueError, match=r"shape \(1, 5\), expected \(3, 5\)"):
        bank.step(np.ones((1, 5)))
    grad = np.full((3, 5), 0.25)
    grad[1, 2] = np.nan
    with pytest.raises(ValueError, match=r"^b: the gradient at step 3 "):
        bank.step(grad)
    for name in fields:
        np.testing.assert_array_equal(getattr(bank, name), before[name])
    assert bank.eg.steps == 2

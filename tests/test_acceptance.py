"""End-to-end acceptance checks for the sparse acceleration wrapper.

Each test exercises one advertised guarantee of the package at its stated
tolerance — regret certificates, ball membership, session bookkeeping laws,
convergence rates, probabilistic bound coverage, frozen arithmetic examples,
calibration sanity, and gradient correctness — and reports a single
PASS/FAIL line through the shared terminal-summary hook.

The replica experiments use fixed seeds throughout, so every number below
is reproducible bit for bit on a given platform.
"""

import math

import numpy as np
import pytest

import conftest
from saew.bounds import (
    a_prime,
    b_prime,
    delta_i,
    err_bound,
    gradient_bound_square,
    poisson_bound,
    radius_bound,
    regret_to_risk_bound,
    session_length_bound,
    theorem1_bound,
)
from saew.calibration import run_calibration
from saew.core import L1Ball, ProblemParams, ball_contains
from saew.engine import saew_estimators, saew_init, saew_step
from saew.losses import (
    make_quantile_env,
    make_square_env,
    make_truncated_square_env,
    pinball_loss,
    pinball_subgrad,
    square_grad,
    square_loss,
    truncated_normal_variance,
)
from saew.subroutine import eg_certificate, eg_init

# Each subroutine warns the first time a gradient exceeds the declared
# sup-norm bound; several replicas below run deliberately close to that
# bound, so that warning carries no signal here.  Other RuntimeWarnings
# (numpy overflow or invalid values) still show.
pytestmark = pytest.mark.filterwarnings(
    "ignore:observed gradient sup-norm exceeds:RuntimeWarning")


def _report(index: int, passed: bool, detail: str) -> None:
    line = f"acceptance {index:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


def _r_squared(x: np.ndarray, y: np.ndarray) -> float:
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    return 1.0 - float(np.var(resid) / np.var(y))


# ============================================================
# 1. Subroutine regret certificate
# ============================================================

def _linearized_regret(ball: L1Ball, B: float, grads=None, T: int = 1000):
    """Run the ball optimizer and return (regret vs best corner, gss).

    ``grads=None`` plays an adaptive adversary that always pushes against
    the forecaster's currently heaviest coordinate.
    """
    state = eg_init(ball, B)
    d = ball.dimension
    grad_total = np.zeros(d)
    cum = 0.0
    gss = 0.0
    n = T if grads is None else len(grads)
    for t in range(n):
        theta = state.predict()
        if grads is None:
            off = theta - ball.center
            k = int(np.argmax(np.abs(off)))
            sign = 1.0 if off[k] >= 0.0 else -1.0
            g = np.zeros(d)
            g[k] = B * sign
        else:
            g = grads[t]
        cum += float(g @ theta)
        sup = float(np.max(np.abs(g)))
        gss += sup * sup
        grad_total += g
        state = state.update(g)
    best_corner = float(ball.center @ grad_total) \
        - ball.radius * float(np.max(np.abs(grad_total)))
    return cum - best_corner, gss


def _random_gradient_case(rng):
    d = int(rng.choice([1, 2, 5, 10]))
    T = int(rng.integers(5, 1001))
    B = float(10.0 ** rng.uniform(-1.0, 1.0))
    style = int(rng.integers(3))
    if style == 0:
        grads = rng.uniform(-B, B, size=(T, d))
    elif style == 1:
        grads = B * rng.choice([-1.0, 1.0], size=(T, d))
    else:
        grads = np.zeros((T, d))
        cols = rng.integers(0, d, size=T)
        grads[np.arange(T), cols] = B * rng.choice([-1.0, 1.0], size=T)
    center = rng.normal(size=d) * float(rng.choice([0.0, 1.0]))
    radius = float(10.0 ** rng.uniform(-1.0, 0.5))
    return L1Ball(center, radius), B, grads


def test_subroutine_regret_certificate():
    rng = np.random.default_rng(41)
    violations = 0
    worst_margin = -math.inf
    total = 0

    for _ in range(500):
        ball, B, grads = _random_gradient_case(rng)
        regret, gss = _linearized_regret(ball, B, grads)
        cert = eg_certificate(ball.dimension)
        bound = ball.radius * (cert.a * math.sqrt(gss) + cert.b * B)
        violations += regret > bound + 1e-9
        worst_margin = max(worst_margin, regret - bound)
        total += 1

    signs = (-1.0) ** np.arange(1000)
    for d in (1, 2, 5, 10):
        B = 1.0
        ones = np.ones(d)
        ramp = np.linspace(0.0, B, 1000)
        single = np.zeros((1000, d))
        single[:, 0] = B * signs
        cases = [
            np.tile(B * ones, (1000, 1)),     # constant pull to one corner
            B * signs[:, None] * ones,        # full sign flip every step
            single,                           # one alternating coordinate
            (ramp * signs)[:, None] * ones,   # alternating ramp
            None,                             # adaptive coordinate chaser
        ]
        for grads in cases:
            ball = L1Ball(np.zeros(d), 1.0)
            regret, gss = _linearized_regret(ball, B, grads)
            cert = eg_certificate(d)
            bound = ball.radius * (cert.a * math.sqrt(gss) + cert.b * B)
            violations += regret > bound + 1e-9
            worst_margin = max(worst_margin, regret - bound)
            total += 1

    _report(1, violations == 0,
            f"regret certificate held on {total} gradient sequences "
            f"(worst regret-bound gap {worst_margin:.3f})")


# ============================================================
# 2-4. Shared square-loss replica experiment
# ============================================================

_REPLICA_PARAMS = ProblemParams(d0=3, alpha=30.0, U=1.0, B=8.0, delta=0.05)
_REPLICA_D = 20
_REPLICA_T = 5000
_REPLICA_SEEDS = 60


@pytest.fixture(scope="module")
def square_replicas():
    """Run the 60-seed square-loss replica and collect per-run diagnostics."""
    params = _REPLICA_PARAMS
    runs = []
    for seed in range(_REPLICA_SEEDS):
        env = make_square_env(_REPLICA_D, 3, 0.1, seed)
        theta_star = env.theta_star_metrics
        xs, ys = env.draw(_REPLICA_T)
        state = saew_init(params, _REPLICA_D)
        rec = {"max_g": 0.0, "ball_bad": 0, "l1_bad": 0, "event_ok": True}
        prev_session = 0
        for t in range(_REPLICA_T):
            theta_hat = saew_estimators(state)[0]
            ball = state.optimizer.ball
            if not ball_contains(ball, theta_hat):
                rec["ball_bad"] += 1
            if float(np.sum(np.abs(theta_hat))) > 2.0 * params.U + 1e-9:
                rec["l1_bad"] += 1
            x, y = xs[t], ys[t]

            def oracle(th, x=x, y=y):
                g = square_grad(th, x, y)
                rec["max_g"] = max(rec["max_g"], float(np.max(np.abs(g))))
                return g

            saew_step(state, oracle)
            if state.session != prev_session:
                # A cascade of closes shares one truncated center; the
                # event must hold at every session index it opened.
                center = state.optimizer.ball.center
                dist = float(np.sum(np.abs(center - theta_star)))
                for i in range(prev_session + 1, state.session + 1):
                    if dist > params.U * 2.0 ** (-i / 2.0):
                        rec["event_ok"] = False
                prev_session = state.session
        starts = list(state.session_starts)
        rec["lengths"] = [(j, starts[j + 1] - starts[j])
                          for j in range(len(starts) - 1)]
        runs.append(rec)
    return runs


def test_predictions_stay_in_session_balls(square_replicas):
    runs = square_replicas
    ball_bad = sum(r["ball_bad"] for r in runs)
    event_runs = [r for r in runs if r["event_ok"]]
    l1_bad = sum(r["l1_bad"] for r in event_runs)
    n_preds = _REPLICA_SEEDS * _REPLICA_T
    _report(2, ball_bad == 0 and l1_bad == 0,
            f"{ball_bad}/{n_preds} ball-membership violations; "
            f"{l1_bad} l1-norm violations on {len(event_runs)} "
            f"event-held runs")


def test_truncated_center_event_coverage(square_replicas):
    runs = square_replicas
    coverage = sum(r["event_ok"] for r in runs) / len(runs)
    closed = [len(r["lengths"]) for r in runs]
    _report(3, coverage >= 0.95,
            f"truncated-center event held on {coverage:.3f} of "
            f"{len(runs)} runs (need >= 0.95; sessions closed: "
            f"min {min(closed)}, max {max(closed)})")


def test_session_length_law(square_replicas):
    params = _REPLICA_PARAMS
    cert = eg_certificate(_REPLICA_D)
    eligible = [r for r in square_replicas if r["max_g"] <= params.B]
    violations = 0
    checked = 0
    for rec in eligible:
        gamma = 2.0 ** 4 * params.d0 * rec["max_g"] / (params.alpha * params.U)
        for j, length in rec["lengths"]:
            delta_next = delta_i(params.delta, j + 1)
            a_p = a_prime(cert.a, length, delta_next)
            b_p = b_prime(cert.b, length, delta_next)
            bound = session_length_bound(gamma, a_p, b_p, j)
            violations += length > bound
            checked += 1
    _report(4, violations == 0 and checked > 0,
            f"{violations}/{checked} session-length violations across "
            f"{len(eligible)} runs with in-bound gradients")


# ============================================================
# 5. Fast-rate slope on the quantile stream
# ============================================================

def test_quantile_fast_rate_slope():
    T = 100_000
    checkpoints = np.unique(np.geomspace(1, T, 220).astype(int))
    params = ProblemParams(d0=4, alpha=8.0, U=1.5, B=2.0, delta=0.05)
    slopes = []
    for seed in range(10):
        env = make_quantile_env(20, 3, 0.8, 0.1, seed)
        xs, ys = env.draw(T)
        state = saew_init(params, 21)
        ts, risks = [], []
        ci = 0
        for t in range(T):
            x, y = xs[t], ys[t]
            saew_step(state, lambda th: pinball_subgrad(th, x, y, 0.8))
            if ci < len(checkpoints) and t + 1 == checkpoints[ci]:
                risk = env.excess_risk_exact(saew_estimators(state)[1])
                ts.append(t + 1)
                risks.append(risk)
                ci += 1
        ts_arr = np.array(ts, dtype=float)
        risks_arr = np.array(risks, dtype=float)
        keep = (ts_arr >= T // 10) & (risks_arr > 1e-300)
        slope = np.polyfit(np.log(ts_arr[keep]), np.log(risks_arr[keep]), 1)[0]
        slopes.append(float(slope))
    _report(5, max(slopes) <= -0.8,
            f"log-log excess-risk slopes over the last decade in "
            f"[{min(slopes):.2f}, {max(slopes):.2f}] across 10 seeds "
            f"(need <= -0.8)")


# ============================================================
# 6. Acceleration vs the plain ball optimizer
# ============================================================

def test_acceleration_beats_subroutine():
    T, n_seeds = 10_000, 10
    d, U, B = 2, 2.0, 4.0
    params = ProblemParams(d0=2, alpha=48.0, U=U, B=B, delta=0.1)
    cums_saew = np.empty((n_seeds, T))
    cums_eg = np.empty((n_seeds, T))
    for seed in range(n_seeds):
        env = make_square_env(d, d, 0.3, seed)
        xs, ys = env.draw(T)
        state = saew_init(params, d)
        eg_state = eg_init(L1Ball(np.zeros(d), U), B)
        cum_s = cum_e = 0.0
        for t in range(T):
            x, y = xs[t], ys[t]
            cum_s += env.excess_risk_exact(saew_estimators(state)[0])
            theta_eg = eg_state.predict()
            cum_e += env.excess_risk_exact(theta_eg)
            saew_step(state, lambda th: square_grad(th, x, y))
            eg_state = eg_state.update(square_grad(theta_eg, x, y))
            cums_saew[seed, t] = cum_s
            cums_eg[seed, t] = cum_e
    med_saew = np.median(cums_saew, axis=0)
    med_eg = np.median(cums_eg, axis=0)
    ratio = med_saew[-1] / med_eg[-1]
    t_grid = np.arange(1, T + 1, dtype=float)
    r2_saew = _r_squared(np.log(t_grid), med_saew)
    r2_eg = _r_squared(np.sqrt(t_grid), med_eg)
    _report(6, ratio <= 0.5 and r2_saew >= 0.95 and r2_eg >= 0.95,
            f"median cumulative-risk ratio {ratio:.3f} (need <= 0.5); "
            f"R^2 vs log t {r2_saew:.4f}, R^2 vs sqrt t {r2_eg:.4f} "
            f"(both need >= 0.95)")


# ============================================================
# 7. Probabilistic bound coverage
# ============================================================

def test_bound_coverage_monte_carlo():
    rng = np.random.default_rng(20260819)
    delta = 0.05

    # Sums of nonnegative bounded increments vs the additive tail bound.
    n_trials, n_inc, B_inc, p = 10_000, 40, 1.0, 0.05
    sums = (rng.random((n_trials, n_inc)) < p).sum(axis=1) * B_inc
    tail = poisson_bound(n_inc * p * B_inc, B_inc, delta)
    viol_poisson = float(np.mean(sums > tail))

    # Running maximum of a +/-1 martingale vs the regret-to-risk bound.
    T_mart, eps, B_mart = 100, 1.0, 1.0
    signs = rng.choice([-1.0, 1.0], size=(n_trials, T_mart))
    paths = np.cumsum(signs * eps * B_mart, axis=1)
    mart_bound = regret_to_risk_bound(
        eps, B_mart, T_mart * B_mart * B_mart, T_mart, delta)
    viol_mart = float(np.mean(paths.max(axis=1) > mart_bound))

    # Final-estimator risk bound on bounded-design square-loss runs with
    # honest problem constants.
    d, d0, noise_sd, x_bound, n_sds, T_run = 5, 2, 0.2, 2.0, 3.0, 512
    variance = truncated_normal_variance(x_bound)
    U = 1.0
    y_bound = x_bound * U + n_sds * noise_sd
    B_run = gradient_bound_square(x_bound, y_bound, U)
    params = ProblemParams(d0=d0, alpha=variance, U=U, B=B_run, delta=delta)
    risk_bound = theorem1_bound(params, eg_certificate(d), T_run)
    covered = 0
    for seed in range(200):
        env = make_truncated_square_env(d, d0, noise_sd, seed,
                                        x_bound, n_sds)
        xs, ys = env.draw(T_run)
        state = saew_init(params, d)
        for t in range(T_run):
            x, y = xs[t], ys[t]
            saew_step(state, lambda th: square_grad(th, x, y))
        risk = env.excess_risk_exact(saew_estimators(state)[1])
        covered += risk <= risk_bound
    coverage = covered / 200.0

    _report(7, coverage >= 0.95 and viol_poisson <= 0.05
            and viol_mart <= 0.05,
            f"final-risk bound coverage {coverage:.3f} (need >= 0.95); "
            f"MC violation rates {viol_poisson:.4f} / {viol_mart:.4f} "
            f"(need <= 0.05 each)")


# ============================================================
# 8. Frozen arithmetic formula examples
# ============================================================

def test_frozen_formula_examples():
    checks = [
        ("confidence radius",
         radius_bound(1, 1.0, 0, 2.0, 1, 1.0), 2.0, 1e-9),
        ("inflated slope constant",
         a_prime(0.0, 2, math.exp(-2.0)), 2.0, 1e-9),
        ("inflated offset constant",
         b_prime(0.0, 2, math.exp(-1.0)), 1.5, 1e-9),
        ("session error budget",
         err_bound(25.0, 1.0, 2.0, 0.5), 6.0, 1e-9),
        ("square-loss gradient bound",
         gradient_bound_square(1.0, 1.0, 1.0), 6.0, 1e-9),
        ("nonnegative-sum tail bound",
         poisson_bound(0.0, 1.0, math.exp(-1.0)), 1.0, 1e-9),
        ("session length cap",
         session_length_bound(1.0, 1.0, 1.0, 0), 3.0, 1e-9),
        ("pinball overshoot cost",
         pinball_loss(np.zeros(1), np.ones(1), 1.0, 0.8), 0.8, 1e-9),
        ("pinball undershoot cost",
         pinball_loss(np.zeros(1), np.ones(1), -1.0, 0.8), 0.2, 1e-9),
        ("quantile intercept shift",
         float(make_quantile_env(4, 2, 0.8, 0.1, 6).theta_star_metrics[0]),
         0.0841621233572914, 1e-4),
    ]
    failures = [name for name, got, want, rtol in checks
                if not math.isclose(got, want, rel_tol=rtol)]
    _report(8, not failures,
            f"{len(checks) - len(failures)}/{len(checks)} frozen formula "
            f"examples reproduced" + (f"; failed: {failures}"
                                      if failures else ""))


# ============================================================
# 9. Calibration sanity
# ============================================================

def test_calibration_sanity():
    T, d, Y = 2 ** 14, 4, 2.0
    rng = np.random.default_rng(123456)
    holdout = rng.normal(size=(200_000, d))

    def clipped_risk(theta_matrix, weights, theta_star):
        preds = weights @ np.clip(theta_matrix @ holdout.T, -Y, Y)
        return float(np.mean((preds - holdout @ theta_star) ** 2))

    per_session = []
    finals, bests = [], []
    for seed in range(10):
        env = make_square_env(d, 1, 0.1, seed)
        state = run_calibration(env.draw, T=T, d=d, Y=Y, delta=0.05,
                                exponent_clamp=(0, 0))
        theta_star = env.theta_star_metrics
        row = [clipped_risk(f.theta_matrix, f.mean_weights, theta_star)
               for f in state.past_estimators]
        per_session.append(row)
        finals.append(row[-1])
        final_set = state.past_estimators[-1]
        bests.append(min(
            clipped_risk(final_set.theta_matrix[k:k + 1], np.ones(1),
                         theta_star)
            for k in range(final_set.theta_matrix.shape[0])))
    medians = np.median(np.array(per_session), axis=0)
    monotone = bool(np.all(np.diff(medians) <= 1e-12))
    factor = float(np.median(finals) / np.median(bests))
    _report(9, monotone and factor <= 4.0,
            f"median aggregated risk non-increasing over "
            f"{len(medians)} sessions: {monotone}; final vs best "
            f"candidate factor {factor:.2f} (need <= 4)")


# ============================================================
# 10. Gradient correctness
# ============================================================

def test_gradient_correctness():
    rng = np.random.default_rng(777)
    fd_bad = 0
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        theta = rng.normal(size=d)
        x = rng.normal(size=d)
        y = float(rng.normal())
        grad = square_grad(theta, x, y)
        fd = np.empty(d)
        for k in range(d):
            h = 1e-6 * max(1.0, abs(theta[k]))
            up = theta.copy()
            dn = theta.copy()
            up[k] += h
            dn[k] -= h
            fd[k] = (square_loss(up, x, y) - square_loss(dn, x, y)) / (2 * h)
        if not np.allclose(fd, grad, rtol=1e-6, atol=1e-8):
            fd_bad += 1

    sub_bad = 0
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        theta = rng.normal(size=d)
        other = rng.normal(size=d)
        x = rng.normal(size=d)
        y = float(rng.normal())
        level = float(rng.uniform(0.05, 0.95))
        g = pinball_subgrad(theta, x, y, level)
        gap = pinball_loss(other, x, y, level) \
            - pinball_loss(theta, x, y, level) \
            - float(g @ (other - theta))
        if gap < -1e-12:
            sub_bad += 1

    _report(10, fd_bad == 0 and sub_bad == 0,
            f"{fd_bad}/1000 finite-difference mismatches; "
            f"{sub_bad}/1000 subgradient-inequality violations")

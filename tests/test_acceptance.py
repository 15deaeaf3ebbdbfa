"""End-to-end acceptance checks for the sparse acceleration wrapper.

Each test exercises one advertised guarantee of the package at its stated
tolerance — regret certificates, ball membership, session bookkeeping laws,
convergence rates, probabilistic bound coverage, frozen arithmetic examples,
calibration sanity, gradient correctness, and the smallest-radius and
cumulative-risk bounds on the replica runs — and reports a single
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
    lemma3_min_radius,
    poisson_bound,
    radius_bound,
    regret_to_risk_bound,
    session_length_bound,
    theorem1_a_prime,
    theorem1_b_prime,
    theorem1_bound,
    theorem2_bound,
)
from saew.calibration import run_calibration
from saew.core import BALL_TOL, L1Ball, ProblemParams
from saew.engine import WrapperBank, saew_estimators, saew_init, saew_step
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
from saew.subroutine import EGBank, eg_certificate, eg_init

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
# 2-5. Replica experiments as the rows of one wrapper bank
# ============================================================

def _run_bank(params, envs, T, gradient, observe):
    """Run the wrapper on the first ``T`` samples of each environment's
    stream, one environment per row of a :class:`WrapperBank`, and return
    each row's ``session_starts`` (rebuilt from the changes in
    ``bank.session``).

    After step ``t`` the call ``observe(t, bank, theta_hat, center, radius,
    grad, session)`` sees the step's predictions, the balls they were made
    in, the gradient rows and the sessions before it.  Row 0's stream also
    runs through ``saew_step``, which must give the row's prediction at
    every step, and its ``theta_tilde`` and ``session_starts`` at the end.
    """
    n, d = len(envs), envs[0].dimension
    bank = WrapperBank(*(np.full(n, value) for value in (
        params.d0, params.alpha, params.U, params.B)), params.delta, d,
        [f"seed {env.seed}" for env in envs])
    reference = saew_init(params, d)
    starts = [[1] for _ in envs]
    t = 0
    for parts in zip(*(env.blocks(T, 4096) for env in envs)):
        xs = np.stack([x for x, _ in parts], axis=1)
        ys = np.stack([y for _, y in parts], axis=1)
        for x, y in zip(xs, ys):
            t += 1
            theta_hat, session = bank.prediction, bank.session.copy()
            center, radius = bank.eg.center.copy(), bank.eg.radius.copy()
            assert (theta_hat[0].tobytes()
                    == saew_estimators(reference)[0].tobytes()), t
            grad = gradient(theta_hat, x, y)
            bank.step(grad)
            saew_step(reference, lambda th: gradient(th, x[0], y[0]))
            for r in np.flatnonzero(bank.session != session).tolist():
                starts[r] += [t + 1] * int(bank.session[r] - session[r])
            observe(t, bank, theta_hat, center, radius, grad, session)
    assert bank.theta_tilde[0].tobytes() == reference.theta_tilde.tobytes()
    assert starts[0] == reference.session_starts
    return starts


_REPLICA_PARAMS = ProblemParams(d0=3, alpha=30.0, U=1.0, B=8.0, delta=0.05)
_REPLICA_D = 20
_REPLICA_T = 5000
_REPLICA_SEEDS = 60

# The steps at which check 11 evaluates its bounds, besides each run's last.
_BOUND_TIMES = (100, 1000)


@pytest.fixture(scope="module")
def square_replicas():
    """Run the 60-seed square-loss replica and collect per-run diagnostics."""
    params = _REPLICA_PARAMS
    envs = [make_square_env(_REPLICA_D, 3, 0.1, seed)
            for seed in range(_REPLICA_SEEDS)]
    theta_star = np.array([env.theta_star_metrics for env in envs])
    max_g = np.zeros(len(envs))
    ball_bad = np.zeros(len(envs), dtype=int)
    l1_bad = np.zeros(len(envs), dtype=int)
    event_ok = np.ones(len(envs), dtype=bool)
    cum_risk = np.zeros(len(envs))
    at_times = []  # (eps_min, cumulative risk) of each row at each time

    def observe(t, bank, theta_hat, center, radius, grad, session):
        ball_bad[:] += ~(np.sum(np.abs(theta_hat - center), axis=1)
                         <= radius + BALL_TOL)
        l1_bad[:] += np.sum(np.abs(theta_hat), axis=1) > 2.0 * params.U + 1e-9
        np.maximum(max_g, np.max(np.abs(grad), axis=1), out=max_g)
        # The exact excess risk of a square environment (identity design
        # covariance) is the squared l2 distance to theta_star.
        diff = theta_hat - theta_star
        cum_risk[:] += np.vecdot(diff, diff)
        if t in _BOUND_TIMES + (_REPLICA_T,):
            at_times.append((bank.eps_min.copy(), cum_risk.copy()))
        for r in np.flatnonzero(bank.session != session).tolist():
            # A cascade of closes shares one truncated center; the event
            # must hold at every session index it opened.
            dist = float(np.sum(np.abs(bank.eg.center[r]
                                       - envs[r].theta_star_metrics)))
            for i in range(session[r] + 1, bank.session[r] + 1):
                if dist > params.U * 2.0 ** (-i / 2.0):
                    event_ok[r] = False

    starts = _run_bank(params, envs, _REPLICA_T, square_grad, observe)
    return [{"max_g": float(max_g[r]), "ball_bad": int(ball_bad[r]),
             "l1_bad": int(l1_bad[r]), "event_ok": bool(event_ok[r]),
             "lengths": [(j, s[j + 1] - s[j]) for j in range(len(s) - 1)],
             "eps_min": [eps[r] for eps, _ in at_times],
             "cum_risk": [cum[r] for _, cum in at_times]}
            for r, s in enumerate(starts)]


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
    checkpoints = set(np.geomspace(1, T, 220).astype(int).tolist())
    params = ProblemParams(d0=4, alpha=8.0, U=1.5, B=2.0, delta=0.05)
    envs = [make_quantile_env(20, 3, 0.8, 0.1, seed) for seed in range(10)]
    ts, risks = [], []

    def observe(t, bank, *_):
        if t in checkpoints:
            ts.append(t)
            risks.append([env.excess_risk_exact(theta)
                          for env, theta in zip(envs, bank.theta_tilde)])

    _run_bank(params, envs, T, lambda th, x, y: pinball_subgrad(th, x, y, 0.8),
              observe)
    ts_arr = np.array(ts, dtype=float)
    slopes = []
    for risks_arr in np.array(risks, dtype=float).T:
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

_ACCEL_PARAMS = ProblemParams(d0=2, alpha=48.0, U=2.0, B=4.0, delta=0.1)
_ACCEL_D = 2
_ACCEL_T = 10_000
_ACCEL_SEEDS = 10


@pytest.fixture(scope="module")
def acceleration_runs():
    """Run the wrapper and the plain ball optimizer on 10 square-loss
    seeds; return each one's cumulative excess risk per seed and step, and
    the wrapper rows' largest gradient sup-norm and ``eps_min`` at the
    bound times."""
    T, n_seeds, d = _ACCEL_T, _ACCEL_SEEDS, _ACCEL_D
    params = _ACCEL_PARAMS
    envs = [make_square_env(d, d, 0.3, seed) for seed in range(n_seeds)]
    # Each step's predictions, one row per seed, scored after the runs.
    saew_preds = np.empty((n_seeds, T, d))
    eg_preds = np.empty((n_seeds, T, d))
    max_g = np.zeros(n_seeds)
    eps_min = []

    def observe(t, bank, theta_hat, center, radius, grad, session):
        saew_preds[:, t - 1] = theta_hat
        np.maximum(max_g, np.max(np.abs(grad), axis=1), out=max_g)
        if t in _BOUND_TIMES + (T,):
            eps_min.append(bank.eps_min.copy())

    _run_bank(params, envs, T, square_grad, observe)

    # The plain ball optimizer as the rows of one EGBank; seed 0 also runs
    # through EGState and must predict its row's bits at every step.
    eg = EGBank(np.zeros((n_seeds, d)), np.full(n_seeds, params.U),
                np.full(n_seeds, params.B),
                [f"seed {env.seed}" for env in envs])
    reference = eg_init(L1Ball(np.zeros(d), params.U), params.B)
    draws = [env.draw(T) for env in envs]
    xs = np.stack([x for x, _ in draws], axis=1)
    ys = np.stack([y for _, y in draws], axis=1)
    for t, (x, y) in enumerate(zip(xs, ys)):
        theta_eg, theta_ref = eg.prediction, reference.predict()
        assert theta_eg[0].tobytes() == theta_ref.tobytes(), t
        eg_preds[:, t] = theta_eg
        eg.update(square_grad(theta_eg, x, y))
        reference.update(square_grad(theta_ref, x[0], y[0]))

    # Running sums in step order, as a scalar loop adds them.
    cums_saew, cums_eg = (
        np.array([np.add.accumulate(env.excess_risk_exact(rows))
                  for env, rows in zip(envs, preds)])
        for preds in (saew_preds, eg_preds))
    return {"cums_saew": cums_saew, "cums_eg": cums_eg, "max_g": max_g,
            "eps_min": np.array(eps_min)}


def test_acceleration_beats_subroutine(acceleration_runs):
    T = _ACCEL_T
    cums_saew = acceleration_runs["cums_saew"]
    cums_eg = acceleration_runs["cums_eg"]
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
    envs = [make_truncated_square_env(d, d0, noise_sd, seed, x_bound, n_sds)
            for seed in range(200)]
    risks = []

    def observe(t, bank, *_):
        if t == T_run:
            risks.extend(env.excess_risk_exact(theta)
                         for env, theta in zip(envs, bank.theta_tilde))

    _run_bank(params, envs, T_run, square_grad, observe)
    covered = sum(risk <= risk_bound for risk in risks)
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


# ============================================================
# 11. Lemma 3 and Theorem 2 on the runs of checks 2-4 and 6
# ============================================================

def _bound_ratios(params, d, T, eps_min, cum_risk, lemma3=lemma3_min_radius):
    """Worst ratios of Lemma 3's and Theorem 2's bounds to what they bound.

    ``eps_min[k]`` and ``cum_risk[k]`` hold each row's smallest confidence
    radius and cumulative excess risk of the predictions after step
    ``(*_BOUND_TIMES, T)[k]``.  A ratio below 1 is a violation.
    """
    cert = eg_certificate(d)
    gamma = 2.0 ** 4 * params.d0 * params.B / (params.alpha * params.U)
    lemma3_ratio = theorem2_ratio = math.inf
    for t, eps, cum in zip(_BOUND_TIMES + (T,), eps_min, cum_risk):
        a_p = theorem1_a_prime(cert.a, t, params.delta)
        b_p = theorem1_b_prime(cert.b, t, params.delta)
        lemma3_ratio = min(lemma3_ratio, lemma3(params.U, gamma, a_p, b_p, t)
                           / float(np.max(eps)))
        theorem2_ratio = min(theorem2_ratio, theorem2_bound(params, cert, t)
                             / float(np.max(cum)))
    return lemma3_ratio, theorem2_ratio


def _acceleration_ratios(runs, lemma3=lemma3_min_radius):
    cum_risk = runs["cums_saew"][:, [t - 1 for t in _BOUND_TIMES + (_ACCEL_T,)]]
    return _bound_ratios(_ACCEL_PARAMS, _ACCEL_D, _ACCEL_T, runs["eps_min"],
                         cum_risk.T, lemma3)


def test_lemma3_and_theorem2_cover_runs(square_replicas, acceleration_runs):
    replica_ratios = _bound_ratios(
        _REPLICA_PARAMS, _REPLICA_D, _REPLICA_T,
        np.array([r["eps_min"] for r in square_replicas]).T,
        np.array([r["cum_risk"] for r in square_replicas]).T)
    accel_ratios = _acceleration_ratios(acceleration_runs)
    lemma3_ratio, theorem2_ratio = np.minimum(replica_ratios, accel_ratios)
    runs = len(square_replicas) + _ACCEL_SEEDS
    in_bound = (sum(r["max_g"] <= _REPLICA_PARAMS.B for r in square_replicas)
                + int(np.sum(acceleration_runs["max_g"] <= _ACCEL_PARAMS.B)))
    _report(11, lemma3_ratio >= 1.0 and theorem2_ratio >= 1.0,
            f"Lemma 3 radius bound >= {lemma3_ratio:.2f} x eps_min and "
            f"Theorem 2 bound >= {theorem2_ratio:.0f} x cumulative risk "
            f"on {runs} runs at t = {', '.join(map(str, _BOUND_TIMES))}, T "
            f"(need >= 1 each; "
            f"{in_bound} runs kept every gradient within B)")


def test_check_11_rejects_lemma3_with_t_for_sqrt_t(acceleration_runs):
    def mutant(U, gamma, a_p, b_p, t):
        return U * (math.sqrt(2.0) * gamma * a_p / t
                    + (2.0 + 4.0 * gamma * b_p) / t)

    lemma3_ratio, _ = _acceleration_ratios(acceleration_runs, mutant)
    assert lemma3_ratio < 1.0

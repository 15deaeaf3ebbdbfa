"""Tests for the parameter-free calibration layer."""

import copy
import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from saew.bounds import delta_i  # noqa: F401  (cross-module availability)
from saew.calibration import (
    BudgetExceededError,
    CalibrationState,
    GridEntry,
    SessionPredictor,
    build_grid,
    calibration_estimator,
    calibration_init,
    calibration_step,
    grid_cost,
    run_calibration,
    session_delta,
    zero_predictor,
)
from saew.core import ProblemParams
from saew.engine import (
    WrapperBank,
    frozen_rows,
    radius_floor,
    saew_estimators,
    saew_init,
    saew_step,
)
from saew.losses import make_square_env, square_grad
from saew.subroutine import OVER_B_WARNING


# ============================================================
# build_grid
# ============================================================

def test_grid_session0_hand_enumeration():
    grid = build_grid(0, d=2, Y=1.0)
    assert grid[0] == GridEntry(d0=0)
    assert set(grid) == {
        GridEntry(d0=0),
        GridEntry(d0=1, alpha=1.0, U=1.0, B=1.0),
        GridEntry(d0=2, alpha=2.0, U=1.0, B=1.0),
    }


def test_grid_components_are_powers_of_two():
    for j, d, Y in [(0, 2, 1.0), (2, 5, 1.0), (3, 8, 4.0)]:
        for e in build_grid(j, d, Y):
            if e.is_null:
                assert e.alpha is None and e.U is None and e.B is None
                continue
            for v in (float(e.d0), e.alpha, e.U, e.B):
                assert v > 0 and math.log2(v) == int(math.log2(v))


def test_grid_growth_is_polylog():
    sizes = [len(build_grid(j, d=4, Y=1.0)) for j in range(2, 9)]
    assert all(s2 > s1 for s1, s2 in zip(sizes, sizes[1:]))
    ratios = [s2 / s1 for s1, s2 in zip(sizes, sizes[1:])]
    assert max(ratios) < 3.0


def test_grid_cardinality_bound():
    # |grid| = O((j + log Y)^3 * log d): check against the explicit
    # combinatorial count of the exponent ranges.
    for j, d, Y in [(1, 4, 1.0), (3, 16, 2.0), (5, 7, 4.0)]:
        grid = build_grid(j, d, Y)
        n_d0 = math.ceil(math.log2(d)) + 1
        n_ub = 4 * j + math.ceil(2 * math.log2(Y)) + 1
        n_alpha = 3 * j + 2 * abs(math.ceil(2 * math.log2(Y))) + 6 + 4 * j
        assert len(grid) <= 1 + n_d0 * n_ub ** 2 * n_alpha


def test_grid_entries_unique():
    grid = build_grid(3, d=8, Y=2.0)
    assert len(set(grid)) == len(grid)


def test_grid_exponent_clamp_intersects_ranges():
    full = build_grid(2, d=2, Y=1.0)
    clamped = build_grid(2, d=2, Y=1.0, exponent_clamp=(0, 0))
    assert set(clamped) <= set(full)
    for e in clamped:
        if not e.is_null:
            assert e.U == 1.0 and e.B == 1.0 and e.alpha == 1.0
    with pytest.raises(ValueError, match="clamp"):
        build_grid(1, d=2, Y=1.0, exponent_clamp=(2, -2))


def test_grid_validation():
    with pytest.raises(ValueError, match="j"):
        build_grid(-1, d=2, Y=1.0)
    with pytest.raises(ValueError, match="d"):
        build_grid(0, d=0, Y=1.0)
    with pytest.raises(ValueError, match="Y"):
        build_grid(0, d=2, Y=0.0)


def test_grid_factor_two_cover():
    # Any true tuple within the session's ranges has a grid tuple within a
    # factor 2 of every component.
    j, d, Y = 3, 8, 2.0
    grid = build_grid(j, d, Y)
    rng = np.random.default_rng(9)
    k_hi = 2 * j + math.ceil(2 * math.log2(Y))
    for _ in range(100):
        s_true = int(rng.integers(1, d + 1))
        u_true = float(2.0 ** rng.uniform(-2 * j, k_hi))
        b_true = float(2.0 ** rng.uniform(-2 * j, k_hi))
        d0 = 2 ** math.ceil(math.log2(s_true))
        U = 2.0 ** math.ceil(math.log2(u_true))
        B = 2.0 ** math.ceil(math.log2(b_true))
        assert d0 / 2 <= s_true <= d0 and U / 2 <= u_true <= U
        a_lo = -2 * j + math.ceil(math.log2(B * d0 / Y ** 2))
        a_hi = j + math.ceil(math.log2(d0))
        if a_lo > a_hi:
            continue
        a_true = float(2.0 ** rng.uniform(a_lo, a_hi))
        alpha = 2.0 ** math.ceil(math.log2(a_true))
        assert GridEntry(d0=d0, alpha=alpha, U=U, B=B) in set(grid)


# ============================================================
# Session confidence budget
# ============================================================

def test_session_delta_schedule():
    assert session_delta(0.1, 0) == pytest.approx(0.05)
    assert session_delta(0.1, 1) == pytest.approx(0.1 / 8)
    assert session_delta(0.1, 2) == pytest.approx(0.1 / 18)
    with pytest.raises(ValueError):
        session_delta(1.5, 0)
    with pytest.raises(ValueError):
        session_delta(0.1, -1)


def test_session_delta_total_budget():
    total = sum(session_delta(0.1, j) for j in range(100000))
    assert total <= 0.1


# ============================================================
# Meta-aggregation mechanics (manually constructed states)
# ============================================================

def _manual_state(thetas, d, Y, entries=None):
    thetas = np.array(thetas, float)
    n = thetas.shape[0]
    if entries is None:
        entries = [GridEntry(d0=1, alpha=1.0, U=1.0, B=1.0)] * n
    return CalibrationState(
        d=d, Y=Y, delta=0.1, exponent_clamp=None,
        j=30, t=2 ** 30,  # far from any session boundary
        candidates=list(entries),
        theta_matrix=thetas,
        log_weights=np.zeros(n),
        weight_snapshot_sum=np.zeros(n),
        meta_loss_sum=0.0,
        candidate_loss_sum=np.zeros(n),
        past_estimators=[],
        history_x=[], history_y=[],
        n_out_of_range=0,
        session_rows=[],
    )


def test_single_candidate_prediction_is_its_clip():
    state = _manual_state([[0.7, 0.0]], d=2, Y=1.0)
    pred, _ = calibration_step(state, np.array([2.0, 0.0]), 0.3)
    assert pred == 1.0  # raw 1.4 clipped to Y=1
    pred, _ = calibration_step(state, np.array([0.5, 0.0]), 0.3)
    assert pred == pytest.approx(0.35)


def test_identical_candidates_keep_uniform_weights():
    state = _manual_state([[0.4, 0.1], [0.4, 0.1], [0.4, 0.1]], d=2, Y=1.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        calibration_step(state, rng.normal(size=2), float(rng.normal()))
    w = np.exp(state.log_weights - np.max(state.log_weights))
    w /= w.sum()
    np.testing.assert_allclose(w, np.ones(3) / 3)


def test_two_candidate_weight_closed_form():
    # Losses 0 vs 1 each step: the better weight is 1/(1+exp(-t/(8Y^2))).
    state = _manual_state([[0.0], [1.0]], d=1, Y=1.0)
    x = np.array([1.0])
    for t in range(1, 25):
        calibration_step(state, x, 0.0)
        w = np.exp(state.log_weights - np.max(state.log_weights))
        w /= w.sum()
        assert w[0] == pytest.approx(1.0 / (1.0 + math.exp(-t / 8.0)),
                                     rel=1e-12)


def test_predictions_always_within_clipping_range():
    rng = np.random.default_rng(7)
    thetas = rng.normal(scale=3.0, size=(5, 3))
    state = _manual_state(thetas, d=3, Y=0.8)
    for _ in range(100):
        pred, _ = calibration_step(state, rng.normal(scale=2.0, size=3),
                                   float(rng.normal(scale=2.0)))
        assert -0.8 <= pred <= 0.8


def test_out_of_range_responses_accepted_and_counted():
    state = _manual_state([[0.5]], d=1, Y=1.0)
    calibration_step(state, np.array([1.0]), 5.0)
    calibration_step(state, np.array([1.0]), -3.0)
    calibration_step(state, np.array([1.0]), 0.5)
    assert state.n_out_of_range == 2


def test_step_validation():
    state = _manual_state([[0.5, 0.0]], d=2, Y=1.0)
    with pytest.raises(ValueError, match="shape"):
        calibration_step(state, np.zeros(3), 0.0)
    with pytest.raises(ValueError, match="finite"):
        calibration_step(state, np.array([np.nan, 0.0]), 0.0)
    with pytest.raises(ValueError, match="finite"):
        calibration_step(state, np.zeros(2), math.inf)


@pytest.mark.parametrize("y", [1e200, 1.3e154])
def test_step_rejects_an_overflowing_loss_state_unchanged(y):
    # 1e200 overflows every square; 1.3e154 only the candidate at -Y's,
    # not the meta prediction's (0, the two candidates' mean).
    state = _manual_state([[1e154, 0.0], [-1e154, 0.0]], d=2, Y=1e154)
    calibration_step(state, np.array([1.0, 0.0]), 0.3)
    before = dataclasses.replace(state)
    arrays = {name: np.copy(getattr(state, name)) for name in
              ("log_weights", "weight_snapshot_sum", "candidate_loss_sum")}
    with pytest.raises(ValueError, match=rf"^step {state.t}: .* overflows"):
        calibration_step(state, np.array([1.0, 0.0]), y)
    for name, value in arrays.items():
        np.testing.assert_array_equal(getattr(state, name), value)
    assert (state.t, state.meta_loss_sum, state.n_out_of_range,
            len(state.history_y)) == (before.t, before.meta_loss_sum,
                                      before.n_out_of_range,
                                      len(before.history_y))


def _same(a, b) -> bool:
    """Whether ``a`` and ``b`` hold equal values, arrays bit for bit,
    through lists, tuples and dataclasses."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(map(_same, a, b)))
    return a == b


def test_a_close_whose_fit_fails_leaves_the_state_unchanged():
    # The third step closes session 1 and fits grid 2 on the history,
    # where the second sample makes candidate 20's gradient overflow.
    state = calibration_init(2, 2.0, 0.1, exponent_clamp=(-1, 3))
    for x in ([1.0, 0.5], [1e200, 0.0]):
        calibration_step(state, np.array(x), 0.3)
    before = copy.deepcopy(state)
    with pytest.raises(ValueError,
                       match="^candidate 20: the gradient at step 2 "), \
            np.errstate(over="ignore"):
        calibration_step(state, np.array([1.0, 0.5]), 0.3)
    for field in dataclasses.fields(CalibrationState):
        assert _same(getattr(state, field.name),
                     getattr(before, field.name)), field.name


def test_a_fit_of_frozen_rows_only_steps_no_overflowing_sample():
    # With clamp (-1, 1) every row of grids 2 and 3 is proven frozen, so
    # their fits step no wrapper and the overflowing second sample raises
    # nothing; grid 4 has live rows and its fit still raises.
    state = calibration_init(2, 2.0, 0.1, exponent_clamp=(-1, 1))
    x = np.array([1.0, 0.5])
    for x_t in (x, [1e200, 0.0], x):
        with np.errstate(over="ignore"):
            calibration_step(state, np.array(x_t), 0.3)
    assert (state.j, state.t, len(state.candidates)) == (2, 4, 55)
    assert state.candidate_steps == 0
    assert state.frozen_steps == 54 * 1 + 54 * 3
    assert not np.any(state.theta_matrix)
    with np.errstate(over="ignore"):
        while state.t < 15:
            calibration_step(state, x, 0.3)
        assert state.candidate_steps == 0
        before = copy.deepcopy(state)
        with pytest.raises(ValueError,
                           match="^candidate 9: the gradient at step 2 "):
            calibration_step(state, x, 0.3)
    for field in dataclasses.fields(CalibrationState):
        assert _same(getattr(state, field.name),
                     getattr(before, field.name)), field.name


def test_meta_regret_within_exp_concave_bound():
    # Cumulative meta loss minus best candidate loss <= 8 Y^2 ln(#grid).
    rng = np.random.default_rng(11)
    Y = 1.5
    thetas = rng.normal(scale=0.8, size=(7, 4))
    state = _manual_state(thetas, d=4, Y=Y)
    T = 400
    for _ in range(T):
        x = rng.normal(size=4)
        y = float(np.clip(rng.normal(scale=0.8), -Y, Y))
        calibration_step(state, x, y)
    regret = state.meta_loss_sum - float(np.min(state.candidate_loss_sum))
    assert regret <= 8.0 * Y ** 2 * math.log(7) + 1e-9


# ============================================================
# Session predictor (f-bar)
# ============================================================

def test_session_predictor_formula():
    f = SessionPredictor(j=2, Y=1.0,
                         mean_weights=np.array([0.3, 0.7]),
                         theta_matrix=np.array([[2.0, 0.0], [0.0, 0.5]]))
    x = np.array([1.0, 1.0])
    # clip(2) = 1, clip(0.5) = 0.5 -> 0.3*1 + 0.7*0.5
    assert f(x) == pytest.approx(0.3 * 1.0 + 0.7 * 0.5)


def test_estimator_is_zero_predictor_during_session_zero():
    state = calibration_init(d=2, Y=1.0, delta=0.1)
    f = calibration_estimator(state)
    assert f is zero_predictor
    assert f(np.array([5.0, -3.0])) == 0.0


def test_estimator_after_first_session_is_zero_function():
    # Session 0 candidates are all frozen at zero estimators, so the
    # first completed session averages to the zero function.
    state = calibration_init(d=2, Y=1.0, delta=0.1)
    env = make_square_env(d=2, d0=1, noise_sd=0.1, seed=0)
    x, y = env.draw(1)
    calibration_step(state, x[0], float(y[0]))  # t=1 -> session closes
    f = calibration_estimator(state)
    assert isinstance(f, SessionPredictor)
    assert f(np.array([3.0, -2.0])) == 0.0


def test_initial_prediction_is_zero():
    state = calibration_init(d=3, Y=1.0, delta=0.1)
    env = make_square_env(d=3, d0=1, noise_sd=0.1, seed=1)
    x, y = env.draw(1)
    pred, _ = calibration_step(state, x[0], float(y[0]))
    assert pred == 0.0


# ============================================================
# End-to-end doubling runs
# ============================================================

def test_run_calibration_doubling_bookkeeping():
    env = make_square_env(d=2, d0=1, noise_sd=0.1, seed=3)
    T = 64
    state = run_calibration(env.draw, T=T, d=2, Y=2.0, delta=0.1,
                            exponent_clamp=(-1, 1))
    assert state.t == T + 1
    assert state.j == 6  # sessions 0..5 completed at t = 64 = 2^6
    assert [row.j for row in state.session_rows] == list(range(6))
    assert [f.j for f in state.past_estimators] == list(range(6))
    assert calibration_estimator(state) is state.past_estimators[-1]
    for row in state.session_rows:
        expected = len(build_grid(row.j, 2, 2.0, exponent_clamp=(-1, 1)))
        assert row.grid_size == expected
        assert row.meta_risk >= 0.0 and math.isfinite(row.meta_risk)
        assert row.best_risk >= 0.0 and math.isfinite(row.best_risk)


def _assert_rows_are_prefix_replicas(exponent_clamp):
    # The matrix row for a session-j candidate must equal a fresh wrapper
    # run over exactly the first 2^j - 1 samples with delta_j.
    env = make_square_env(d=2, d0=1, noise_sd=0.2, seed=5)
    T = 31
    state = run_calibration(env.draw, T=T, d=2, Y=2.0, delta=0.1,
                            exponent_clamp=exponent_clamp)
    j = state.j  # current session (predicting candidates frozen at 2^j)
    xs, ys = env.draw(2 ** j - 1)
    for idx, entry in enumerate(state.candidates):
        if entry.is_null:
            np.testing.assert_array_equal(state.theta_matrix[idx],
                                          np.zeros(2))
            continue
        params = ProblemParams(d0=min(entry.d0, 2), alpha=entry.alpha,
                               U=entry.U, B=entry.B,
                               delta=session_delta(0.1, j))
        replica = saew_init(params, 2)
        for s in range(2 ** j - 1):
            x_s, y_s = xs[s], float(ys[s])
            saew_step(replica,
                      lambda theta: 2.0 * (float(x_s @ theta) - y_s) * x_s)
        np.testing.assert_array_equal(state.theta_matrix[idx],
                                      saew_estimators(replica)[1])
    return state


def test_frozen_candidates_reproducible_from_prefix():
    _assert_rows_are_prefix_replicas((0, 0))


def test_fitted_candidates_off_the_origin_reproducible_from_prefix():
    # Large alpha lets some candidates' theta_tilde leave the origin on this
    # stream, so the rows compare nonzero estimates, not only zeros.
    state = _assert_rows_are_prefix_replicas((2, 4))
    assert np.any(state.theta_matrix)


def test_non_degenerate_grid_rows_are_prefix_replicas():
    # d=10, T=255 with exponents in [-2, 4]: 858,851 candidate-steps, and
    # the fitted estimators leave the origin.
    d, T, clamp = 10, 255, (-2, 4)
    assert grid_cost(T, d, 2.0, clamp) == 858_851
    env = make_square_env(d=d, d0=2, noise_sd=0.1, seed=1)
    state = run_calibration(env.draw, T=T, d=d, Y=2.0, delta=0.05,
                            exponent_clamp=clamp)
    assert state.j == 8
    assert np.count_nonzero(np.any(state.theta_matrix, axis=1)) > 100
    xs, ys = env.draw(T)
    checked = [k for k, e in enumerate(state.candidates)
               if not e.is_null][::50]
    assert any(state.candidates[k].d0 > d for k in checked)
    for k in checked:
        entry = state.candidates[k]
        replica = saew_init(ProblemParams(
            d0=min(entry.d0, d), alpha=entry.alpha, U=entry.U, B=entry.B,
            delta=session_delta(0.05, 8)), d)
        for x, y in zip(xs, ys.tolist()):
            saew_step(replica,
                      lambda theta: 2.0 * (float(x @ theta) - y) * x)
        np.testing.assert_array_equal(state.theta_matrix[k],
                                      saew_estimators(replica)[1])


def _unfrozen_fit(grid, d, delta_j, history_x, history_y):
    """The reference fit: one WrapperBank over every non-null row."""
    theta_matrix = np.zeros((len(grid), d))
    rows = np.flatnonzero(grid.d0)
    if not rows.size:
        return theta_matrix
    bank = WrapperBank(np.minimum(grid.d0[rows], d), grid.alpha[rows],
                       grid.U[rows], grid.B[rows], delta_j, d,
                       [f"candidate {r}" for r in rows.tolist()])
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", re.escape(OVER_B_WARNING),
                                RuntimeWarning)
        for x, y in zip(history_x, history_y):
            bank.step(square_grad(bank.prediction, x, y))
    theta_matrix[rows] = bank.theta_tilde
    return theta_matrix


@pytest.mark.parametrize("d, T, clamp", [
    (10, 32, (-2, 2)),  # the calibrate_grid benchmark config
    (10, 255, (-2, 4)), (10, 1023, (-2, 4)),  # the moving grid
    (3, 255, (-2, 4)), (5, 255, (-2, 4)), (20, 255, (-2, 4))])
def test_fits_skipping_frozen_rows_match_the_unfrozen_bank(d, T, clamp,
                                                           monkeypatch):
    # Every fit's theta_tilde matrix equals, bit for bit, that of one bank
    # stepping every non-null row, frozen ones included.
    import saew.calibration

    fits = []
    fit = saew.calibration._fit_candidates

    def recording(*args):
        fits.append((args, fit(*args)))
        return fits[-1][1]

    monkeypatch.setattr(saew.calibration, "_fit_candidates", recording)
    env = make_square_env(d=d, d0=2, noise_sd=0.1, seed=1)
    state = run_calibration(env.draw, T=T, d=d, Y=2.0, delta=0.05,
                            exponent_clamp=clamp)
    assert state.candidate_steps > 0 and state.frozen_steps > 0
    for args, (theta_matrix, _) in fits:
        assert theta_matrix.tobytes() == _unfrozen_fit(*args).tobytes()


def test_session_zero_radius_never_falls_below_its_floor():
    # One bank over grid 8 of the moving grid and its 255 samples: while a
    # row is in session 0 its eps is at least radius_floor at its window.
    d, j = 10, 8
    env = make_square_env(d=d, d0=2, noise_sd=0.1, seed=1)
    xs, ys = env.draw(2 ** j - 1)
    grid = build_grid(j, d, 2.0, (-2, 4))
    rows = np.flatnonzero(grid.d0)
    columns = (np.minimum(grid.d0[rows], d), grid.alpha[rows], grid.U[rows],
               grid.B[rows])
    delta_j = session_delta(0.05, j)
    bank = WrapperBank(*columns, delta_j, d, [str(r) for r in rows])
    ratios = []
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", re.escape(OVER_B_WARNING),
                                RuntimeWarning)
        for w, (x, y) in enumerate(zip(xs, ys), 1):
            bank.step(square_grad(bank.prediction, x, y))
            first = bank.session == 0
            floor = radius_floor(*(c[first] for c in columns), delta_j, d,
                                 np.array([w]))
            ratios.append(np.min(bank.eps[first] / floor[:, 0]))
    assert min(ratios) >= 1.0
    # Rows leave session 0 and others stay frozen to the end.
    assert 0 < np.count_nonzero(bank.session == 0) < len(rows)


def test_frozen_row_check_memory_does_not_grow_with_the_history():
    grid = build_grid(10, 10, 2.0, (-2, 4))
    rows = np.flatnonzero(grid.d0)
    columns = (np.minimum(grid.d0[rows], 10), grid.alpha[rows],
               grid.U[rows], grid.B[rows])
    peaks = []
    for steps in (1023, 4095):
        tracemalloc.start()
        try:
            frozen = frozen_rows(*columns, 0.01, 10, steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert 0 < np.count_nonzero(frozen) < len(rows)
    assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0]


def test_nominal_sparsity_above_dimension_is_usable():
    # d=3 puts d0=4 in the grid; the wrapper runs it at effective d0=3.
    grid = build_grid(0, d=3, Y=1.0)
    assert any(e.d0 == 4 for e in grid)
    env = make_square_env(d=3, d0=1, noise_sd=0.1, seed=2)
    state = run_calibration(env.draw, T=8, d=3, Y=1.0, delta=0.1,
                            exponent_clamp=(-1, 1))
    assert state.j == 3


def test_calibration_init_validation():
    with pytest.raises(ValueError, match="d"):
        calibration_init(d=0, Y=1.0, delta=0.1)
    with pytest.raises(ValueError, match="Y"):
        calibration_init(d=2, Y=0.0, delta=0.1)
    with pytest.raises(ValueError, match="delta"):
        calibration_init(d=2, Y=1.0, delta=0.0)


# ============================================================
# Budget guard
# ============================================================

def test_grid_cost_single_step():
    nonnull = sum(1 for e in build_grid(1, 2, 1.0) if not e.is_null)
    assert grid_cost(1, 2, 1.0) == nonnull


@pytest.mark.parametrize("d", [1, 2, 5, 10])
@pytest.mark.parametrize("Y", [0.3, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("clamp", [None, (-1, 1), (0, 6), (3, 3), (10, 10)])
def test_grid_cost_counts_the_non_null_entries_of_each_grid(d, Y, clamp):
    for T in (1, 2, 6, 7, 40, 63):
        expected = sum(
            sum(1 for e in build_grid(k, d, Y, clamp) if not e.is_null)
            * (2 ** k - 1)
            for k in range(1, (T + 1).bit_length()))
        assert grid_cost(T, d, Y, clamp) == expected


def test_grid_cost_validates_like_build_grid():
    for d, Y, clamp in [(0, 1.0, None), (2, 0.0, None), (2, math.inf, None),
                        (2, 1.0, (1, 0))]:
        with pytest.raises(ValueError):
            build_grid(1, d, Y, clamp)
        with pytest.raises(ValueError):
            grid_cost(4, d, Y, clamp)


def test_over_budget_run_builds_no_grid(monkeypatch):
    # Unclamped at T = 2**16 - 1, grid 16 alone has over a million entries.
    import saew.calibration

    def no_grid(*args):
        raise AssertionError("build_grid must not run over budget")

    monkeypatch.setattr(saew.calibration, "build_grid", no_grid)
    with pytest.raises(BudgetExceededError, match="budget 50000000"):
        run_calibration(lambda n: (np.zeros((n, 10)), np.zeros(n)),
                        T=2 ** 16 - 1, d=10, Y=2.0, delta=0.1)


def _count_candidate_steps(monkeypatch):
    # Candidates train in _fit_candidates: one wrapper step per live row
    # and history sample; the rows proven frozen are skipped.
    import saew.calibration

    calls = {"stepped": 0, "skipped": 0}
    fit = saew.calibration._fit_candidates

    def counting(grid, d, delta_j, history_x, history_y):
        theta_matrix, stepped = fit(grid, d, delta_j, history_x, history_y)
        calls["stepped"] += stepped * len(history_x)
        calls["skipped"] += ((np.count_nonzero(grid.d0) - stepped)
                             * len(history_x))
        return theta_matrix, stepped

    monkeypatch.setattr(saew.calibration, "_fit_candidates", counting)
    return calls


@pytest.mark.parametrize("T", [1, 2, 3, 7, 8, 15, 16, 31, 32, 33])
def test_grid_cost_counts_the_candidate_steps_run(T, monkeypatch):
    calls = _count_candidate_steps(monkeypatch)
    env = make_square_env(d=2, d0=1, noise_sd=0.1, seed=4)
    state = run_calibration(env.draw, T=T, d=2, Y=2.0, delta=0.1,
                            exponent_clamp=(-1, 1))
    assert (state.candidate_steps, state.frozen_steps) == (
        calls["stepped"], calls["skipped"])
    assert calls["stepped"] + calls["skipped"] == grid_cost(
        T, 2, 2.0, exponent_clamp=(-1, 1))


def test_candidates_train_only_when_a_session_closes(monkeypatch):
    calls = _count_candidate_steps(monkeypatch)
    env = make_square_env(d=2, d0=1, noise_sd=0.1, seed=4)
    xs, ys = env.draw(40)
    state = calibration_init(d=2, Y=2.0, delta=0.1, exponent_clamp=(-1, 1))
    for t in range(40):
        before = calls["stepped"] + calls["skipped"]
        calibration_step(state, xs[t], float(ys[t]))
        closed = state.t == 2 ** state.j
        assert (calls["stepped"] + calls["skipped"] > before) == closed
        assert state.candidate_steps + state.frozen_steps == grid_cost(
            state.t - 1, 2, 2.0, exponent_clamp=(-1, 1))
    assert calls["stepped"] > 0


def test_candidate_fits_build_no_problem_params(monkeypatch):
    # The fits hand the grid's live columns to one bank per boundary: no
    # ProblemParams is built, and every live candidate is a bank row.
    import saew.calibration

    built, rows = [], []

    def counted(self):
        built.append(self)

    class CountingBank(saew.calibration.WrapperBank):
        def __init__(self, d0, *args):
            rows.append(len(d0))
            super().__init__(d0, *args)

    monkeypatch.setattr(ProblemParams, "__post_init__", counted)
    monkeypatch.setattr(saew.calibration, "WrapperBank", CountingBank)
    d, T, clamp = 10, 32, (-2, 2)
    env = make_square_env(d=d, d0=2, noise_sd=0.1, seed=1)
    state = run_calibration(env.draw, T=T, d=d, Y=2.0, delta=0.05,
                            exponent_clamp=clamp)
    assert built == []
    # Of grids 2-5's 605, 625, 625 and 625 candidates, these are live;
    # grid 0 is fitted on no samples and grid 1 has all 500 rows frozen.
    assert rows == [1, 5, 15, 36]
    assert state.candidate_steps == sum(
        n * (2 ** j - 1) for j, n in zip(range(2, 6), rows))
    assert state.candidate_steps + state.frozen_steps == grid_cost(
        T, d, 2.0, clamp)


def test_grid_of_only_the_null_entry_predicts_zero(monkeypatch):
    # The clamp (10, 10) leaves no alpha exponent below 2**9 for d=2 and
    # Y=2: every grid is the null entry alone, and no bank is built.
    import saew.calibration

    def no_bank(*args):
        raise AssertionError("a grid without candidates builds no bank")

    monkeypatch.setattr(saew.calibration, "WrapperBank", no_bank)
    assert grid_cost(200, 2, 2.0, (10, 10)) == 0
    env = make_square_env(d=2, d0=1, noise_sd=0.1, seed=5)
    xs, ys = env.draw(200)
    state = calibration_init(d=2, Y=2.0, delta=0.1, exponent_clamp=(10, 10))
    for t in range(200):
        prediction, _ = calibration_step(state, xs[t], float(ys[t]))
        assert prediction == 0.0
    assert state.j == 7
    assert [(row.j, row.grid_size, row.best_candidate)
            for row in state.session_rows] == [(j, 1, "null")
                                               for j in range(7)]
    assert list(state.candidates) == [GridEntry(d0=0)]
    assert (state.candidate_steps, state.frozen_steps) == (0, 0)
    assert calibration_estimator(state)(xs[0]) == 0.0


def test_misspecified_gradient_bounds_raise_no_warning():
    # Clamping every exponent to -1 puts each candidate's B at 1/2, below
    # the square-loss gradients, so wrapper steps exceed B.
    env = make_square_env(d=2, d0=1, noise_sd=0.1, seed=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        filters = list(warnings.filters)
        state = run_calibration(env.draw, T=16, d=2, Y=2.0, delta=0.1,
                                exponent_clamp=(-1, -1))
        assert warnings.filters == filters
    assert all(e.B == 0.5 for e in state.candidates if not e.is_null)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_budget_guard_fails_fast_without_consuming_data():
    def poisoned_draw(n):
        raise AssertionError("draw must not be called when over budget")

    with pytest.raises(BudgetExceededError, match="budget"):
        run_calibration(poisoned_draw, T=2 ** 12, d=4, Y=2.0, delta=0.1,
                        budget=10)


def test_budget_error_reports_cost():
    with pytest.raises(BudgetExceededError, match=r"\d+ candidate-steps"):
        run_calibration(lambda n: (np.zeros((n, 2)), np.zeros(n)),
                        T=256, d=2, Y=1.0, budget=5, delta=0.1)

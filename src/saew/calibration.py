"""Parameter-free operation: doubling sessions over hyperparameter grids.

The calibration layer removes the need to know the wrapped optimizer's
problem constants.  Time is cut into doubling sessions ``j`` (steps
``2^j <= t < 2^(j+1)``).  For each session a grid of ``(d0, alpha, U, B)``
tuples — all powers of two spanning exponent ranges that widen with ``j``
— defines one wrapper run per tuple, plus a null predictor for ``d0 = 0``.
During session ``j``:

* each candidate predicts through its best estimator ``theta_tilde``
  after a wrapper run over the first ``2^j - 1`` samples, clipped into
  ``[-Y, Y]``;
* a fixed-learning-rate exponential-weights meta-aggregator (learning
  rate ``1/(8*Y**2)``, valid because the clipped square loss is
  exp-concave on ``[-Y, Y]``) combines the candidates by weighted mean.

Candidates train only at session boundaries: when session ``j`` closes,
every grid-``(j+1)`` wrapper is fitted once over the whole history, in
stream order, as one row of a wrapper bank stepped on the square-loss
gradient, and only its ``theta_tilde`` is kept.  A wrapper whose
confidence radius provably stays at least its ``U`` over the whole
history (``saew.engine.frozen_rows``) keeps ``theta_tilde = 0`` and is not
stepped at all.

The session estimator ``f_bar`` is the average of the meta predictors
used over the previous session, stored as time-averaged weights over the
candidate list so it can be evaluated at unseen inputs.

Grids grow polynomially in ``j``, so a compute-budget guard fails fast
when a run would be infeasible; the optional exponent clamp (a documented
configuration knob, not silent subsampling) keeps long horizons tractable.
"""

from __future__ import annotations

import dataclasses
import math
import re
import warnings
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from saew.engine import WrapperBank, frozen_rows
from saew.losses import square_grad
from saew.subroutine import OVER_B_WARNING
# Unused here; benchmarks/tracer.py wraps these names in this module.
from saew.engine import saew_estimators, saew_init, saew_step  # noqa: F401


class BudgetExceededError(RuntimeError):
    """Raised when a planned calibration run exceeds its compute budget."""


# ============================================================
# Hyperparameter grids
# ============================================================

@dataclasses.dataclass(frozen=True)
class GridEntry:
    """One hyperparameter tuple; ``d0 = 0`` is the null predictor and
    carries no other components."""

    d0: int
    alpha: float | None = None
    U: float | None = None
    B: float | None = None

    @property
    def is_null(self) -> bool:
        return self.d0 == 0

    def label(self) -> str:
        if self.is_null:
            return "null"
        return f"d0={self.d0},alpha={self.alpha:g},U={self.U:g},B={self.B:g}"


@dataclasses.dataclass(frozen=True, eq=False)
class Grid(Sequence[GridEntry]):
    """A hyperparameter grid as columns: row ``k`` is the tuple ``(d0[k],
    alpha[k], U[k], B[k])``, and ``grid[k]`` its :class:`GridEntry`.  A row
    with ``d0 = 0`` is the null predictor; its other columns are NaN."""

    d0: np.ndarray
    alpha: np.ndarray
    U: np.ndarray
    B: np.ndarray

    def __len__(self) -> int:
        return len(self.d0)

    def __getitem__(self, k: int) -> GridEntry:
        d0 = int(self.d0[k])
        if d0 == 0:
            return GridEntry(d0=0)
        return GridEntry(d0, float(self.alpha[k]), float(self.U[k]),
                         float(self.B[k]))


def _exponent_range(lo: int, hi: int,
                    clamp: tuple[int, int] | None) -> range:
    if clamp is not None:
        lo, hi = max(lo, clamp[0]), min(hi, clamp[1])
    return range(lo, hi + 1)


def _grid_ranges(j: int, d: int, Y: float,
                 exponent_clamp: tuple[int, int] | None
                 ) -> Iterator[tuple[int, int, range, range]]:
    """Grid ``j``'s non-null entries as exponent ranges, in grid order:
    ``(d0, B exponent, alpha exponents, U exponents)`` per ``(d0, B)``.

    Raises:
        ValueError: if ``d < 1``, ``Y`` is not finite and > 0, ``j < 0``,
            or a malformed clamp.
    """
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not 0.0 < Y < math.inf:
        raise ValueError(f"Y must be finite and > 0, got {Y}")
    if exponent_clamp is not None and exponent_clamp[0] > exponent_clamp[1]:
        raise ValueError(f"bad exponent clamp: {exponent_clamp}")
    ub_exponents = _exponent_range(
        -2 * j, 2 * j + math.ceil(2 * math.log2(Y)), exponent_clamp)
    for d0 in [2 ** k for k in range(0, math.ceil(math.log2(d)) + 1)]:
        for kb in ub_exponents:
            alpha_lo = -2 * j + math.ceil(math.log2(2.0 ** kb * d0 / Y ** 2))
            alpha_hi = j + math.ceil(math.log2(d0))
            yield (d0, kb, _exponent_range(alpha_lo, alpha_hi,
                                           exponent_clamp), ub_exponents)


def build_grid(j: int, d: int, Y: float,
               exponent_clamp: tuple[int, int] | None = None
               ) -> Grid:
    """Hyperparameter grid for doubling session ``j``, null entry first.

    Components are exact powers of two spanning:

    * ``d0`` in ``{0} | {2**k : k = 0..ceil(log2 d)}``;
    * ``U`` and ``B`` over exponents ``-2j .. 2j + ceil(2*log2 Y)``;
    * ``alpha`` (per ``(d0, B)`` pair) over exponents
      ``-2j + ceil(log2(B*d0/Y**2)) .. j + ceil(log2 d0)``.

    ``exponent_clamp = (lo, hi)`` intersects the ``U``/``B``/``alpha``
    exponent ranges with ``[lo, hi]``; it is the documented way to keep
    long-horizon grids affordable (the tuples remain a subset of the
    unclamped grid — nothing is resampled).

    Raises:
        ValueError: if ``d < 1``, ``Y`` is not finite and > 0, ``j < 0``,
            or a malformed clamp.
    """
    d0s: list[int] = [0]
    kas: list[int] = []
    kus: list[int] = []
    kbs: list[int] = []
    for d0, kb, alpha_exponents, ub_exponents in _grid_ranges(
            j, d, Y, exponent_clamp):
        n = len(alpha_exponents) * len(ub_exponents)
        d0s += [d0] * n
        kbs += [kb] * n
        for ka in alpha_exponents:
            kas += [ka] * len(ub_exponents)
            kus += ub_exponents

    def powers(exponents: list[int]) -> np.ndarray:
        return np.concatenate(([np.nan],
                               np.ldexp(1.0, np.array(exponents, int))))

    return Grid(np.array(d0s), powers(kas), powers(kus), powers(kbs))


def grid_cost(T: int, d: int, Y: float,
              exponent_clamp: tuple[int, int] | None = None) -> int:
    """Candidate-steps (wrapper steps over history samples) of a length-``T``
    calibration run.

    A session closes at every ``t = 2**k <= T + 1`` and fits each non-null
    grid-``k`` candidate over the ``2**k - 1`` samples seen so far.  This
    is the quantity compared against the compute budget; it counts the
    grids from their exponent ranges without building them.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    cost = 0
    k = 1
    while 2 ** k <= T + 1:
        fitted = sum(len(alphas) * len(us) for _, _, alphas, us
                     in _grid_ranges(k, d, Y, exponent_clamp))
        cost += fitted * (2 ** k - 1)
        k += 1
    return cost


# ============================================================
# Calibration state
# ============================================================

@dataclasses.dataclass
class SessionPredictor:
    """Average meta predictor over one completed session.

    Evaluates ``sum_p mean_weight[p] * clip(x @ theta[p], Y)`` — the
    time-average of the per-step weighted-mean predictors, stored as
    averaged weights against the session's frozen candidate matrix.
    """

    j: int
    Y: float
    mean_weights: np.ndarray
    theta_matrix: np.ndarray  # one frozen candidate estimator per row

    def __call__(self, x: np.ndarray) -> float:
        preds = np.clip(self.theta_matrix @ np.asarray(x, float),
                        -self.Y, self.Y)
        return float(self.mean_weights @ preds)


def zero_predictor(x: np.ndarray) -> float:
    """The null estimator available before any session completes."""
    return 0.0


@dataclasses.dataclass
class SessionSummary:
    """Per-session diagnostics row (CSV schema of the calibrate command)."""

    j: int
    grid_size: int
    best_candidate: str
    meta_risk: float
    best_risk: float


@dataclasses.dataclass
class CalibrationState:
    """Mutable state of the doubling-session calibration loop.

    ``candidates``/``theta_matrix``/``log_weights`` describe the
    predicting set for the current session ``j`` (estimators fitted on the
    samples before ``2**j``).  The session has seen ``t - 2**j`` samples.
    Of the candidate-steps the fits so far account for (non-null rows times
    history samples, ``grid_cost`` of the samples before the last close),
    ``candidate_steps`` were run and ``frozen_steps`` skipped, their rows
    proven to stay at the origin.
    """

    d: int
    Y: float
    delta: float
    exponent_clamp: tuple[int, int] | None
    j: int
    t: int
    candidates: Grid
    theta_matrix: np.ndarray
    log_weights: np.ndarray
    weight_snapshot_sum: np.ndarray
    meta_loss_sum: float
    candidate_loss_sum: np.ndarray
    past_estimators: list[SessionPredictor]
    history_x: list[np.ndarray]
    history_y: list[float]
    n_out_of_range: int
    session_rows: list[SessionSummary]
    candidate_steps: int = 0
    frozen_steps: int = 0

    @property
    def eta(self) -> float:
        """Meta learning rate for the exp-concave clipped square loss."""
        return 1.0 / (8.0 * self.Y ** 2)


def session_delta(delta: float, j: int) -> float:
    """Confidence budget for session ``j``: ``delta / (2 * (j+1)**2)``."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    return delta / (2.0 * (j + 1) ** 2)


def _fit_candidates(grid: Grid, d: int, delta_j: float,
                    history_x: Sequence[np.ndarray],
                    history_y: Sequence[float]) -> tuple[np.ndarray, int]:
    """One row per grid row: ``theta_tilde`` of a fresh wrapper run over
    the history on the square loss, in stream order (zeros for the null
    entry); and the number of rows stepped.

    Rows that :func:`frozen_rows` proves keep ``theta_tilde = 0`` over the
    history are not stepped: their rows are zeros, the bits their runs
    would leave.  The other non-null wrappers are the rows of one
    :class:`WrapperBank`, each with the bits of its own ``saew_step`` run;
    unlike the subroutine, the fit issues no warning for gradients above
    ``B``.  Nominal sparsity above the ambient dimension is run at ``d0 =
    d`` (the truncation keeps every coordinate either way).
    """
    theta_matrix = np.zeros((len(grid), d))
    d0 = np.minimum(grid.d0, d)
    rows = np.flatnonzero(d0)
    columns = d0[rows], grid.alpha[rows], grid.U[rows], grid.B[rows]
    live = ~frozen_rows(*columns, delta_j, d, len(history_x))
    rows = rows[live]
    if not rows.size:
        return theta_matrix, 0
    bank = WrapperBank(*(column[live] for column in columns), delta_j, d,
                       [f"candidate {r}" for r in rows.tolist()])
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", re.escape(OVER_B_WARNING),
                                RuntimeWarning)
        for x, y in zip(history_x, history_y):
            bank.step(square_grad(bank.prediction, x, y))
    theta_matrix[rows] = bank.theta_tilde
    return theta_matrix, rows.size


def _fitted_grid(state: CalibrationState, j: int, history_x: list[np.ndarray],
                 history_y: list[float]) -> tuple[Grid, np.ndarray, int]:
    """Session ``j``'s grid, its estimators fitted on the history and the
    number of rows stepped (see :func:`_fit_candidates`); ``state`` is only
    read."""
    grid = build_grid(j, state.d, state.Y, state.exponent_clamp)
    return (grid, *_fit_candidates(grid, state.d,
                                   session_delta(state.delta, j),
                                   history_x, history_y))


def _open_session(state: CalibrationState,
                  fitted: tuple[Grid, np.ndarray, int]) -> None:
    """Start session ``state.j`` on its grid fitted over the history (see
    :func:`_fitted_grid`) with a fresh meta-aggregator."""
    state.candidates, state.theta_matrix, stepped = fitted
    samples = len(state.history_y)
    state.candidate_steps += stepped * samples
    state.frozen_steps += (np.count_nonzero(state.candidates.d0) - stepped
                           ) * samples
    m = len(state.candidates)
    state.log_weights = np.zeros(m)
    state.weight_snapshot_sum = np.zeros(m)
    state.meta_loss_sum = 0.0
    state.candidate_loss_sum = np.zeros(m)


def calibration_init(d: int, Y: float, delta: float,
                     exponent_clamp: tuple[int, int] | None = None
                     ) -> CalibrationState:
    """Fresh calibration loop at ``t = 1`` (session 0).

    Session 0's candidates predict through zero estimators (nothing was
    observed before ``t = 1``).

    Raises:
        ValueError: an input :func:`build_grid` or :func:`session_delta`
            rejects.
    """
    # _open_session sets the session's fields.
    state = CalibrationState(
        d=d, Y=Y, delta=delta, exponent_clamp=exponent_clamp, j=0, t=1,
        candidates=[], theta_matrix=np.zeros((0, 0)),
        log_weights=np.zeros(0), weight_snapshot_sum=np.zeros(0),
        meta_loss_sum=0.0, candidate_loss_sum=np.zeros(0),
        past_estimators=[], history_x=[], history_y=[], n_out_of_range=0,
        session_rows=[])
    _open_session(state, _fitted_grid(state, 0, [], []))
    return state


def _close_session(state: CalibrationState,
                   fitted: tuple[Grid, np.ndarray, int]) -> None:
    """Roll over at ``t = 2**(j+1)``: record session ``j`` and open
    session ``j + 1`` on its ``fitted`` grid."""
    steps = state.t - 2 ** state.j
    # Average meta predictor over the finished session.
    state.past_estimators.append(SessionPredictor(
        j=state.j, Y=state.Y,
        mean_weights=state.weight_snapshot_sum / steps,
        theta_matrix=state.theta_matrix))
    # Session diagnostics.
    best = int(np.argmin(state.candidate_loss_sum))
    state.session_rows.append(SessionSummary(
        j=state.j,
        grid_size=len(state.candidates),
        best_candidate=state.candidates[best].label(),
        meta_risk=state.meta_loss_sum / steps,
        best_risk=float(state.candidate_loss_sum[best]) / steps,
    ))
    state.j += 1
    _open_session(state, fitted)


def calibration_step(state: CalibrationState, x: np.ndarray, y: float
                     ) -> tuple[float, CalibrationState]:
    """One sample: meta-predict, observe ``y``, update weights.

    The step that closes a session also fits the next session's
    candidates on the history.

    Returns the meta prediction (a convex combination of clipped
    candidate predictions, hence itself in ``[-Y, Y]``) and the state.
    Responses outside ``[-Y, Y]`` are accepted and counted in
    ``n_out_of_range``.

    Raises:
        ValueError: non-finite input, ``x`` of the wrong shape, a squared
            loss that overflows, or a candidate fit that fails at a
            session's close (state unchanged).
    """
    x = np.asarray(x, float)
    if x.shape != (state.d,):
        raise ValueError(f"x has shape {x.shape}, expected ({state.d},)")
    y = float(y)
    if not (np.all(np.isfinite(x)) and math.isfinite(y)):
        raise ValueError("inputs must be finite")

    # Meta prediction from clipped frozen-candidate predictions (every
    # step and session start leaves the max log-weight at 0).
    preds = np.clip(state.theta_matrix @ x, -state.Y, state.Y)
    weights = np.exp(state.log_weights)
    weights /= weights.sum()
    prediction = float(weights @ preds)
    try:
        meta_loss = (prediction - y) ** 2
        with np.errstate(over="raise"):
            losses = (preds - y) ** 2
    except (OverflowError, FloatingPointError):
        raise ValueError(f"step {state.t}: the squared loss of y={y!r} "
                         "overflows") from None
    # The next session is fitted before any field changes, so a fit that
    # fails leaves the state as it was.
    closes = state.t + 1 == 2 ** (state.j + 1)
    if closes:
        fitted = _fitted_grid(state, state.j + 1, [*state.history_x, x],
                              [*state.history_y, y])

    state.weight_snapshot_sum += weights
    if abs(y) > state.Y:
        state.n_out_of_range += 1
    state.meta_loss_sum += meta_loss
    state.candidate_loss_sum += losses
    state.log_weights -= state.eta * losses
    state.log_weights -= np.max(state.log_weights)

    state.history_x.append(x.copy())
    state.history_y.append(y)

    state.t += 1
    if closes:
        _close_session(state, fitted)
    return prediction, state


def calibration_estimator(state: CalibrationState
                          ) -> Callable[[np.ndarray], float]:
    """Average meta predictor of the previous session.

    During session 0 (nothing completed yet) this is the zero predictor.
    """
    if not state.past_estimators:
        return zero_predictor
    return state.past_estimators[-1]


# ============================================================
# Run driver
# ============================================================

def run_calibration(draw: Callable[[int], tuple[np.ndarray, np.ndarray]],
                    T: int, d: int, Y: float, delta: float,
                    budget: int = 50_000_000,
                    exponent_clamp: tuple[int, int] | None = None,
                    ) -> CalibrationState:
    """Run the calibration loop on ``T`` samples from ``draw``.

    Fails fast (before consuming any data) if the projected wrapper work
    ``grid_cost(T, d, Y, exponent_clamp)`` exceeds ``budget``.

    Raises:
        BudgetExceededError: projected cost above the budget.
    """
    cost = grid_cost(T, d, Y, exponent_clamp)
    if cost > budget:
        raise BudgetExceededError(
            f"projected calibration cost {cost} candidate-steps exceeds "
            f"budget {budget}; shrink the horizon, clamp the exponent "
            f"ranges, or raise cal_budget")
    xs, ys = draw(T)
    state = calibration_init(d, Y, delta, exponent_clamp)
    for t in range(T):
        calibration_step(state, xs[t], float(ys[t]))
    return state

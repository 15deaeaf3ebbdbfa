"""Acceleration wrapper: subroutine sessions in shrinking l1-balls.

The engine runs a regret-certified ball optimizer (the corner-weights
subroutine by default) in sessions.  Session ``i`` works inside the l1-ball
of radius ``U * 2**(-i/2)`` centered at the hard-truncated running average
of the previous session's predictions.  Each step refreshes a
high-probability error budget ``err_t`` and a confidence radius ``eps_t``
around the truncated average; once ``eps_t`` drops to the next session's
radius, the session closes and a fresh subroutine starts in the smaller
ball.  The best estimator ``theta_tilde`` is the session average frozen at
the smallest confidence radius ever observed.

State snapshots serialize to a versioned JSON document (see
:func:`saew_snapshot`); the schema is documented in the README.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Callable, Sequence

import numpy as np

from saew.bounds import (
    _log_window_term,
    a_prime,
    b_prime,
    delta_i,
    err_bound,
    radius_bound,
)
from saew.core import DenseVector, L1Ball, ProblemParams
from saew.subroutine import (
    EGBank,
    EGState,
    RegretCertificate,
    eg_certificate,
    eg_init,
)

SNAPSHOT_VERSION = "saew-state-v3"

GradientOracle = Callable[[DenseVector], DenseVector]

_D0_ZERO_WARNING = ("d0=0 is degenerate: the confidence radius is identically"
                    " zero, every step closes a session, and the predictor"
                    " stays 0")


# ============================================================
# Hard truncation
# ============================================================

def truncate_top(v: DenseVector, d0: int) -> DenseVector:
    """Zero all but the ``d0`` largest-magnitude coordinates of ``v``.

    The result is the l2-closest vector to ``v`` among all vectors with at
    most ``d0`` nonzeros.  Magnitude ties keep the lowest index.

    Raises:
        ValueError: if ``d0 < 0`` or ``d0 > len(v)``.
    """
    v = np.asarray(v, float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    d = v.shape[0]
    if not (0 <= d0 <= d):
        raise ValueError(f"d0 must satisfy 0 <= d0 <= {d}, got {d0}")
    if d0 == d:
        return v.copy()
    out = np.zeros(d)
    if d0 == 0:
        return out
    # Stable sort on -|v| keeps the lowest index among equal magnitudes.
    keep = np.argsort(-np.abs(v), kind="stable")[:d0]
    out[keep] = v[keep]
    return out


# ============================================================
# State
# ============================================================

@dataclasses.dataclass
class SaewState:
    """Mutable state of the acceleration wrapper.

    The session ball is ``optimizer.ball`` (its dimension is the ambient
    dimension ``d``) and the session's sum of squared gradient sup-norms
    is ``optimizer.v2``.

    Attributes:
        params: problem constants (sparsity, strong convexity, ball radius,
            gradient bound, confidence level).
        certificate: the subroutine's regret certificate ``(a, b)``.
        t: index of the NEXT step to execute (1-based; ``t - 1`` steps done).
        optimizer: active subroutine instance for the current session, in
            the ball of radius exactly ``U * 2**(-i/2)``.
        err_t: latest session error budget.
        a_prime_t / b_prime_t: the inflated certificate constants behind
            ``err_t`` (diagnostics for traces).
        eps_t: latest confidence radius (``U`` before any step).
        eps_min: smallest confidence radius ever observed (includes the
            pre-loop value ``U``).
        eps_argmin: step index attaining ``eps_min`` (0 = pre-loop).
        theta_bar_sum: sum of the current session's predictions; the
            session average is this sum over the window length.
        theta_tilde: session average frozen at the eps-argmin step.
        session_starts: history of session start times ``t_i``; its
            length less one is the session index ``session`` and its last
            entry the session start ``session_start``.
    """

    params: ProblemParams
    certificate: RegretCertificate
    t: int
    optimizer: EGState
    err_t: float
    a_prime_t: float
    b_prime_t: float
    eps_t: float
    eps_min: float
    eps_argmin: int
    theta_bar_sum: np.ndarray
    theta_tilde: np.ndarray
    session_starts: list[int]

    @property
    def session(self) -> int:
        return len(self.session_starts) - 1

    @property
    def session_start(self) -> int:
        return self.session_starts[-1]


def _session_radius(U: float, i: int) -> float:
    """Ball radius of session ``i``: ``U * 2**(-i/2)``."""
    return U * 2.0 ** (-i / 2.0)


def _next_session(U: float, i: int, eps: float) -> int:
    """The session that closing session ``i`` at radius ``eps`` opens: the
    next, then one more while ``0 < eps <=`` the next one's radius (so
    ``eps = 0``, from ``d0 = 0`` or an underflow, closes just one)."""
    i += 1
    while 0.0 < eps <= _session_radius(U, i + 1):
        i += 1
    return i


def saew_init(params: ProblemParams, d: int,
              certificate: RegretCertificate | None = None) -> SaewState:
    """Fresh wrapper state: session 0 in the ball of radius ``U`` around 0.

    The pre-loop confidence radius is ``U`` and the best estimator starts
    at the zero vector.  ``certificate`` defaults to the corner-weights
    subroutine's certificate for dimension ``d``; injecting another value
    is for controlled experiments only.

    Raises:
        ValueError: if ``d < 1`` or ``params.d0 > d``.

    Warns:
        UserWarning: if ``params.d0 == 0`` (degenerate: the confidence
            radius is identically zero and the predictor stays 0).
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if params.d0 > d:
        raise ValueError(f"d0 must be <= d, got d0={params.d0}, d={d}")
    if params.d0 == 0:
        warnings.warn(_D0_ZERO_WARNING, UserWarning)
    if certificate is None:
        certificate = eg_certificate(d)
    return SaewState(
        params=params,
        certificate=certificate,
        t=1,
        optimizer=eg_init(L1Ball(np.zeros(d), params.U), params.B),
        err_t=0.0,
        a_prime_t=0.0,
        b_prime_t=0.0,
        eps_t=params.U,
        eps_min=params.U,
        eps_argmin=0,
        theta_bar_sum=np.zeros(d),
        theta_tilde=np.zeros(d),
        session_starts=[1],
    )


def saew_step(state: SaewState, gradient_oracle: GradientOracle) -> SaewState:
    """Execute one step: predict, observe a gradient, refresh the radius.

    The oracle is queried once at the subroutine's prediction and must
    return the loss (sub)gradient there.  After the subroutine update the
    session error budget and confidence radius are recomputed at the
    current window length, the session average and best estimator are
    updated.  Once the radius is at most the next session's ball radius
    the session closes, cascading through zero-length sessions while a
    positive radius stays at or below the next one.  The state is
    modified in place and returned.

    Raises:
        ValueError: non-finite or wrongly shaped gradient, or one whose
            squared sup-norm overflows the session's ``v2`` (state
            unchanged).
    """
    p = state.params
    t_cur = state.t
    window = t_cur - state.session_start + 1
    theta_hat = state.optimizer.predict()
    state.optimizer.update(gradient_oracle(theta_hat))

    # Error budget and confidence radius at the current window length.
    delta_session = delta_i(p.delta, state.session + 1)
    state.a_prime_t = a_prime(state.certificate.a, window, delta_session)
    state.b_prime_t = b_prime(state.certificate.b, window, delta_session)
    state.err_t = err_bound(state.optimizer.v2, state.a_prime_t,
                            state.b_prime_t, p.B)
    state.eps_t = radius_bound(p.d0, p.U, state.session, p.alpha, window,
                               state.err_t)

    state.theta_bar_sum += theta_hat
    theta_bar = state.theta_bar_sum / window

    # Best estimator: average at the global eps-argmin (earliest tie kept).
    if state.eps_t < state.eps_min:
        state.eps_min = state.eps_t
        state.eps_argmin = t_cur
        state.theta_tilde = theta_bar

    state.t = t_cur + 1

    # Close once eps_t is at most the next session's radius; the sessions
    # of a cascade start at t and share the truncated average as center.
    if state.eps_t <= _session_radius(p.U, state.session + 1):
        i = _next_session(p.U, state.session, state.eps_t)
        state.session_starts += [state.t] * (i - state.session)
        ball = L1Ball(truncate_top(theta_bar, p.d0), _session_radius(p.U, i))
        state.optimizer = eg_init(ball, p.B)
        state.theta_bar_sum = np.zeros(ball.dimension)
    return state


def saew_estimators(state: SaewState) -> tuple[DenseVector, DenseVector]:
    """Return the next prediction point and the frozen best estimator.

    Before any step both are zero vectors (the initial ball is centered at
    the origin and the best estimator starts there).  The prediction is
    the subroutine's read-only array.
    """
    return state.optimizer.predict(), state.theta_tilde.copy()


# ============================================================
# Wrappers as rows
# ============================================================

def _eps_factor(d0: int, U: float, i: int) -> float:
    """``radius_bound``'s ``2 * d0 * U * 2**(-i/2)``, multiplied in its
    order: ``eps_t = 2 * sqrt(factor * err_t / (alpha * window))``."""
    return 2.0 * d0 * U * 2.0 ** (-i / 2.0)


def _radius(certificate: RegretCertificate, term, neg_log_delta, v2, B,
            eps_factor, alpha, window) -> tuple:
    """``(a', b', err, eps)`` as :func:`saew_step` gets them from the bound
    evaluators, over arrays that broadcast; ``term`` is the window term and
    ``neg_log_delta`` is ``-log(delta_i)`` (``x - y`` is ``x + (-y)``)."""
    a_p = certificate.a + np.sqrt(2.0 * (term + neg_log_delta))
    b_p = (certificate.b + 0.5) + term + neg_log_delta
    err = a_p * np.sqrt(v2) + b_p * B
    return a_p, b_p, err, 2.0 * np.sqrt(eps_factor * err / (alpha * window))


Column = Sequence[float] | np.ndarray


class WrapperBank:
    """Acceleration wrappers, one per row of arrays, fed one gradient row
    per wrapper at each step.

    Row ``r`` starts as ``saew_init(ProblemParams(d0[r], alpha[r], U[r],
    B[r], delta), d)``; the bank keeps the constants as the columns
    ``d0``, ``alpha`` and ``U`` (``eg.B`` holds ``B``) and the scalar
    ``delta``.  Before a step, ``prediction[r]`` is the point the
    wrapper's oracle is queried at; the caller hands :meth:`step` the
    gradient rows there (the step binds a new ``prediction``; ``eg``, the
    subroutines' :class:`EGBank`, counts the steps).  After it,
    ``theta_tilde``, ``eps``, ``session``, ``err``, ``a_prime`` and
    ``b_prime`` hold each row's ``theta_tilde``, ``eps_t``, ``session``,
    ``err_t``, ``a_prime_t`` and ``b_prime_t``.  Every expression repeats
    the one :func:`saew_step`, ``EGState.update`` (through
    :class:`EGBank`) and the bound evaluators apply to a single wrapper,
    in the same order, so each row has its wrapper's bits.  ``a'`` and
    ``b'`` combine each row's session term ``-log(delta_i)`` with the
    window term of :func:`a_prime` and :func:`b_prime`, tabulated up to
    the steps taken.  Only a row that closes a session takes a per-row
    Python step.

    Warns:
        UserWarning: at construction, once for each row with ``d0 == 0``,
            as :func:`saew_init` does.
    """

    def __init__(self, d0: Column, alpha: Column, U: Column, B: Column,
                 delta: float, d: int, labels: Sequence[str]):
        """Fresh wrappers, at least one, in dimension ``d``: one per entry
        of the columns ``d0``, ``alpha``, ``U``, ``B`` and ``labels``, which
        name the rows in error messages.

        Raises:
            ValueError: ``d < 1``, no rows, columns of unequal lengths, or
                a row against :class:`ProblemParams`'s rules or with
                ``d0 > d``; the message names the first such row's label.
        """
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        d0 = np.asarray(d0)
        # Copies: the bank keeps alpha and U, and the caller keeps its own.
        columns = {"d0": d0, "alpha": np.array(alpha, float),
                   "U": np.array(U, float), "B": np.array(B, float)}
        n = len(labels)
        if any(c.shape != (n,) for c in columns.values()):
            lengths = [n, *(c.size for c in columns.values())]
            r = min(lengths)
            raise ValueError(
                f"{labels[r] if r < n else f'row {r}'}: the columns "
                f"labels, {', '.join(columns)} must have one length, got "
                f"{', '.join(map(str, lengths))}")
        if n == 0:
            raise ValueError("a wrapper bank needs at least one row")
        # ProblemParams's rules, each a mask over the rows.
        rules = [(~((d0 >= 0) & (d0 == np.floor(d0))), "d0",
                  "be a nonnegative integer"),
                 (d0 > d, "d0", f"be <= d={d}")]
        rules += [(~(np.isfinite(columns[name]) & (columns[name] > 0.0)),
                   name, "be finite and > 0") for name in ("alpha", "U", "B")]
        rules.append((np.full(n, not 0.0 < delta < 1.0), "delta",
                      "lie in (0, 1)"))
        broken = np.logical_or.reduce([mask for mask, _, _ in rules])
        if np.count_nonzero(broken):
            r = int(np.flatnonzero(broken)[0])
            _, name, rule = next(rule for rule in rules if rule[0][r])
            value = delta if name == "delta" else columns[name][r].item()
            raise ValueError(f"{labels[r]}: {name} must {rule}, "
                             f"got {value!r}")
        for _ in range(np.count_nonzero(d0 == 0)):
            warnings.warn(_D0_ZERO_WARNING, UserWarning)
        self.d0 = d0.astype(int)
        self.alpha, self.U = columns["alpha"], columns["U"]
        self.delta = float(delta)
        self.certificate = eg_certificate(d)
        self.eg = EGBank(np.zeros((n, d)), self.U, columns["B"], labels)
        self.session = np.zeros(n, dtype=int)
        # Steps taken in the current session, the window length.
        self.window = np.zeros(n, dtype=int)
        self.next_radius = _session_radius(self.U, 1)
        self.eps_factor = _eps_factor(self.d0, self.U, 0)
        self.eps_min = self.U.copy()
        self.eps = self.U.copy()
        self.err = np.zeros(n)
        self.a_prime = np.zeros(n)
        self.b_prime = np.zeros(n)
        self.theta_bar_sum = np.zeros((n, d))
        self.theta_tilde = np.zeros((n, d))
        # -log(delta_i) of each row's session i, and the window term of
        # window w at index w (no window exceeds the steps taken).
        self.neg_log_delta = np.full(n, -math.log(delta_i(self.delta, 1)))
        self.window_term = np.zeros(1)

    @property
    def prediction(self) -> np.ndarray:
        """The ``(N, d)`` points of the next step's oracle queries (the
        subroutines' predictions; each :meth:`step` binds a new array)."""
        return self.eg.prediction

    def step(self, grad: np.ndarray) -> None:
        """Step ``eg.steps + 1`` of every wrapper, with ``grad[r]`` the
        gradient at ``prediction[r]``.

        Raises:
            ValueError: a gradient stack :meth:`EGBank.update` rejects (no
                row changed).
        """
        eg = self.eg
        theta_hat = eg.prediction
        eg.update(grad)
        self.theta_bar_sum += theta_hat
        self.window += 1
        window = self.window
        steps = eg.steps
        if steps == len(self.window_term):
            # Doubled, so a run of T steps copies it O(log T) times.
            self.window_term = np.append(
                self.window_term,
                [_log_window_term(w) for w in range(steps, 2 * steps)])
        self.a_prime, self.b_prime, self.err, self.eps = _radius(
            self.certificate, self.window_term[window], self.neg_log_delta,
            eg.v2, eg.B, self.eps_factor, self.alpha, window)

        better = self.eps < self.eps_min
        if np.count_nonzero(better):
            np.divide(self.theta_bar_sum, window[:, None],
                      out=self.theta_tilde, where=better[:, None])
            np.minimum(self.eps_min, self.eps, out=self.eps_min)
        closing = self.eps <= self.next_radius
        if np.count_nonzero(closing):
            for r in np.flatnonzero(closing).tolist():
                self._close(r, float(self.eps[r]))

    def _close(self, r: int, eps: float) -> None:
        """Close row ``r``'s session, cascade included."""
        d0, U = int(self.d0[r]), float(self.U[r])
        center = truncate_top(self.theta_bar_sum[r] / int(self.window[r]),
                              d0)
        i = _next_session(U, int(self.session[r]), eps)
        self.session[r] = i
        self.neg_log_delta[r] = -math.log(delta_i(self.delta, i + 1))
        self.window[r] = 0
        self.next_radius[r] = _session_radius(U, i + 1)
        self.eps_factor[r] = _eps_factor(d0, U, i)
        self.eg.reset(r, center, _session_radius(U, i))
        self.theta_bar_sum[r] = 0.0


def radius_floor(d0: np.ndarray, alpha: np.ndarray, U: np.ndarray,
                 B: np.ndarray, delta: float, d: int,
                 windows: np.ndarray) -> np.ndarray:
    """``(N, W)`` lower bounds on ``eps`` of a session-0 row of a
    :class:`WrapperBank` with these columns, one per window in ``windows``.

    The bound is the bank's own radius at ``v2 = 0``, where ``err = a' *
    sqrt(v2) + b' * B`` is exactly ``b' * B``.  Since ``a' * sqrt(v2) >=
    0`` and every later operation is monotone under rounding, the bank's
    ``eps`` never falls below it, whatever the gradients.
    """
    term = np.array([_log_window_term(w) for w in windows.tolist()])
    return _radius(eg_certificate(d), term, -math.log(delta_i(delta, 1)),
                   0.0, B[:, None], _eps_factor(d0, U, 0)[:, None],
                   alpha[:, None], windows)[3]


def frozen_rows(d0: np.ndarray, alpha: np.ndarray, U: np.ndarray,
                B: np.ndarray, delta: float, d: int,
                steps: int) -> np.ndarray:
    """Mask of the rows of a fresh ``WrapperBank(d0, alpha, U, B, delta,
    d, ...)`` whose ``theta_tilde`` provably stays 0 over ``steps`` steps.

    A row is frozen when :func:`radius_floor` is at least its ``U`` at
    every window up to ``steps``: its ``eps`` then never drops below
    ``eps_min = U`` and never reaches the next radius ``U * 2**(-1/2)``,
    so it stays in session 0 and never moves ``theta_tilde`` off the
    origin, on any gradients.  The floor at the last window decides: it
    drops by a relative step of at least about ``0.4 / w`` from window
    ``w`` to ``w + 1``, which the few-ulp rounding of its operations
    cannot undo for any history below 2**40 samples.  With no steps,
    every row is frozen.
    """
    if steps == 0:
        return np.ones(len(d0), dtype=bool)
    return radius_floor(d0, alpha, U, B, delta, d,
                        np.array([steps]))[:, 0] >= U


# ============================================================
# Snapshot / restore
# ============================================================

_FLOATS = ("err_t", "a_prime_t", "b_prime_t", "eps_t")


def saew_snapshot(state: SaewState) -> dict:
    """Serialize the state to a JSON-ready versioned document, leaving out
    the facts :func:`saew_restore` derives from the others."""
    opt = state.optimizer
    return {
        "version": SNAPSHOT_VERSION,
        "params": dataclasses.asdict(state.params),
        "dimension": opt.ball.dimension,
        "certificate": dataclasses.asdict(state.certificate),
        "t": state.t,
        **{name: getattr(state, name) for name in _FLOATS},
        "eps_min": state.eps_min,
        "eps_argmin": state.eps_argmin,
        "theta_bar_sum": state.theta_bar_sum.tolist(),
        "theta_tilde": state.theta_tilde.tolist(),
        "session_starts": list(state.session_starts),
        "optimizer": {
            "center": opt.ball.center.tolist(),
            "grad_sum": opt.grad_sum.tolist(),
            "v2": opt.v2,
            "b_hat": opt.b_hat,
        },
    }


def _read(doc: dict, field: str, convert: Callable = float, rule: str = "",
          valid: Callable = lambda value: True):
    """Snapshot ``field`` (a dotted path) passed through ``convert``; a
    missing or unconvertible value, or one ``valid`` rejects, is a
    ``ValueError`` naming the field (and ``rule``, what it must satisfy)."""
    value = doc
    try:
        for key in field.split("."):
            value = value[key]
        value = convert(value)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"snapshot {field} is missing or malformed "
                         f"({exc})") from None
    if not valid(value):
        raise ValueError(f"snapshot {field} must {rule}, got {value!r}")
    return value


def saew_restore(doc: dict) -> SaewState:
    """Rebuild a state from a snapshot document.

    The facts :func:`saew_snapshot` leaves out are derived again; only
    the stored fields are checked.

    Raises:
        ValueError: unknown snapshot version, or a missing, malformed or
            out-of-range field (the message names it).
    """
    _read(doc, "version", str, f"be {SNAPSHOT_VERSION!r}",
          lambda v: v == SNAPSHOT_VERSION)
    params = _read(doc, "params", lambda v: ProblemParams(**v))
    d = _read(doc, "dimension", int, "be >= 1", lambda v: v >= 1)
    t = _read(doc, "t", int, "be >= 1", lambda v: v >= 1)
    session_starts = _read(
        doc, "session_starts", lambda v: [int(s) for s in v],
        f"start at 1, never decrease and end at or before t={t}",
        lambda s: (s and s[0] == 1 and s[-1] <= t
                   and all(a <= b for a, b in zip(s, s[1:]))))
    vector = dict(convert=lambda v: np.array(v, float),
                  rule=f"hold {d} finite numbers",
                  valid=lambda v: v.shape == (d,) and np.isfinite(v).all())
    nonnegative = dict(rule="be finite and >= 0",
                       valid=lambda v: 0.0 <= v < math.inf)
    b_hat = _read(doc, "optimizer.b_hat", **nonnegative)
    optimizer = EGState(
        ball=L1Ball(_read(doc, "optimizer.center", **vector),
                    _session_radius(params.U, len(session_starts) - 1)),
        B=params.B,
        grad_sum=_read(doc, "optimizer.grad_sum", **vector),
        # The sum of squared sup-norms includes the largest one squared.
        v2=_read(doc, "optimizer.v2", rule="be finite and >= b_hat**2",
                 valid=lambda v: b_hat * b_hat <= v < math.inf),
        b_hat=b_hat,
        t=t - session_starts[-1],
    )
    return SaewState(
        params=params,
        certificate=_read(doc, "certificate",
                          lambda v: RegretCertificate(**v)),
        t=t,
        optimizer=optimizer,
        **{name: _read(doc, name, **nonnegative) for name in _FLOATS},
        eps_min=_read(doc, "eps_min", rule=f"be in [0, U={params.U!r}]",
                      valid=lambda v: 0.0 <= v <= params.U),
        eps_argmin=_read(doc, "eps_argmin", int, f"be in [0, t-1={t - 1}]",
                         lambda v: 0 <= v < t),
        theta_bar_sum=_read(doc, "theta_bar_sum", **vector),
        theta_tilde=_read(doc, "theta_tilde", **vector),
        session_starts=session_starts,
    )

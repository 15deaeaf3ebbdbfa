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
import warnings
from typing import Callable

import numpy as np

from saew.bounds import a_prime, b_prime, delta_i, err_bound, radius_bound
from saew.core import DenseVector, L1Ball, ProblemParams
from saew.subroutine import EGState, RegretCertificate, eg_certificate, eg_init

SNAPSHOT_VERSION = "saew-state-v2"

GradientOracle = Callable[[DenseVector], DenseVector]


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
        session: current session index ``i >= 0``.
        session_start: global step index at which the session began (the
            history's last entry).
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
        session_starts: history of session start times ``t_i``.
    """

    params: ProblemParams
    certificate: RegretCertificate
    session: int
    session_start: int
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


def _session_radius(params: ProblemParams, i: int) -> float:
    """Ball radius of session ``i``: ``U * 2**(-i/2)``."""
    return params.U * 2.0 ** (-i / 2.0)


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
        warnings.warn(
            "d0=0 is degenerate: the confidence radius is identically zero,"
            " every step closes a session, and the predictor stays 0",
            UserWarning)
    if certificate is None:
        certificate = eg_certificate(d)
    return SaewState(
        params=params,
        certificate=certificate,
        session=0,
        session_start=1,
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


def _open_next_session(state: SaewState, center: DenseVector) -> None:
    """Close the current session and start the next one at ``t_i = state.t``
    in the ball around ``center``."""
    state.session += 1
    state.session_start = state.t
    state.session_starts.append(state.t)
    ball = L1Ball(center, _session_radius(state.params, state.session))
    state.optimizer = eg_init(ball, state.params.B)
    state.theta_bar_sum = np.zeros(ball.dimension)


def saew_step(state: SaewState, gradient_oracle: GradientOracle) -> SaewState:
    """Execute one step: predict, observe a gradient, refresh the radius.

    The oracle is queried once at the subroutine's prediction and must
    return the loss (sub)gradient there.  After the subroutine update the
    session error budget and confidence radius are recomputed at the
    current window length, the session average and best estimator are
    updated, and the session is closed (possibly several times, opening
    zero-length sessions) while the radius is at most the next session's
    ball radius.  The state is modified in place and returned.

    Raises:
        ValueError: non-finite or wrongly shaped gradient (state unchanged).
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

    # Close while eps_t is at most the next session's radius; zero-length
    # sessions in a cascade share the truncated average as their center.
    # With d0 = 0, eps_t is identically zero: close one session per step
    # (an unbounded cascade would never terminate).
    if state.eps_t <= _session_radius(p, state.session + 1):
        center = truncate_top(theta_bar, p.d0)
        _open_next_session(state, center)
        while (p.d0 > 0
               and state.eps_t <= _session_radius(p, state.session + 1)):
            _open_next_session(state, center)
    return state


def saew_estimators(state: SaewState) -> tuple[DenseVector, DenseVector]:
    """Return the next prediction point and the frozen best estimator.

    Before any step both are zero vectors (the initial ball is centered at
    the origin and the best estimator starts there).  The prediction is
    the subroutine's read-only array.
    """
    return state.optimizer.predict(), state.theta_tilde.copy()


# ============================================================
# Snapshot / restore
# ============================================================

def saew_snapshot(state: SaewState) -> dict:
    """Serialize the full state to a JSON-ready versioned document."""
    opt = state.optimizer
    return {
        "version": SNAPSHOT_VERSION,
        "params": {
            "d0": state.params.d0,
            "alpha": state.params.alpha,
            "U": state.params.U,
            "B": state.params.B,
            "delta": state.params.delta,
        },
        "dimension": opt.ball.dimension,
        "certificate": {"a": state.certificate.a, "b": state.certificate.b},
        "session": state.session,
        "session_start": state.session_start,
        "t": state.t,
        "err_t": state.err_t,
        "a_prime_t": state.a_prime_t,
        "b_prime_t": state.b_prime_t,
        "eps_t": state.eps_t,
        "eps_min": state.eps_min,
        "eps_argmin": state.eps_argmin,
        "theta_bar_sum": state.theta_bar_sum.tolist(),
        "theta_tilde": state.theta_tilde.tolist(),
        "session_starts": list(state.session_starts),
        "optimizer": {
            "center": opt.ball.center.tolist(),
            "radius": opt.ball.radius,
            "B": opt.B,
            "log_w": opt.log_w.tolist(),
            "grad_sum": opt.grad_sum.tolist(),
            "v2": opt.v2,
            "b_hat": opt.b_hat,
            "t": opt.t,
        },
    }


def _vector(values, name: str, length: int) -> np.ndarray:
    v = np.array(values, float)
    if v.shape != (length,):
        raise ValueError(f"snapshot {name} has shape {v.shape}, "
                         f"expected ({length},)")
    return v


def saew_restore(doc: dict) -> SaewState:
    """Rebuild a state from a snapshot document.

    Raises:
        ValueError: unknown snapshot version, or a malformed or
            inconsistent document (the message names the bad field).
    """
    version = doc.get("version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version: {version!r} "
                         f"(expected {SNAPSHOT_VERSION!r})")
    params = ProblemParams(**doc["params"])
    d = int(doc["dimension"])
    session = int(doc["session"])
    session_start, t = int(doc["session_start"]), int(doc["t"])
    session_starts = [int(s) for s in doc["session_starts"]]
    eps_min = float(doc["eps_min"])
    o = doc["optimizer"]
    log_w = _vector(o["log_w"], "optimizer.log_w", 2 * d)
    if not np.all(np.isfinite(log_w)):
        raise ValueError("snapshot optimizer.log_w must be finite")
    radius = float(o["radius"])
    if radius != _session_radius(params, session):
        raise ValueError(f"snapshot optimizer.radius {radius!r} is not "
                         f"U*2**(-session/2) for session {session}")
    if not (session_starts and session_starts[-1] == session_start <= t):
        raise ValueError(f"snapshot session_start {session_start} must equal "
                         f"session_starts[-1] and be <= t={t}")
    if eps_min > params.U:
        raise ValueError(f"snapshot eps_min {eps_min!r} exceeds U={params.U!r}")
    optimizer = EGState(
        ball=L1Ball(_vector(o["center"], "optimizer.center", d), radius),
        B=float(o["B"]),
        log_w=log_w,
        grad_sum=_vector(o["grad_sum"], "optimizer.grad_sum", d),
        v2=float(o["v2"]),
        b_hat=float(o["b_hat"]),
        t=int(o["t"]),
    )
    cert = doc["certificate"]
    return SaewState(
        params=params,
        certificate=RegretCertificate(float(cert["a"]), float(cert["b"])),
        session=session,
        session_start=session_start,
        t=t,
        optimizer=optimizer,
        err_t=float(doc["err_t"]),
        a_prime_t=float(doc["a_prime_t"]),
        b_prime_t=float(doc["b_prime_t"]),
        eps_t=float(doc["eps_t"]),
        eps_min=eps_min,
        eps_argmin=int(doc["eps_argmin"]),
        theta_bar_sum=_vector(doc["theta_bar_sum"], "theta_bar_sum", d),
        theta_tilde=_vector(doc["theta_tilde"], "theta_tilde", d),
        session_starts=session_starts,
    )

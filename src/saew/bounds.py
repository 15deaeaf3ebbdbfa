"""Closed-form confidence constants and risk-bound evaluators.

Pure functions shared by the acceleration engine, the tests, and the
harness's bound tracing: per-session failure probabilities, the inflated
regret constants ``a'``/``b'`` used at a given window length, the session
error and confidence-radius formulas, whole-horizon risk bounds (single
estimator and cumulative), session-length laws, and the martingale
inequalities behind them (a Poisson-type bound for nonnegative increments
and a regret-to-risk conversion for bounded-gradient sequences).

Everything here is deterministic; the engine calls these same functions at
run time so there is a single source of truth for each formula.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

from saew.core import ProblemParams


# ============================================================
# Small shared pieces
# ============================================================

def _check_delta(delta: float, name: str = "delta") -> float:
    delta = float(delta)
    if not (0.0 < delta < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {delta!r}")
    return delta


def _log_window_term(window: int) -> float:
    """Return ``log(1 + 0.5*log(window/2))`` with ``log(window/2)`` floored at 0.

    The flooring keeps the term real (and the bounds conservative) at
    ``window = 1``, where ``log(window/2)`` would be negative.
    """
    window = int(window)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return math.log(1.0 + 0.5 * max(0.0, math.log(window / 2.0)))


def _loglog_horizon_term(T: float) -> float:
    """Return ``log(1 + 3*log(T))`` for a horizon ``T >= 1`` (real-valued)."""
    T = float(T)
    if T < 1.0:
        raise ValueError(f"T must be >= 1, got {T}")
    return math.log(1.0 + 3.0 * math.log(T))


# ============================================================
# Domain types
# ============================================================

@dataclasses.dataclass(frozen=True)
class Theorem3Bound:
    """Square-loss risk bound value plus its inflated constants.

    ``up_to_constant`` flags that the guarantee holds up to an absolute
    multiplicative constant: the evaluator is meant for shape/scaling
    regression tests, not certified coverage.
    """

    value: float
    a_prime: float
    c_prime: float
    up_to_constant: bool = True

    def __float__(self) -> float:
        return self.value


# ============================================================
# Per-session confidence constants
# ============================================================

def delta_i(delta: float, i: int) -> float:
    """Failure probability for session ``i``: ``delta / (i+1)**2``.

    Raises:
        ValueError: if ``delta`` is outside (0, 1) or ``i < 1``.
    """
    delta = _check_delta(delta)
    if int(i) != i or i < 1:
        raise ValueError(f"session index must be an integer >= 1, got {i!r}")
    return delta / float((i + 1) ** 2)


def a_prime(a: float, window: int, delta_next: float) -> float:
    """Inflate a certificate's ``a`` to confidence level ``delta_next``.

    Returns ``a + sqrt(2) * sqrt(log(1 + log(window/2)/2) - log(delta_next))``
    with the window term floored as in :func:`_log_window_term`.

    Raises:
        ValueError: bad window/delta, or a negative value under the root.
    """
    delta_next = _check_delta(delta_next, "delta_next")
    if a < 0.0:
        raise ValueError("a must be >= 0")
    radicand = _log_window_term(window) - math.log(delta_next)
    if radicand < 0.0:
        raise ValueError(f"negative radicand {radicand} in a_prime")
    return a + math.sqrt(2.0 * radicand)


def b_prime(b: float, window: int, delta_next: float) -> float:
    """Inflate a certificate's ``b`` to confidence level ``delta_next``.

    Returns ``b + 1/2 + log(1 + log(window/2)/2) - log(delta_next)`` with
    the same window-term flooring as :func:`a_prime`.
    """
    delta_next = _check_delta(delta_next, "delta_next")
    if b < 0.0:
        raise ValueError("b must be >= 0")
    return b + 0.5 + _log_window_term(window) - math.log(delta_next)


# ============================================================
# Session error and confidence radius
# ============================================================

def err_bound(grad_sq_sum: float, a_p: float, b_p: float, B: float) -> float:
    """High-probability bound on a session's cumulative excess risk.

    Returns ``a_p * sqrt(grad_sq_sum) + b_p * B``.

    Raises:
        ValueError: if ``grad_sq_sum < 0`` or any input is non-finite.
    """
    for name, value in (("grad_sq_sum", grad_sq_sum), ("a_p", a_p),
                        ("b_p", b_p), ("B", B)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if grad_sq_sum < 0.0:
        raise ValueError(f"grad_sq_sum must be >= 0, got {grad_sq_sum}")
    return a_p * math.sqrt(grad_sq_sum) + b_p * B


def radius_bound(d0: int, U: float, i: int, alpha: float, window: int,
                 err: float) -> float:
    """Confidence radius around the truncated session average.

    Returns ``2 * sqrt(2 * d0 * U * 2**(-i/2) * err / (alpha * window))``.
    A negative ``err`` is clipped to 0 with a warning (it certifies nothing
    tighter than a zero radius).

    Raises:
        ValueError: if ``window < 1`` or ``d0``/``U``/``alpha`` are invalid.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if d0 < 0 or U <= 0.0 or alpha <= 0.0 or i < 0:
        raise ValueError("d0 >= 0, U > 0, alpha > 0, i >= 0 required")
    if err < 0.0:
        warnings.warn(f"negative session error bound {err!r} clipped to 0",
                      RuntimeWarning, stacklevel=2)
        err = 0.0
    return 2.0 * math.sqrt(2.0 * d0 * U * 2.0 ** (-i / 2.0) * err
                           / (alpha * window))


# ============================================================
# Whole-horizon risk bounds
# ============================================================

def theorem1_a_prime(a: float, T: float, delta: float) -> float:
    """Aggregate ``a' = a + sqrt(6*log(1 + 3*log T) - 2*log delta)``."""
    _check_delta(delta)
    return a + math.sqrt(6.0 * _loglog_horizon_term(T) - 2.0 * math.log(delta))


def theorem1_b_prime(b: float, T: float, delta: float) -> float:
    """Aggregate ``b' = b + 1/2 + 3*log(1 + 3*log T) - log delta``."""
    _check_delta(delta)
    return b + 0.5 + 3.0 * _loglog_horizon_term(T) - math.log(delta)


def theorem1_bound(params: ProblemParams, cert: RegretCertificate,
                   T: int) -> float:
    """High-probability excess-risk bound for the final estimator at ``T``.

    The bound is the minimum of a slow branch (scaling like
    ``U*B*a'/sqrt(T)``) and a fast branch (scaling like
    ``d0*B^2*a'^2/(alpha*T)``); the two cross as ``T`` grows.

    Raises:
        ValueError: if ``T < 1`` or ``params.d0 == 0``.
    """
    if params.d0 < 1:
        raise ValueError("the risk bound requires a sparsity budget d0 >= 1")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    ap = theorem1_a_prime(cert.a, T, params.delta)
    bp = theorem1_b_prime(cert.b, T, params.delta)
    U, B, alpha, d0 = params.U, params.B, params.alpha, params.d0
    slow = U * B * (ap * math.sqrt(2.0 / T) + 4.0 * bp / T) \
        + alpha * U * U / (8.0 * d0 * T)
    fast = (d0 * B * B / alpha) * (2.0 ** 7 * ap * ap / T
                                   + 2.0 ** 11 * bp * bp / (T * T)) \
        + 2.0 * alpha * U * U / (d0 * T * T)
    return min(slow, fast)


def theorem2_bound(params: ProblemParams, cert: RegretCertificate,
                   T: int) -> float:
    """High-probability bound on the cumulative excess risk up to ``T``.

    Minimum of a ``sqrt(T)`` branch and a ``log T`` branch (the fast branch
    grows only logarithmically in the horizon).

    Raises:
        ValueError: if ``T < 1`` or ``params.d0 == 0``.
    """
    if params.d0 < 1:
        raise ValueError("the cumulative bound requires a sparsity budget d0 >= 1")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    ap = theorem1_a_prime(cert.a, T, params.delta)
    bp = theorem1_b_prime(cert.b, T, params.delta)
    U, B, alpha, d0 = params.U, params.B, params.alpha, params.d0
    slow = 4.0 * U * B * (ap * math.sqrt(T) + bp + 1.0)
    fast = (2.0 ** 5 * d0 * B * B / alpha) * ap * ap * math.log2(T) \
        + 4.0 * U * B * (1.0 + bp) + alpha * U * U / (8.0 * d0)
    return min(slow, fast)


def theorem3_a_prime(a: float, T: float, delta: float) -> float:
    """Square-loss aggregate ``a' = 2a + 2*sqrt(6*log(1+3logT) + 2*log(2/delta))``."""
    return 2.0 * a + 2.0 * math.sqrt(6.0 * _loglog_horizon_term(T)
                                     + 2.0 * math.log(2.0 / delta))


def theorem3_c_prime(a: float, b: float, T: float, delta: float) -> float:
    """Square-loss aggregate ``c' = 1 + 3b + 4a^2 + 9*log(1+3logT) + 3*log(2/delta)``."""
    return 1.0 + 3.0 * b + 4.0 * a * a + 9.0 * _loglog_horizon_term(T) \
        + 3.0 * math.log(2.0 / delta)


def theorem3_bound(X: float, Y: float, U: float, d0: int, alpha: float,
                   sigma: float, cert: RegretCertificate, T: int,
                   delta: float) -> Theorem3Bound:
    """Excess-risk bound for square loss with bounded design and responses.

    For designs with ``||x||_inf <= X``, responses ``|y| <= Y``, and noise
    level ``sigma``, using the gradient bound ``2X(Y + 2XU)``.  The result
    holds up to an absolute multiplicative constant (``up_to_constant``),
    so use it for scaling regressions, not coverage claims.

    Raises:
        ValueError: on nonpositive scale parameters, ``d0 < 1``, ``T < 1``,
            or ``delta`` outside (0, 1).
    """
    if min(X, Y, U, alpha) <= 0.0 or sigma < 0.0:
        raise ValueError("X, Y, U, alpha must be > 0 and sigma >= 0")
    if d0 < 1:
        raise ValueError("d0 must be >= 1")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    _check_delta(delta)
    ap = theorem3_a_prime(cert.a, T, delta)
    cp = theorem3_c_prime(cert.a, cert.b, T, delta)
    yxu = Y + X * U
    slow = U * X * (sigma * ap / math.sqrt(T) + yxu * cp / T) \
        + alpha * U * U / (d0 * T)
    fast = (X * X * d0 / alpha) * (sigma * sigma * ap * ap / T
                                   + yxu * yxu * cp * cp / (T * T)) \
        + alpha * U * U / (d0 * T * T)
    return Theorem3Bound(value=min(slow, fast), a_prime=ap, c_prime=cp)


def gradient_bound_square(X: float, Y: float, U: float) -> float:
    """Sup-norm gradient bound ``2X(Y + 2XU)`` for square loss on the 2U-ball.

    Valid when ``||x||_inf <= X`` and ``|y| <= Y``.
    """
    if X <= 0.0 or Y <= 0.0 or U < 0.0:
        raise ValueError("X > 0, Y > 0, U >= 0 required")
    return 2.0 * X * (Y + 2.0 * X * U)


# ============================================================
# Session-length laws
# ============================================================

def session_length_bound(gamma: float, a_p: float, b_p: float, j: int) -> float:
    """Upper bound on the length of session ``j``.

    Returns ``1 + 2**j * gamma**2 * a_p**2 + 2**(j/2) * gamma * b_p`` where
    ``gamma`` is the aggregate constant ``2**4 * d0 * B / (alpha * U)``.

    Raises:
        ValueError: if ``j < 0`` or ``gamma``/``a_p``/``b_p`` are negative.
    """
    if j < 0 or int(j) != j:
        raise ValueError(f"session index must be an integer >= 0, got {j!r}")
    if gamma < 0.0 or a_p < 0.0 or b_p < 0.0:
        raise ValueError("gamma, a_p, b_p must be >= 0")
    return 1.0 + 2.0 ** j * gamma * gamma * a_p * a_p \
        + 2.0 ** (j / 2.0) * gamma * b_p


def lemma3_min_radius(U: float, gamma: float, a_p: float, b_p: float,
                      t: int) -> float:
    """Upper bound on the smallest confidence radius seen by time ``t``.

    Returns ``U * (sqrt(2)*gamma*a_p/sqrt(t) + (2 + 4*gamma*b_p)/t)``.

    Raises:
        ValueError: if ``t < 1``.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return U * (math.sqrt(2.0) * gamma * a_p / math.sqrt(t)
                + (2.0 + 4.0 * gamma * b_p) / t)


# ============================================================
# Martingale inequalities
# ============================================================

def poisson_bound(sum_conditional_means: float, B: float, delta: float) -> float:
    """High-probability bound for sums of nonnegative bounded increments.

    For increments in ``[0, B]`` with conditional means summing to
    ``sum_conditional_means``, the sum stays below
    ``(e - 1) * sum_conditional_means + B * log(1/delta)`` with probability
    at least ``1 - delta``.

    Raises:
        ValueError: on negative mean sum, nonpositive ``B``, or bad delta.
    """
    _check_delta(delta)
    if sum_conditional_means < 0.0:
        raise ValueError("sum_conditional_means must be >= 0")
    if B <= 0.0:
        raise ValueError("B must be > 0")
    return (math.e - 1.0) * sum_conditional_means + B * math.log(1.0 / delta)


def regret_to_risk_bound(epsilon: float, B: float, grad_sq_sum: float,
                         T: int, delta: float) -> float:
    """Convert a ball optimizer's regret into a cumulative-risk bound.

    For any prediction sequence inside a ball of radius ``epsilon`` whose
    gradients have sup-norms bounded by ``B``:

        epsilon * sqrt(2 * log((2 + log(T/2)) / (2*delta)) * grad_sq_sum)
        + (1/2 + log(1 + log(T/2)/2) - log(delta)) * epsilon * B

    with ``log(T/2)`` floored at 0 (so the bound is defined at ``T = 1``).
    At ``(a, b) = (0, 0)`` this is exactly
    ``epsilon * err_bound(grad_sq_sum, a_prime(0, T, delta),
    b_prime(0, T, delta), B)`` — the pure martingale part.

    Raises:
        ValueError: on ``T < 1``, bad delta, or negative inputs.
    """
    _check_delta(delta)
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if epsilon < 0.0 or B < 0.0 or grad_sq_sum < 0.0:
        raise ValueError("epsilon, B, grad_sq_sum must be >= 0")
    log_t2 = max(0.0, math.log(T / 2.0))
    first = epsilon * math.sqrt(
        2.0 * math.log((2.0 + log_t2) / (2.0 * delta)) * grad_sq_sum)
    second = (0.5 + math.log(1.0 + 0.5 * log_t2) - math.log(delta)) \
        * epsilon * B
    return first + second

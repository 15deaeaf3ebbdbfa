"""Online convex optimization inside an l1-ball, with a regret certificate.

The contract: a ball optimizer predicts points of a fixed l1-ball, observes
loss gradients at its predictions, and guarantees that its linearized regret
against the best ball corner never exceeds

    radius * (a * sqrt(sum_t ||g_t||_inf^2) + b * B)

for the nonnegative constants ``(a, b)`` it certifies.  The shipped
implementation is an exponentiated-gradient forecaster that maintains
exponential weights over the ball's ``2d`` corners
(``center + radius*e_j`` and ``center - radius*e_j``) with a self-confident,
anytime learning-rate schedule.

Losses enter only through gradients (linearization), so the guarantee
extends to arbitrary convex losses evaluated at the predictions.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from collections.abc import Sequence

import numpy as np

from saew.core import DenseVector, L1Ball

# The once-per-forecaster warning of EGState.update and EGBank.update.
OVER_B_WARNING = ("observed gradient sup-norm exceeds the declared bound B; "
                  "continuing with the running max")


# ============================================================
# Certificate
# ============================================================

@dataclasses.dataclass(frozen=True)
class RegretCertificate:
    """Constants ``(a, b)`` of a ball optimizer's regret guarantee.

    The certified bound on linearized regret inside a ball of radius
    ``eps`` is ``eps * (a * sqrt(grad_sq_sum) + b * B)``.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"certificate {name} must be finite and >= 0")
            object.__setattr__(self, name, value)


# ============================================================
# Exponentiated gradient over ball corners
# ============================================================

@dataclasses.dataclass
class EGState:
    """Exponential-weights forecaster over the ``2d`` corners of an l1-ball.

    Corner order is ``center + radius*e_1, ..., center + radius*e_d,
    center - radius*e_1, ..., center - radius*e_d``.  The weights follow
    from ``grad_sum``, ``v2``, ``b_hat`` and the radius (see :meth:`update`);
    the prediction is computed from them at construction and after each
    update, and :meth:`predict` returns it.

    Attributes:
        ball: the prediction domain.
        B: declared sup-norm gradient bound (used only for validation
            warnings; the learning rate trusts the observed running max).
        grad_sum: cumulative sum of observed gradients (drives the weights).
        v2: running sum of squared sup-norms of observed gradients.
        b_hat: running max of observed gradient sup-norms.
        t: number of ``update`` calls observed.
    """

    ball: L1Ball
    B: float
    grad_sum: np.ndarray = None  # type: ignore[assignment]
    v2: float = 0.0
    b_hat: float = 0.0
    t: int = 0
    _prediction: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.grad_sum is None:
            self.grad_sum = np.zeros(self.ball.dimension)
        self._refresh_prediction()

    # ---- behavior -------------------------------------------------------

    def predict(self) -> DenseVector:
        """Return the weight-convex combination of ball corners (read-only).

        By construction the output's l1 distance to the center is at most
        the radius, so it always lies in the ball.
        """
        return self._prediction

    def _log_weights(self) -> np.ndarray:
        """Corner log-weights in a ball of positive radius, shifted so their
        max is 0; all zero before the first nonzero gradient."""
        if self.b_hat == 0.0:
            return np.zeros(2 * self.ball.dimension)
        radius = self.ball.radius
        # v2 underflows to 0 under sup-norms below about 1e-162 while b_hat
        # stays positive, and radius * b_hat can round to 0 or its inverse
        # overflow: a term whose quotient is not finite is +inf.
        radius_b_hat = radius * self.b_hat
        radius_root_v2 = radius * math.sqrt(self.v2)
        by_b_hat = 1.0 / radius_b_hat if radius_b_hat > 0.0 else math.inf
        by_v2 = (math.sqrt(math.log(2 * self.ball.dimension)) / radius_root_v2
                 if radius_root_v2 > 0.0 else math.inf)
        return _log_weights_at(min(by_b_hat, by_v2) * radius, self.grad_sum)

    def _refresh_prediction(self) -> None:
        # A new array each time: callers may still hold the previous one.
        center, radius = self.ball.center, self.ball.radius
        if radius == 0.0:
            prediction = center.copy()
        else:
            d = self.ball.dimension
            # The max log-weight is 0, so this is exp(log_w - max(log_w)).
            w = np.exp(self._log_weights())
            scale = radius / w.sum()
            prediction = center + scale * (w[:d] - w[d:])
        prediction.setflags(write=False)
        self._prediction = prediction

    def update(self, gradient: DenseVector) -> "EGState":
        """Fold one gradient into the corner weights (in place).

        The weights are recomputed from the cumulative linearized corner
        losses at the current learning rate: after absorbing the gradient,

            log_w(corner +-e_j) = -+ eta_t * radius * grad_sum_j,
            eta_t = min( 1 / (radius * b_hat),
                         sqrt(ln(2d)) / (radius * sqrt(v2)) ),

        where ``v2`` and ``b_hat`` include the current gradient (a term whose
        quotient is not finite is +inf; where ``eta_t * radius`` is +inf, the
        weights are their limit, all on the best corners).  Recomputing
        at the current rate (rather than multiplying the old weights, which
        would freeze stale early rates into the state forever) is what keeps
        the regret inside the certificate for every gradient sequence.  A
        zero gradient adds nothing to ``grad_sum``, ``v2`` or ``b_hat``, so
        the recomputed prediction has the bits of the previous one.

        Returns the same (mutated) state, for chaining.

        Raises:
            ValueError: non-finite gradient, a sup-norm whose square
                overflows ``v2``, or dimension mismatch (state unchanged).

        Warns:
            RuntimeWarning: once per instance, at the first gradient whose
                sup-norm exceeds ``B`` (the running max is ``b_hat``).
        """
        gradient = np.asarray(gradient, dtype=float)
        if gradient.shape != self.ball.center.shape:
            raise ValueError(f"gradient has shape {gradient.shape}, "
                             f"expected ({self.ball.dimension},)")
        if not np.all(np.isfinite(gradient)):
            raise ValueError("gradient must be finite")
        linf = float(np.max(np.abs(gradient)))
        v2 = self.v2 + linf * linf
        if not math.isfinite(v2):
            raise ValueError("gradient too large: the sum of squared "
                             "sup-norms v2 would not be finite")
        self.t += 1
        if self.b_hat <= self.B < linf:
            warnings.warn(OVER_B_WARNING, RuntimeWarning, stacklevel=2)
        self.b_hat = max(self.b_hat, linf)
        self.v2 = v2
        self.grad_sum += gradient
        self._refresh_prediction()
        return self


def _log_weights_at(rate: float, grad_sum: np.ndarray) -> np.ndarray:
    """Corner log-weights ``-+ rate * grad_sum`` shifted so their max is 0,
    at the step scale ``rate = eta * radius``.

    Where ``rate`` overflowed to +inf (sup-norms near the smallest
    doubles), the weights are their limit as the rate grows: all weight,
    shared equally, on the corners of largest ``-+ grad_sum``.
    """
    if rate == math.inf:
        log_w = np.concatenate((-grad_sum, grad_sum))
        return np.where(log_w == log_w.max(), 0.0, -np.inf)
    step = rate * grad_sum
    log_w = np.concatenate((-step, step))
    log_w -= np.max(log_w)
    return log_w


class EGBank:
    """Independent :class:`EGState` forecasters, one per row of arrays.

    :meth:`update` applies ``EGState.update`` to every row with the same
    operations in the same order, so each row's prediction has the bits of
    its own forecaster's.  :meth:`reset` starts a row's forecaster afresh
    in another ball.

    Attributes:
        center: ``(N, d)`` ball centers.
        radius: ``(N,)`` ball radii.
        B: ``(N,)`` declared sup-norm bounds.
        grad_sum, v2, b_hat: each row's ``EGState`` fields.
        steps: number of updates made.
        prediction: ``(N, d)`` predictions; each :meth:`update` binds a new
            array, and :meth:`reset` writes its row into the current one.
        labels: a name for each row, used in error messages.
    """

    def __init__(self, center: np.ndarray, radius: np.ndarray,
                 B: np.ndarray, labels: Sequence[str]):
        """Fresh forecasters, one per row of the ``(N, d)`` ``center``.

        Raises:
            ValueError: ``radius``, ``B`` or ``labels`` without one entry
                per row.
        """
        self.center = np.array(center, float)
        n, d = self.center.shape
        self.radius = np.array(radius, float)
        self.B = np.array(B, float)
        self.labels = list(labels)
        if not (self.radius.shape == self.B.shape == (n,)
                and len(self.labels) == n):
            raise ValueError(
                f"{n} forecasters need {n} radii, B values and labels, got "
                f"{self.radius.size}, {self.B.size} and {len(self.labels)}")
        self.root_log_2d = math.sqrt(math.log(2 * d))
        self.grad_sum = np.zeros((n, d))
        self.v2 = np.zeros(n)
        self.b_hat = np.zeros(n)
        self.steps = 0
        # A fresh forecaster's uniform weights predict its center.
        self.prediction = self.center.copy()

    def reset(self, r: int, center: np.ndarray, radius: float) -> None:
        """Give row ``r`` a fresh forecaster in the ball ``(center, radius)``."""
        self.center[r] = center
        self.radius[r] = radius
        self.prediction[r] = center
        self.grad_sum[r] = 0.0
        self.v2[r] = 0.0
        self.b_hat[r] = 0.0

    def update(self, grad: np.ndarray) -> None:
        """Fold row ``r`` of the ``(N, d)`` ``grad`` into forecaster ``r``.

        A zero row adds nothing to its row's ``grad_sum``, ``v2`` or
        ``b_hat``, so that row's prediction keeps its bits.

        Raises:
            ValueError: a ``grad`` whose shape is not ``(N, d)``, or a
                gradient that is not finite, or whose squared sup-norm
                overflows its row's ``v2``; the message names the shape,
                or the row's label and the step, and no row is changed.

        Warns:
            RuntimeWarning: at most once per call, when a row's gradient is
                the first of its forecaster to exceed that row's ``B``.
        """
        if grad.shape != self.grad_sum.shape:
            raise ValueError(f"gradient stack has shape {grad.shape}, "
                             f"expected {self.grad_sum.shape}")
        # np.count_nonzero and ufunc reductions: the array methods cost
        # more per call on a few rows.
        linf = np.maximum.reduce(np.abs(grad), axis=1)
        v2 = self.v2 + linf * linf
        if not math.isfinite(np.maximum.reduce(v2)):
            r = np.flatnonzero(~np.isfinite(v2))[0]
            raise ValueError(
                f"{self.labels[r]}: the gradient at step {self.steps + 1} is "
                "not finite, or the sum of squared sup-norms v2 would not be")
        b_hat, B, radius = self.b_hat, self.B, self.radius
        if (np.count_nonzero(linf > B)
                and np.count_nonzero((b_hat <= B) & (B < linf))):
            warnings.warn(OVER_B_WARNING, RuntimeWarning, stacklevel=2)
        self.steps += 1
        self.v2 = v2
        self.b_hat = b_hat = np.maximum(b_hat, linf)
        grad_sum = self.grad_sum
        grad_sum += grad
        # As in EGState._log_weights, a quotient that is not finite is +inf
        # (numpy's inf for a zero or tiny denominator).  A row of radius 0
        # gets a NaN rate here and predicts its center below.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            rate = np.minimum(1.0 / (radius * b_hat),
                              self.root_log_2d / (radius * np.sqrt(v2)))
            rate *= radius
        n, d = grad_sum.shape
        # Corner log-weights -step, then step, with step = rate * grad_sum.
        log_w = np.empty((n, 2 * d))
        regular = np.maximum.reduce(rate) < np.inf
        if regular:
            np.multiply(rate[:, None], grad_sum, out=log_w[:, d:])
            np.negative(log_w[:, d:], out=log_w[:, :d])
            log_w -= np.maximum.reduce(log_w, axis=1, keepdims=True)
        else:
            # Rare: an infinite rate (b_hat 0 or tiny), or a radius of 0.
            log_w[:] = 0.0
            for k in np.flatnonzero(radius > 0.0).tolist():
                log_w[k] = _log_weights_at(float(rate[k]), grad_sum[k])
        # The max of log_w is 0, so this is the prediction refresh's
        # exp(log_w - max(log_w)), and the prediction is its
        # center + scale * (w[:d] - w[d:]).
        w = np.exp(log_w, out=log_w)
        scale = radius / np.add.reduce(w, axis=1)
        prediction = w[:, :d] - w[:, d:]
        prediction *= scale[:, None]
        prediction += self.center
        if not regular:
            flat = radius == 0.0
            prediction[flat] = self.center[flat]
        self.prediction = prediction


# ============================================================
# Operations (functional front-end)
# ============================================================

def eg_init(ball: L1Ball, B: float) -> EGState:
    """Create a fresh forecaster with uniform corner weights and ``v2 = 0``.

    Raises:
        ValueError: if ``B <= 0``.
    """
    B = float(B)
    if not np.isfinite(B) or B <= 0.0:
        raise ValueError(f"B must be finite and > 0, got {B!r}")
    return EGState(ball=ball, B=B)


def eg_certificate(d: int) -> RegretCertificate:
    """Return the certified regret constants for ambient dimension ``d``.

    ``(a, b) = (2*sqrt(2*ln(2d)), 2 + 2*ln(2d))`` — conservative constants
    under which the implemented forecaster's corner regret stays below the
    certified bound for any gradient sequence (no per-sequence tuning).

    Raises:
        ValueError: if ``d < 1``.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    log2d = math.log(2 * d)
    return RegretCertificate(a=2.0 * math.sqrt(2.0 * log2d), b=2.0 + 2.0 * log2d)

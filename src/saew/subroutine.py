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
import numpy as np

from saew.core import DenseVector, L1Ball


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
    center - radius*e_1, ..., center - radius*e_d``.  Weights are stored as
    unnormalized log-weights (``log_w``) and renormalized by max-subtraction
    so they never under/overflow.

    Attributes:
        ball: the prediction domain.
        B: declared sup-norm gradient bound (used only for validation
            warnings; the learning rate trusts the observed running max).
        log_w: unnormalized log-weights over the ``2d`` corners.
        grad_sum: cumulative sum of observed gradients (drives ``log_w``).
        v2: running sum of squared sup-norms of observed gradients.
        b_hat: running max of observed gradient sup-norms.
        t: number of ``update`` calls observed.

    The prediction is computed at construction and after each weight
    change, and :meth:`predict` returns it.
    """

    ball: L1Ball
    B: float
    log_w: np.ndarray
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

    def _refresh_prediction(self) -> None:
        # A new array each time: callers may still hold the previous one.
        center, radius = self.ball.center, self.ball.radius
        if radius == 0.0:
            prediction = center.copy()
        else:
            d = self.ball.dimension
            w = np.exp(self.log_w - np.max(self.log_w))
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

        where ``v2`` and ``b_hat`` include the current gradient.  Recomputing
        at the current rate (rather than multiplying the old weights, which
        would freeze stale early rates into the state forever) is what keeps
        the regret inside the certificate for every gradient sequence.  A
        zero gradient leaves weights, ``v2``, and ``b_hat`` unchanged.

        Returns the same (mutated) state, for chaining.

        Raises:
            ValueError: non-finite gradient or dimension mismatch.
        """
        gradient = np.asarray(gradient, dtype=float)
        if gradient.shape != self.ball.center.shape:
            raise ValueError(f"gradient has shape {gradient.shape}, "
                             f"expected ({self.ball.dimension},)")
        if not np.all(np.isfinite(gradient)):
            raise ValueError("gradient must be finite")
        self.t += 1
        linf = float(np.max(np.abs(gradient)))
        if linf == 0.0:
            return self
        if linf > self.B:
            warnings.warn(
                f"observed gradient sup-norm {linf:.6g} exceeds the declared "
                f"bound B={self.B:.6g}; continuing with the running max",
                RuntimeWarning, stacklevel=2)
        self.b_hat = max(self.b_hat, linf)
        self.v2 += linf * linf
        self.grad_sum += gradient
        radius = self.ball.radius
        if radius > 0.0:
            d = self.ball.dimension
            eta = min(1.0 / (radius * self.b_hat),
                      math.sqrt(math.log(2 * d)) / (radius * math.sqrt(self.v2)))
            step = (eta * radius) * self.grad_sum
            self.log_w[:d] = -step
            self.log_w[d:] = step
            self.log_w -= np.max(self.log_w)
            self._refresh_prediction()
        return self


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
    return EGState(ball=ball, B=B, log_w=np.zeros(2 * ball.dimension))


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

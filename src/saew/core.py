"""Shared numeric types, l1-ball geometry, environments, and run records.

Every other module builds on these primitives: dense parameter vectors
(1-D float arrays), l1-balls with a fixed membership tolerance, problem
constants, seeded sample environments whose ground-truth parameter is
reserved for metrics, and per-run records that serialize to CSV.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings
from collections.abc import Callable, Iterator, Mapping, Sequence
from pathlib import Path
from typing import Any

import numpy as np

# Absolute tolerance for l1-ball membership tests.  Predictions are convex
# combinations of ball corners and drift from the boundary by a few ulps,
# so membership means ||v - center||_1 <= radius + BALL_TOL.
BALL_TOL = 1e-9

# A dense parameter vector: 1-D float64 ndarray with finite entries.
DenseVector = np.ndarray

# Canonical CSV schema for run records; extra columns may follow these.
BASE_COLUMNS = ("t", "l2_error", "risk_hat", "risk_tilde", "cum_risk",
                "epsilon", "session")

# Columns written as integers by write_table.
_INT_COLUMNS = frozenset({"t", "session", "seed"})
# Rows write_table formats with one % operation: memory stays bounded at
# any length of table.
_SLAB_ROWS = 1024


# ============================================================
# Domain types
# ============================================================

@dataclasses.dataclass(frozen=True)
class L1Ball:
    """An l1-ball ``{v : ||v - center||_1 <= radius}``.

    Attributes:
        center: 1-D finite float vector.
        radius: nonnegative radius (0 gives the degenerate one-point ball).
    """

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=float)
        if center.ndim != 1:
            raise ValueError("ball center must be a 1-D vector")
        if not np.all(np.isfinite(center)):
            raise ValueError("ball center must have finite entries")
        radius = float(self.radius)
        if not np.isfinite(radius) or radius < 0.0:
            raise ValueError(f"ball radius must be >= 0, got {self.radius!r}")
        center = center.copy()
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)

    @property
    def dimension(self) -> int:
        """Ambient dimension of the ball."""
        return int(self.center.shape[0])


@dataclasses.dataclass(frozen=True)
class ProblemParams:
    """Problem-level constants shared by the engine and bound evaluators.

    Attributes:
        d0: sparsity budget — number of coordinates kept by hard truncation.
            Must be >= 0; 0 is a degenerate setting (see the engine module).
        alpha: strong-convexity constant of the risk (the risk is assumed
            2*alpha-strongly convex around its minimizer).
        U: upper bound on the l1 norm of the risk minimizer.
        B: sup-norm bound on loss gradients over the l1-ball of radius 2U.
        delta: total failure probability, split across sessions.
    """

    d0: int
    alpha: float
    U: float
    B: float
    delta: float

    def __post_init__(self) -> None:
        if int(self.d0) != self.d0 or self.d0 < 0:
            raise ValueError(f"d0 must be a nonnegative integer, got {self.d0!r}")
        object.__setattr__(self, "d0", int(self.d0))
        for name in ("alpha", "U", "B"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
            object.__setattr__(self, name, value)
        delta = float(self.delta)
        if not (0.0 < delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
        object.__setattr__(self, "delta", delta)


@dataclasses.dataclass(frozen=True)
class Environment:
    """A seeded i.i.d. stream of ``(x, y)`` samples with a known loss family.

    The ground-truth parameter is carried for metrics only.  Optimizers must
    interact with an environment exclusively through sampled losses and
    gradients at queried points; the engine and subroutine APIs take gradient
    callables, never an environment, which enforces that firewall
    structurally.

    Attributes:
        dimension: ambient dimension of parameter vectors (includes the
            intercept coordinate for quantile environments).
        loss: loss family tag, ``"square"`` or ``"pinball"``.
        seed: master seed; identical seeds reproduce the stream bit-for-bit.
        config: round-trippable description of the environment
            (keys ``loss, d, d0, noise_sd, alpha_q, seed``).
        theta_star_metrics: risk minimizer, for metrics only.
        draw: ``draw(n)`` returns the first ``n`` stream samples as
            ``(X, y)`` with ``X`` of shape ``(n, dimension)``; deterministic,
            and a prefix of every longer draw, bit for bit.
        blocks: ``blocks(n, block)`` yields ``draw(n)`` in consecutive
            ``(X, y)`` blocks of at most ``block`` rows, bit for bit,
            drawing one block at a time.
        excess_risk_exact: closed-form instantaneous excess risk of a
            parameter vector (a float), or of each row of a ``(k, d)``
            stack (an array); ``None`` if no closed form is available.
    """

    dimension: int
    loss: str
    seed: int
    config: Mapping[str, Any]
    theta_star_metrics: np.ndarray
    draw: Callable[[int], tuple[np.ndarray, np.ndarray]] = dataclasses.field(repr=False)
    blocks: Callable[[int, int], Iterator[tuple[np.ndarray, np.ndarray]]] = (
        dataclasses.field(repr=False))
    excess_risk_exact: Callable[[np.ndarray], float | np.ndarray] | None = dataclasses.field(
        default=None, repr=False)

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta_star_metrics, dtype=float)
        if theta.shape != (self.dimension,):
            raise ValueError("theta_star_metrics must match the ambient dimension")
        theta = theta.copy()
        theta.setflags(write=False)
        object.__setattr__(self, "theta_star_metrics", theta)
        object.__setattr__(self, "config", dict(self.config))


@dataclasses.dataclass
class RunRecord:
    """Per-step metrics for one run plus reproducibility metadata.

    ``rows`` is one ``(T, len(columns))`` float64 array, built in
    ``__post_init__`` from any rows-by-columns input; :meth:`column` reads
    one metric by name.  ``columns`` always starts with the canonical
    schema ``t, l2_error, risk_hat, risk_tilde, cum_risk, epsilon,
    session``; optional extras (e.g. ``risk_se`` or bound traces) come
    after.

    Invariants (checked by :meth:`validate`): ``t`` runs ``1, 2, 3, ...``
    and cumulative excess risk is nondecreasing.
    """

    columns: tuple[str, ...]
    rows: np.ndarray
    seed: int
    config_hash: str

    def __post_init__(self) -> None:
        self.columns = tuple(self.columns)
        if self.columns[: len(BASE_COLUMNS)] != BASE_COLUMNS:
            raise ValueError(
                f"run record columns must start with {','.join(BASE_COLUMNS)}")
        rows = np.array(self.rows, dtype=float)
        if rows.size == 0:
            rows = rows.reshape(0, len(self.columns))
        if rows.ndim != 2 or rows.shape[1] != len(self.columns):
            raise ValueError(f"rows must form a (T, {len(self.columns)}) "
                             f"table, got shape {rows.shape}")
        self.rows = rows

    def column(self, name: str) -> np.ndarray:
        """The per-step values of column ``name`` (a view into ``rows``)."""
        return self.rows[:, self.columns.index(name)]

    def validate(self) -> None:
        """Raise ``ValueError`` if a structural invariant is broken."""
        t = self.column("t")
        bad = np.flatnonzero(t != np.arange(1, len(t) + 1))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"row {k}: t must be {k + 1}, got {t[k]}")
        cum = self.column("cum_risk")
        bad = np.flatnonzero(cum[1:] < cum[:-1] - 1e-12)
        if bad.size:
            k = int(bad[0]) + 1
            raise ValueError(f"row {k}: cumulative risk decreased "
                             f"({cum[k - 1]} -> {cum[k]})")

    # ---- serialization ------------------------------------------------

    def to_csv(self, path: str | Path) -> None:
        """Write the record to ``path`` (see :func:`write_table`) and the
        metadata to ``path + '.meta.json'``.  Output is byte-deterministic.
        """
        path = Path(path)
        write_table(path, self.columns, self.rows)
        meta = {"seed": self.seed, "config_hash": self.config_hash}
        path.with_suffix(path.suffix + ".meta.json").write_text(
            json.dumps(meta, sort_keys=True) + "\n")

    @classmethod
    def from_csv(cls, path: str | Path) -> "RunRecord":
        """Read a record written by :meth:`to_csv` (metadata sidecar optional).

        Raises:
            ValueError: the file is empty or holds no data rows.
        """
        path = Path(path)
        with path.open() as fh:
            header = fh.readline().rstrip("\n")
            if not header:
                raise ValueError(f"{path} is empty")
            with warnings.catch_warnings():
                # A header-only file is rejected below, naming the file.
                warnings.filterwarnings("ignore", "loadtxt: input contained "
                                        "no data", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        if not len(rows):
            raise ValueError(f"{path} holds no data rows")
        seed, config_hash = -1, ""
        meta_path = path.with_suffix(path.suffix + ".meta.json")
        if meta_path.exists():
            meta = json.loads(meta_path.read_text())
            seed = int(meta.get("seed", -1))
            config_hash = str(meta.get("config_hash", ""))
        return cls(columns=tuple(header.split(",")), rows=rows, seed=seed,
                   config_hash=config_hash)


def write_table(path: str | Path, columns: Sequence[str],
                data: np.ndarray) -> None:
    """Write ``data`` (one row per line) as comma-separated text.

    The first line is the header ``columns``.  The ``t``, ``session`` and
    ``seed`` columns are written as integers and every other value with
    ``%.12g`` and a plain decimal point; every line ends in a newline.
    Every numeric CSV the harness writes goes through here.

    Raises:
        ValueError: if ``data`` is not a table of ``len(columns)`` columns.
    """
    data = np.asarray(data)
    if data.ndim != 2 or data.shape[1] != len(columns):
        raise ValueError(f"{len(columns)} columns for a table of shape "
                         f"{data.shape}")
    line = ",".join("%d" if c in _INT_COLUMNS else "%.12g"
                    for c in columns) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(data), _SLAB_ROWS):
            slab = data[start:start + _SLAB_ROWS]
            fh.write(line * len(slab) % tuple(slab.ravel().tolist()))


# ============================================================
# Operations
# ============================================================

def l1_norm(v: DenseVector) -> float:
    """Return ``sum_j |v_j|`` (plain summation).

    Raises:
        ValueError: if any entry is NaN or infinite.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("l1_norm requires finite entries")
    return float(np.sum(np.abs(v)))


def ball_contains(ball: L1Ball, v: DenseVector) -> bool:
    """Return whether ``||v - center||_1 <= radius + BALL_TOL``.

    Raises:
        ValueError: on dimension mismatch or non-finite entries.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != ball.center.shape:
        raise ValueError(f"dimension mismatch: ball has d={ball.dimension}, "
                         f"vector has shape {v.shape}")
    return l1_norm(v - ball.center) <= ball.radius + BALL_TOL


def excess_l2(v: DenseVector, theta_star: DenseVector) -> float:
    """Return the Euclidean distance ``||v - theta_star||_2``.

    Raises:
        ValueError: on dimension mismatch or non-finite entries.
    """
    v = np.asarray(v, dtype=float)
    theta_star = np.asarray(theta_star, dtype=float)
    if v.shape != theta_star.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {theta_star.shape}")
    diff = v - theta_star
    if not np.all(np.isfinite(diff)):
        raise ValueError("excess_l2 requires finite entries")
    return float(np.linalg.norm(diff))


def config_hash(config: Mapping[str, Any]) -> str:
    """Return a short stable hash of a configuration mapping."""
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]

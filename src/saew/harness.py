"""Experiment runner: configs, seeded runs, CSVs, summaries, plot scripts.

The harness turns a flat INI config into deterministic per-seed runs of one
of four algorithms (the acceleration wrapper, the plain ball subroutine,
l1-regularized dual averaging, or the calibration loop), writes one CSV per
seed plus cross-seed summary tables, and emits gnuplot scripts that render
the standard diagnostic figures offline.

Seeding contract: the experiment's seed list is used directly as
environment master seeds; each environment expands its master seed into
per-component child streams, so runs are independent and adding a seed
never perturbs the others.  The seeds run as the rows of one learner
state, stepped together by one per-step loop; rows share no data, so each
seed's output is what a run of that seed alone gives.  The loop can be
split across processes, each taking a contiguous slice of the seeds;
results are merged after completion, so parallel output is byte-identical
to serial output.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import math
from pathlib import Path
from typing import Callable, Sequence, get_type_hints

import numpy as np
# np.median's NaN check imports numpy.ma on its first call (summarize);
# loaded with the package, a run does not pay it mid-run.
import numpy.ma  # noqa: F401

from saew.baselines import rda_init, rda_predict, rda_step
from saew.calibration import run_calibration
from saew.core import (
    BASE_COLUMNS,
    Environment,
    RunRecord,
    config_hash,
    write_table,
)
from saew.engine import WrapperBank
# Unused here; benchmarks/tracer.py wraps these names in this module.
from saew.engine import saew_estimators, saew_init, saew_step  # noqa: F401
from saew.losses import (
    make_quantile_env,
    make_square_env,
    make_truncated_square_env,
    pinball_subgrad,
    square_grad,
    true_excess_risk,
)
from saew.subroutine import EGBank

ENVIRONMENTS = ("square", "truncated_square", "quantile")
ALGORITHMS = ("saew", "eg", "rda", "calibrate")

TRACE_COLUMNS = ("err_t", "a_prime", "b_prime", "l2_bound")
CALIBRATION_COLUMNS = ("j", "grid_size", "best_candidate", "meta_risk",
                       "best_risk")

_TINY = 1e-300  # floor before taking logs of error norms


class ConfigError(ValueError):
    """An invalid experiment configuration; ``key`` names the bad field."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


# ============================================================
# Experiment configuration
# ============================================================

@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an environment, an algorithm, a horizon, and seeds.

    Serialized as a flat INI file with a single ``[experiment]`` section;
    the round trip through :meth:`to_ini` / :meth:`from_ini` is lossless.

    Attributes:
        env: environment family (``square | truncated_square | quantile``).
        d: covariate dimension (quantile runs prepend an intercept, so
            parameter vectors have ``d + 1`` entries there).
        d0: number of nonzero coordinates of the environment's true
            parameter.
        noise_sd: response noise standard deviation.
        algorithm: ``saew | eg | rda | calibrate``.
        T: horizon (number of stream samples), >= 1.
        seeds: nonempty tuple of distinct nonnegative master seeds, one
            run each.
        outdir: output directory; all files are written under it.
        trace_bounds: append per-step bound columns to wrapper run CSVs.
        alpha_q: quantile level (quantile environment only).
        x_bound: covariate sup-norm bound (truncated environment only).
        noise_bound_sds: noise truncation in standard deviations
            (truncated environment only).
        saew_d0: wrapper sparsity target; ``-1`` derives it from the
            environment (``d0``, plus one for the quantile intercept).
        alpha: strong-convexity constant assumed by the wrapper.
        U: l1-radius of the initial ball (wrapper and subroutine runs).
        B: gradient sup-norm bound declared to the optimizer.
        delta: confidence level for the wrapper / calibration.
        rda_gamma: dual-averaging step-size scale, > 0.
        rda_rho: sparsity-enhancing threshold scale, >= 0.
        rda_lambda: fixed l1 penalty, >= 0.
        mc_risk: quantile runs only — estimate risks by paired Monte
            Carlo on the seeded holdout (columns gain a real standard
            error) instead of the Gaussian closed form.
        cal_Y: response clipping bound for calibration runs.
        cal_budget: calibration compute budget in candidate-steps.
        cal_clamp_lo / cal_clamp_hi: optional grid exponent clamp; set
            both or neither.
    """

    env: str
    d: int
    d0: int
    noise_sd: float
    algorithm: str
    T: int
    seeds: tuple[int, ...]
    outdir: str
    trace_bounds: bool = False
    alpha_q: float = 0.8
    x_bound: float = 2.0
    noise_bound_sds: float = 3.0
    saew_d0: int = -1
    alpha: float = 1.0
    U: float = 1.0
    B: float = 1.0
    delta: float = 0.05
    rda_gamma: float = 1.0
    rda_rho: float = 0.0
    rda_lambda: float = 0.0
    mc_risk: bool = False
    cal_Y: float = 1.0
    cal_budget: int = 50_000_000
    cal_clamp_lo: int | None = None
    cal_clamp_hi: int | None = None

    def __post_init__(self) -> None:
        # Float fields hold floats, as from_ini reads them back, so a
        # config hashes as its config.ini does.
        for field in dataclasses.fields(self):
            if field.type == "float":  # annotations are strings here
                object.__setattr__(self, field.name,
                                   float(getattr(self, field.name)))

    # ---- validation ----------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ConfigError` naming the first offending field."""
        if self.env not in ENVIRONMENTS:
            raise ConfigError("env", f"must be one of {ENVIRONMENTS}, "
                                     f"got {self.env!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError("algorithm", f"must be one of {ALGORITHMS}, "
                                           f"got {self.algorithm!r}")
        if self.d < 1:
            raise ConfigError("d", f"must be >= 1, got {self.d}")
        if not (1 <= self.d0 <= self.d):
            raise ConfigError("d0", f"must satisfy 1 <= d0 <= d, "
                                    f"got {self.d0}")
        if not (0.0 <= self.noise_sd < math.inf):
            raise ConfigError("noise_sd", f"must be finite and >= 0, "
                                          f"got {self.noise_sd}")
        if self.T < 1:
            raise ConfigError("T", f"must be >= 1, got {self.T}")
        if not self.seeds:
            raise ConfigError("seeds", "must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds", f"must not repeat a seed, "
                                       f"got {list(self.seeds)}")
        if min(self.seeds) < 0:
            raise ConfigError("seeds", f"must be nonnegative, "
                                       f"got {list(self.seeds)}")
        if not self.outdir:
            raise ConfigError("outdir", "must be nonempty")
        if not (0.0 < self.alpha_q < 1.0):
            raise ConfigError("alpha_q", f"must lie in (0, 1), "
                                         f"got {self.alpha_q}")
        if not (0.0 < self.x_bound < math.inf):
            raise ConfigError("x_bound", f"must be finite and > 0, "
                                         f"got {self.x_bound}")
        if not (0.0 < self.noise_bound_sds < math.inf):
            raise ConfigError("noise_bound_sds", f"must be finite and > 0, "
                                                 f"got {self.noise_bound_sds}")
        if self.saew_d0 < -1:
            raise ConfigError("saew_d0", f"must be -1 (auto) or >= 0, "
                                         f"got {self.saew_d0}")
        dimension = self.d + 1 if self.env == "quantile" else self.d
        if self.algorithm == "saew" and self.saew_d0 > dimension:
            raise ConfigError("saew_d0", f"must be <= the wrapper's dimension"
                                         f" {dimension}, got {self.saew_d0}")
        for key in ("alpha", "U", "B", "cal_Y"):
            value = getattr(self, key)
            if not (0.0 < value < math.inf):
                raise ConfigError(key, f"must be finite and > 0, "
                                       f"got {value}")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError("delta", f"must lie in (0, 1), "
                                       f"got {self.delta}")
        if self.algorithm == "rda":
            if not (0.0 < self.rda_gamma < math.inf):
                raise ConfigError("rda_gamma", f"must be finite and > 0, "
                                               f"got {self.rda_gamma}")
            for key in ("rda_rho", "rda_lambda"):
                value = getattr(self, key)
                if not (0.0 <= value < math.inf):
                    raise ConfigError(key, f"must be finite and >= 0, "
                                           f"got {value}")
        if self.mc_risk and self.env != "quantile":
            raise ConfigError("mc_risk",
                              "only quantile runs use Monte-Carlo risks")
        if self.cal_budget < 1:
            raise ConfigError("cal_budget",
                              f"must be >= 1, got {self.cal_budget}")
        if (self.cal_clamp_lo is None) != (self.cal_clamp_hi is None):
            raise ConfigError("cal_clamp_lo",
                              "set both clamp bounds or neither")
        if (self.cal_clamp_lo is not None
                and self.cal_clamp_lo > self.cal_clamp_hi):
            raise ConfigError("cal_clamp_lo",
                              f"must be <= cal_clamp_hi, got "
                              f"({self.cal_clamp_lo}, {self.cal_clamp_hi})")
        if self.algorithm == "calibrate" and self.env == "quantile":
            raise ConfigError("algorithm",
                              "calibrate requires a square-loss environment")

    # ---- derived values --------------------------------------------------

    @property
    def cal_clamp(self) -> tuple[int, int] | None:
        if self.cal_clamp_lo is None:
            return None
        return (self.cal_clamp_lo, self.cal_clamp_hi)

    def wrapper_d0(self) -> int:
        """The sparsity target handed to the wrapper.

        ``-1`` resolves to the environment's own sparsity — ``d0`` plus
        one for the quantile intercept coordinate (nonzero whenever the
        noise quantile is).
        """
        if self.saew_d0 >= 0:
            return self.saew_d0
        return self.d0 + 1 if self.env == "quantile" else self.d0

    def as_mapping(self) -> dict:
        """Plain dict of all fields (hashing / metadata)."""
        out = dataclasses.asdict(self)
        out["seeds"] = list(self.seeds)
        return out

    # ---- INI round trip --------------------------------------------------

    def to_ini(self, path: str | Path) -> None:
        """Write the config as a one-section flat INI file."""
        parser = configparser.ConfigParser()
        parser.optionxform = str  # preserve key case (T vs t, U, B, cal_Y)
        section: dict[str, str] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name == "seeds":
                section[field.name] = ",".join(str(s) for s in value)
            elif value is None:
                section[field.name] = ""
            elif isinstance(value, bool):
                section[field.name] = "true" if value else "false"
            else:
                section[field.name] = str(value)  # str(float) round-trips
        parser["experiment"] = section
        with open(path, "w") as fh:
            parser.write(fh)

    @classmethod
    def from_ini(cls, path: str | Path) -> "ExperimentConfig":
        """Parse and validate a config file written by :meth:`to_ini`.

        Raises:
            ConfigError: unknown key, unparseable value, or missing
                required key — the message names the offending key.
            OSError: unreadable file.
        """
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive
        text = Path(path).read_text()
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError("file", f"not valid INI: {exc}") from exc
        if not parser.has_section("experiment"):
            raise ConfigError("experiment", "missing [experiment] section")
        raw = dict(parser["experiment"])

        fields = {f.name: f for f in dataclasses.fields(cls)}
        kinds = get_type_hints(cls)
        for key in raw:
            if key not in fields:
                raise ConfigError(key, "unknown config key")
        kwargs: dict = {}
        for name, field in fields.items():
            if name not in raw:
                if field.default is dataclasses.MISSING:
                    raise ConfigError(name, "required key is missing")
                continue
            kwargs[name] = _parse_field(name, kinds[name], raw[name].strip())
        config = cls(**kwargs)
        config.validate()
        return config


def _parse_field(name: str, kind: type, text: str):
    """Parse one INI value as the field type ``kind``, or raise ConfigError."""
    try:
        if kind == tuple[int, ...]:
            return tuple(int(s) for s in text.split(",") if s.strip())
        if kind == (int | None):
            return None if text == "" else int(text)
        if kind is bool:
            lowered = text.lower()
            if lowered not in ("true", "false"):
                raise ValueError(f"expected true/false, got {text!r}")
            return lowered == "true"
        return kind(text)  # int, float or str
    except ValueError as exc:
        raise ConfigError(name, f"cannot parse value {text!r}: {exc}") from exc


# ============================================================
# Environment and oracle construction
# ============================================================

def build_environment(config: ExperimentConfig, seed: int) -> Environment:
    """Instantiate the configured environment for one master seed."""
    if config.env == "square":
        return make_square_env(config.d, config.d0, config.noise_sd, seed)
    if config.env == "truncated_square":
        return make_truncated_square_env(
            config.d, config.d0, config.noise_sd, seed,
            x_bound=config.x_bound, noise_bound_sds=config.noise_bound_sds)
    return make_quantile_env(config.d, config.d0, config.alpha_q,
                             config.noise_sd, seed)


def _gradient_fn(env: Environment
                 ) -> Callable[[np.ndarray, np.ndarray, np.ndarray],
                               np.ndarray]:
    """The loss gradient ``(theta, x, y) -> g``, row-wise on stacks."""
    if env.loss == "square":
        return square_grad
    alpha_q = float(env.config["alpha_q"])
    return lambda theta, x, y: pinball_subgrad(theta, x, y, alpha_q)


class _BlockScorer:
    """Scores a run's estimates a block of steps at a time.

    A block is a ``(steps, 2, d)`` stack of each step's theta_hat and
    theta_tilde, in the order the metrics read them.  One risk call per
    block scores the whole stack.  The Monte-Carlo oracle is costly, so
    there each distinct vector is scored once, with a standard error only
    where a theta_tilde (or a kept vector, below) needs one.  The last two
    distinct vectors of the earlier blocks are kept with their scores, so
    a theta_tilde unchanged across a block boundary is not scored again.
    """

    def __init__(self, env: Environment, mc_risk: bool):
        self.env = env
        self.mc_risk = mc_risk
        self.cum = 0.0
        self.kept = np.empty((0, env.dimension))
        self.kept_risk = np.empty(0)
        self.kept_se = np.empty(0)

    def score(self, block: np.ndarray) -> np.ndarray:
        """Return the block's ``(steps, 5)`` columns ``l2_error, risk_hat,
        risk_tilde, cum_risk, risk_se``."""
        steps, _, d = block.shape
        stack = block.reshape(2 * steps, d)
        if self.mc_risk:
            risk, se = self._monte_carlo(stack)
        else:
            risk, se = self.env.excess_risk_exact(stack), np.zeros(2 * steps)
        risk_hat, risk_tilde = risk[0::2], risk[1::2]
        diff = block[:, 1] - self.env.theta_star_metrics
        # True excess risk is nonnegative; a Monte-Carlo estimate can dip
        # below zero, so only the nonnegative part accumulates.  The
        # accumulation is sequential, seeded with the previous blocks' sum.
        cum = np.add.accumulate(
            np.concatenate(([self.cum], np.maximum(risk_hat, 0.0))))[1:]
        self.cum = float(cum[-1])
        return np.column_stack((np.sqrt(np.vecdot(diff, diff)), risk_hat,
                                risk_tilde, cum, se[1::2]))

    def _monte_carlo(self, stack: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Risk and standard error of each row, each distinct row scored
        once; a row kept from earlier blocks keeps its score."""
        kept = len(self.kept)
        seq = np.concatenate((self.kept, stack))
        # Adding 0.0 turns -0.0 into 0.0, so rows with equal values share a
        # key.  first[i] is the position of row i's first appearance.
        keys = (seq + 0.0).view(np.dtype((np.void, seq[0].nbytes))).ravel()
        seen: dict[bytes, int] = {}
        first = np.array([seen.setdefault(key, i)
                          for i, key in enumerate(keys.tolist())])
        new = first == np.arange(len(seq))
        new[:kept] = False
        # The last two distinct vectors, in the order last scored, carry
        # over to the next block with their scores.
        last = first[-1]
        earlier = first[first != last]
        keep = [earlier[-1], last] if earlier.size else [last]
        want_se = np.zeros(len(seq), bool)
        want_se[first[kept + 1::2]] = True
        want_se[keep] = True
        risk, se = np.empty(len(seq)), np.empty(len(seq))
        risk[:kept], se[:kept] = self.kept_risk, self.kept_se
        if new.any():
            est = true_excess_risk(seq[new], self.env, se_rows=want_se[new])
            risk[new], se[new] = est.value, est.se
        self.kept = seq[keep]
        self.kept_risk, self.kept_se = risk[keep], se[keep]
        return risk[first[kept:]], se[first[kept:]]


# ============================================================
# Runs
# ============================================================

# Steps between scorings, and stream rows drawn at a time.
_BLOCK = 256


def run_one_seed(config: ExperimentConfig, seed: int) -> RunRecord:
    """Run the configured algorithm once and return its per-step record.

    The one-seed call of the loop that :func:`run_experiment` runs on
    many seeds at once.  Pure apart from RNG seeded by ``seed``; no files
    are touched.
    """
    return _run_seeds(config, (seed,))[0]


def _run_seeds(config: ExperimentConfig,
               seeds: Sequence[int]) -> list[RunRecord]:
    """Run the configured algorithm once per seed; one record per seed.

    The seeds' learners are the rows of one state, and one per-step loop
    steps them all.  Rows share no data, so each record has the bits of a
    run of its seed alone.  The loop only records the estimates; a block
    of steps at a time, the samples are drawn and the estimates scored.

    Raises:
        ValueError: a non-finite gradient (the message names the seed and
            the step).
    """
    envs = [build_environment(config, seed) for seed in seeds]
    T, d = config.T, envs[0].dimension
    blocks = zip(*(env.blocks(T, _BLOCK) for env in envs))
    grad = _gradient_fn(envs[0])
    step = _learner(config, seeds, d)
    scorers = [_BlockScorer(env, config.mc_risk) for env in envs]

    columns: tuple[str, ...] = BASE_COLUMNS
    if envs[0].loss == "pinball":
        columns = columns + ("risk_se",)
    if config.algorithm == "saew" and config.trace_bounds:
        columns = columns + TRACE_COLUMNS
    # Columns filled from the learner's extras, then from the scorer.
    extra_columns = [columns.index(name) for name in
                     ("epsilon", "session") + TRACE_COLUMNS if name in columns]
    metric_columns = [columns.index(name) for name in
                      ("l2_error", "risk_hat", "risk_tilde", "cum_risk",
                       "risk_se") if name in columns]

    rows = np.zeros((len(seeds), T, len(columns)))
    rows[:, :, 0] = np.arange(1.0, T + 1.0)
    thetas = np.empty((len(seeds), min(T, _BLOCK), 2, d))
    start = 0
    for parts in blocks:
        # (steps, seeds, d) and (steps, seeds): each step's samples are
        # contiguous rows.
        xs, ys = (np.stack(arrays, axis=1) for arrays in zip(*parts))
        for j, (x, y) in enumerate(zip(xs, ys)):
            theta_hat, theta_tilde, extra = step(
                start + j + 1, lambda theta: grad(theta, x, y))
            thetas[:, j, 0] = theta_hat
            thetas[:, j, 1] = theta_tilde
            for column, values in zip(extra_columns, extra):
                rows[:, start + j, column] = values
        stop = start + len(xs)
        for record_rows, scorer, block in zip(rows, scorers, thetas):
            record_rows[start:stop, metric_columns] = scorer.score(
                block[:len(xs)])[:, :len(metric_columns)]
        start = stop
    hash_ = config_hash(config.as_mapping())
    records = []
    for seed, record_rows in zip(seeds, rows):
        record = RunRecord(columns=columns, rows=record_rows, seed=seed,
                           config_hash=hash_)
        record.validate()
        records.append(record)
    return records


def _learner(config: ExperimentConfig, seeds: Sequence[int],
             d: int) -> Callable:
    """One step of the configured algorithm, one learner per seed as the
    rows of one fresh state.

    ``step(t, oracle)`` predicts the ``(S, d)`` ``theta_hat``, feeds it the
    oracle's gradient rows there, and returns ``(theta_hat, theta_tilde,
    extra)``, with ``extra`` the rows' ``epsilon`` and ``session`` and any
    trace columns (empty where they are all zero).
    """
    labels = [f"seed {seed}" for seed in seeds]
    if config.algorithm == "saew":
        n, d0 = len(seeds), config.wrapper_d0()
        bank = WrapperBank(np.full(n, d0), np.full(n, config.alpha),
                           np.full(n, config.U), np.full(n, config.B),
                           config.delta, d, labels)
        l2_scale = 2.0 * math.sqrt(2.0 * max(d0, 1))

        def step(t, oracle):
            theta_hat = bank.prediction
            bank.step(oracle(theta_hat))
            extra = (bank.eps, bank.session)
            if config.trace_bounds:
                extra += (bank.err, bank.a_prime, bank.b_prime,
                          bank.eps / l2_scale)
            return theta_hat, bank.theta_tilde, extra
        return step

    if config.algorithm == "eg":
        eg = EGBank(np.zeros((len(seeds), d)), [config.U] * len(seeds),
                    [config.B] * len(seeds), labels)
        average = np.zeros((len(seeds), d))

        def step(t, oracle):
            nonlocal average
            theta_hat = eg.prediction
            eg.update(oracle(theta_hat))
            average += (theta_hat - average) / t
            return theta_hat, average, ()
        return step

    if config.algorithm == "rda":
        rda = rda_init(d, config.rda_gamma, rho=config.rda_rho,
                       lam=config.rda_lambda, rows=len(seeds), labels=labels)

        def step(t, oracle):
            theta_hat = rda_predict(rda)
            rda_step(rda, oracle(theta_hat))
            return theta_hat, rda_predict(rda), ()
        return step

    raise ConfigError("algorithm",
                      f"run_one_seed cannot run {config.algorithm!r}")


# ============================================================
# Multi-seed experiments
# ============================================================

def _seed_csv_name(seed: int) -> str:
    return f"run_seed{seed}.csv"


def _contiguous_slices(seeds: Sequence[int],
                       parts: int) -> list[tuple[int, ...]]:
    """``seeds`` cut into ``min(parts, len(seeds))`` contiguous slices
    whose lengths differ by at most one, longer slices first."""
    parts = min(parts, len(seeds))
    size, longer = divmod(len(seeds), parts)
    slices, start = [], 0
    for k in range(parts):
        stop = start + size + (k < longer)
        slices.append(tuple(seeds[start:stop]))
        start = stop
    return slices


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[Path]:
    """Run every seed, write per-seed CSVs plus ``summary.csv``.

    The seeds run as the rows of one loop; with ``workers > 1`` each of
    that many processes runs the loop on a contiguous slice of the seed
    list.  Rows are independent, so the output is identical either way.
    The summary is made from the written CSVs, read back in seed order,
    so it has the bytes ``saew summarize`` writes for them.

    Returns the written file paths (per-seed CSVs, then summary files).

    Raises:
        ConfigError: invalid configuration.
        ValueError: ``workers < 1``, a non-finite gradient, or a run too
            short to summarize (``T = 1``); the outdir is not made.
        OSError: unwritable output directory.
    """
    config.validate()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if config.algorithm == "calibrate":
        return run_calibrate(config)
    # A run too short to summarize fails before any seed runs.
    _slope_window(np.arange(1.0, config.T + 1.0))
    if workers > 1:
        # Imported here: it loads multiprocessing, which a one-process
        # run never uses.
        from concurrent.futures import ProcessPoolExecutor

        slices = _contiguous_slices(config.seeds, workers)
        with ProcessPoolExecutor(max_workers=len(slices)) as pool:
            records = [record for part in pool.map(
                _run_seeds, [config] * len(slices), slices)
                for record in part]
    else:
        records = _run_seeds(config, config.seeds)

    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [outdir / _seed_csv_name(seed) for seed in config.seeds]
    for record, path in zip(records, paths):
        record.to_csv(path)
    del records  # not held twice: the summary reads the CSVs back
    config.to_ini(outdir / "config.ini")
    summary = summarize([RunRecord.from_csv(outdir / _seed_csv_name(seed))
                         for seed in sorted(config.seeds)])
    paths.extend(write_summary(summary, outdir))
    return paths


def run_calibrate(config: ExperimentConfig) -> list[Path]:
    """Run the calibration loop per seed; one per-session CSV per seed.

    Each CSV follows the calibration schema
    ``j,grid_size,best_candidate,meta_risk,best_risk``.

    Raises:
        ConfigError: invalid configuration.
        BudgetExceededError: projected grid work above ``cal_budget``.
        OSError: unwritable output directory.
    """
    config.validate()
    runs = []
    for seed in config.seeds:
        env = build_environment(config, seed)
        runs.append((seed, run_calibration(
            env.draw, T=config.T, d=env.dimension, Y=config.cal_Y,
            delta=config.delta, budget=config.cal_budget,
            exponent_clamp=config.cal_clamp).session_rows))
    # Every seed ran before the outdir is made: a run that fails leaves
    # nothing behind.
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for seed, session_rows in runs:
        path = outdir / f"calibration_seed{seed}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CALIBRATION_COLUMNS)
            # Labels such as "d0=2,alpha=30,U=1,B=8" come out quoted.
            writer.writerows((row.j, row.grid_size, row.best_candidate,
                              format(row.meta_risk, ".12g"),
                              format(row.best_risk, ".12g"))
                             for row in session_rows)
        paths.append(path)
    config.to_ini(outdir / "config.ini")
    return paths


# ============================================================
# Summaries
# ============================================================

@dataclasses.dataclass
class SeedScalars:
    """End-of-run scalars for one seed."""

    seed: int
    final_log_l2: float
    final_cum_risk: float
    slope: float


@dataclasses.dataclass
class Summary:
    """Cross-seed aggregates: per-step quartile curves plus finals.

    ``curves`` maps metric name (``log_l2`` / ``cum_risk``) to a dict of
    aggregate name (``median``, ``q1``, ``q3``, ``mean``) to arrays over
    ``t``.
    """

    t: np.ndarray
    curves: dict[str, dict[str, np.ndarray]]
    finals: list[SeedScalars]


def _slope_window(t: np.ndarray, t_min: float | None = None) -> np.ndarray:
    """The mask of the points ``t >= t_min`` (default ``T/2``) a slope
    is fitted over.

    Raises:
        ValueError: fewer than two points in the window.
    """
    if t_min is None:
        t_min = float(t[-1]) / 2.0
    mask = t >= t_min
    if int(mask.sum()) < 2:
        raise ValueError(f"T={t[-1]:g}: need at least two points to fit a "
                         f"slope, {int(mask.sum())} at t >= {t_min:g}")
    return mask


def loglog_slope(t: np.ndarray, values: np.ndarray,
                 t_min: float | None = None) -> float:
    """OLS slope of ``log(values)`` against ``log(t)``.

    Fits over ``t >= t_min`` (default: the second half, ``t >= T/2``).
    Values are floored at a tiny positive number before the log.

    Raises:
        ValueError: fewer than two points in the fit window.
    """
    t = np.asarray(t, float)
    values = np.asarray(values, float)
    mask = _slope_window(t, t_min)
    log_t = np.log(t[mask])
    log_v = np.log(np.maximum(values[mask], _TINY))
    slope, _ = np.polyfit(log_t, log_v, 1)
    return float(slope)


def summarize(records: Sequence[RunRecord]) -> Summary:
    """Aggregate per-step metrics across seeds.

    Emits per-``t`` median, quartiles, and mean of the log l2 error and
    of the cumulative excess risk, plus per-seed end-of-run scalars
    (final log l2 error, final cumulative risk, and the fitted log-log
    slope of the l2 error over the second half of the run).

    Raises:
        ValueError: no records, or records with mismatched schemas.
    """
    if not records:
        raise ValueError("summarize needs at least one run record")
    first = records[0]
    for record in records[1:]:
        if (record.columns, len(record.rows)) != (first.columns,
                                                  len(first.rows)):
            raise ValueError("schema mismatch: run records have different "
                             f"columns or lengths ({record.columns}, "
                             f"T={len(record.rows)} vs {first.columns}, "
                             f"T={len(first.rows)})")

    t = first.column("t")
    l2 = np.array([r.column("l2_error") for r in records])
    cum = np.array([r.column("cum_risk") for r in records])
    # Scalar math.log: np.log may differ from it in the last bit.
    floored = np.maximum(l2, _TINY).ravel().tolist()
    log_l2 = np.fromiter(map(math.log, floored), float,
                         len(floored)).reshape(l2.shape)

    def aggregates(matrix: np.ndarray) -> dict[str, np.ndarray]:
        return {
            "median": np.median(matrix, axis=0),
            "q1": np.percentile(matrix, 25, axis=0),
            "q3": np.percentile(matrix, 75, axis=0),
            "mean": np.mean(matrix, axis=0),
        }

    finals = [SeedScalars(seed=r.seed,
                          final_log_l2=float(log_row[-1]),
                          final_cum_risk=float(cum_row[-1]),
                          slope=loglog_slope(t, l2_row))
              for r, log_row, cum_row, l2_row in zip(records, log_l2, cum, l2)]
    return Summary(t=t,
                   curves={"log_l2": aggregates(log_l2),
                           "cum_risk": aggregates(cum)},
                   finals=finals)


_SUMMARY_AGGS = ("median", "q1", "q3", "mean")


def write_summary(summary: Summary, outdir: str | Path) -> list[Path]:
    """Write ``summary.csv`` (per-t curves) and ``finals.csv`` (scalars)."""
    outdir = Path(outdir)
    header, curves = ["t"], [summary.t]
    for metric in ("log_l2", "cum_risk"):
        for agg in _SUMMARY_AGGS:
            header.append(f"{metric}_{agg}")
            curves.append(summary.curves[metric][agg])
    summary_path = outdir / "summary.csv"
    write_table(summary_path, header, np.column_stack(curves))

    finals_path = outdir / "finals.csv"
    # Python objects, not float64: a seed may not fit a double exactly.
    write_table(finals_path, [f.name for f in dataclasses.fields(SeedScalars)],
                np.array([dataclasses.astuple(s) for s in summary.finals],
                         dtype=object))
    return [summary_path, finals_path]


def _run_csv_paths(outdir: Path) -> tuple[str, list[Path]]:
    """The config hash and the run CSVs, in seed order, of the seeds that
    ``outdir/config.ini`` lists.

    Raises:
        ValueError: no ``config.ini``, a calibration run's ``config.ini``,
            or a listed seed without its CSV.
    """
    ini = outdir / "config.ini"
    if not ini.exists():
        raise ValueError(f"{outdir} has no config.ini; run the experiment "
                         "first")
    config = ExperimentConfig.from_ini(ini)
    if config.algorithm == "calibrate":
        raise ValueError(f"{outdir} holds a calibration run "
                         "(algorithm = calibrate): it has no run CSVs")
    paths = []
    for seed in sorted(config.seeds):
        path = outdir / _seed_csv_name(seed)
        if not path.exists():
            raise ValueError(f"{path} is missing: config.ini lists seed "
                             f"{seed}")
        paths.append(path)
    return config_hash(config.as_mapping()), paths


def _read_run(path: Path, hash_: str) -> RunRecord:
    """The run record at ``path``, checked to be written under ``hash_``."""
    record = RunRecord.from_csv(path)
    if record.config_hash != hash_:
        raise ValueError(f"{path} has config_hash {record.config_hash!r}, "
                         f"config.ini has {hash_!r}")
    return record


def load_run_records(outdir: str | Path) -> list[RunRecord]:
    """Load the run CSVs of the seeds ``outdir/config.ini`` lists, sorted
    by seed; CSVs of other seeds in the directory are not read.

    Raises:
        ValueError: no ``config.ini``, a listed seed's CSV missing, empty
            or written under another config.
    """
    hash_, paths = _run_csv_paths(Path(outdir))
    return [_read_run(path, hash_) for path in paths]


# ============================================================
# Plot scripts
# ============================================================

_GP_HEADER = """\
# Generated by the saew harness; run offline with: gnuplot {name}
set datafile separator ','
set terminal svg size 800,560
set key left bottom
"""


def emit_plots(outdir: str | Path) -> list[Path]:
    """Write gnuplot scripts (plus data files) for the standard figures.

    Three scripts, all referencing files by relative name only:

    * ``plot_l2.gp`` — median log l2 error with quartile band vs log t;
    * ``plot_cum_risk.gp`` — median cumulative excess risk vs t;
    * ``plot_sessions.gp`` — confidence-radius staircase from the
      lowest seed's run: the radius ``eps_t`` and its running minimum
      above the l2 error curve, with one vertical marker at each session
      start ``t_i <= T``.  The sessions of a zero-length cascade start at
      the same ``t_i`` and share one marker.

    Requires ``summary.csv``, ``config.ini`` and the run CSVs of the
    seeds it lists in ``outdir`` (produced by :func:`run_experiment`);
    only the lowest seed's run CSV is read.
    """
    outdir = Path(outdir)
    if not (outdir / "summary.csv").exists():
        if (outdir / "config.ini").exists():
            _run_csv_paths(outdir)  # raises on a calibration run's dir
        raise ValueError(f"{outdir} has no summary.csv; run the experiment "
                         "or `summarize` first")
    hash_, run_paths = _run_csv_paths(outdir)
    record = _read_run(run_paths[0], hash_)
    paths = []

    l2_script = _GP_HEADER.format(name="plot_l2.gp") + (
        "set output 'l2_error.svg'\n"
        "set logscale x\n"
        "set xlabel 't'\n"
        "set ylabel 'log l2 error'\n"
        "plot 'summary.csv' using 1:3:4 skip 1 with filledcurves "
        "fill transparent solid 0.2 title 'quartiles', \\\n"
        "     'summary.csv' using 1:2 skip 1 with lines lw 2 "
        "title 'median log l2 error'\n")
    path = outdir / "plot_l2.gp"
    path.write_text(l2_script)
    paths.append(path)

    risk_script = _GP_HEADER.format(name="plot_cum_risk.gp") + (
        "set output 'cum_risk.svg'\n"
        "set xlabel 't'\n"
        "set ylabel 'cumulative excess risk'\n"
        "plot 'summary.csv' using 1:7:8 skip 1 with filledcurves "
        "fill transparent solid 0.2 title 'quartiles', \\\n"
        "     'summary.csv' using 1:6 skip 1 with lines lw 2 "
        "title 'median cumulative excess risk'\n")
    path = outdir / "plot_cum_risk.gp"
    path.write_text(risk_script)
    paths.append(path)

    paths.extend(_emit_session_plot(outdir, record))
    return paths


def _emit_session_plot(outdir: Path, record: RunRecord) -> list[Path]:
    """Staircase data + script for one run's session radii."""
    t, eps = record.column("t"), record.column("epsilon")
    data_path = outdir / "sessions.dat"
    write_table(data_path, ("t", "l2_error", "epsilon", "eps_min"),
                np.column_stack([t, record.column("l2_error"), eps,
                                 np.minimum.accumulate(eps)]))
    # The session column changes on the step that closes a session; the
    # next session starts one step later.
    closes = t[np.diff(record.column("session"), prepend=0.0) != 0]
    session_starts = [int(t_i) for t_i in closes + 1 if t_i <= len(t)]

    script = _GP_HEADER.format(name="plot_sessions.gp") + (
        "set output 'sessions.svg'\n"
        "set logscale xy\n"
        "set xlabel 't'\n"
        "set ylabel 'radius / error'\n")
    for t_i in session_starts:
        script += (f"set arrow from {t_i}, graph 0 to {t_i}, graph 1 "
                   "nohead dt 2\n")
    script += (
        "plot 'sessions.dat' using 1:3 skip 1 with steps "
        "title 'confidence radius', \\\n"
        "     'sessions.dat' using 1:4 skip 1 with lines "
        "title 'running minimum radius', \\\n"
        "     'sessions.dat' using 1:2 skip 1 with lines "
        "title 'l2 error'\n")
    script_path = outdir / "plot_sessions.gp"
    script_path.write_text(script)
    return [data_path, script_path]

"""Per-layer tracing of saew from outside the package.

:class:`Tracer` replaces public functions at the module attributes their
callers look them up through (``saew.harness.saew_step``,
``saew.engine.a_prime``, ``EGState.predict`` on the class, ...) with
wrappers that record one span per call: name, start, end and parent span,
kept in flat in-memory arrays and written out once at the end.  A span's
self time is its duration minus the durations of its children, which
cover disjoint parts of it because everything runs on one thread.
:meth:`Tracer.restore` puts every original back.

Counters that the program does not expose (gradients over ``B``, useful
risk calls, bytes a risk call touches, calibration candidate-steps) are
computed here from the spans and from the arguments and results seen at
the same boundaries.  They run as hooks after a span closes; their time is
measured and taken out of every span that encloses it, so it shows as
``trace.hook_s`` (part of the tracing overhead), not as program time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# Per-layer metrics of one traced rep: (name, unit).  Every span group
# has a self_s metric, so the self times plus trace.unattributed_s add up
# to trace.run_s.
PER_LAYER = (
    ("subroutine.predict.calls", "count"),
    ("subroutine.predict.self_s", "s"),
    ("subroutine.predict.per_step", "calls/step"),
    ("subroutine.update.calls", "count"),
    ("subroutine.update.self_s", "s"),
    ("engine.step.calls", "count"),
    ("engine.step.self_s", "s"),
    ("engine.step.p50_us", "us"),
    ("engine.step.p99_us", "us"),
    ("engine.session_close.calls", "count"),
    ("engine.session_close.self_s", "s"),
    ("engine.init.calls", "count"),
    ("engine.init.self_s", "s"),
    ("engine.estimators.calls", "count"),
    ("engine.estimators.self_s", "s"),
    ("engine.grad_over_B", "count"),
    ("bounds.calls", "count"),
    ("bounds.self_s", "s"),
    ("losses.grad.calls", "count"),
    ("losses.grad.self_s", "s"),
    ("losses.risk.calls", "count"),
    ("losses.risk.self_s", "s"),
    ("losses.risk.useful_ratio", "ratio"),
    ("losses.risk.bytes_per_call", "B"),
    ("losses.holdout.self_s", "s"),
    ("losses.draw.self_s", "s"),
    ("calibration.step.calls", "count"),
    ("calibration.step.self_s", "s"),
    ("calibration.boundary_step.self_s", "s"),
    ("calibration.grid.self_s", "s"),
    ("calibration.cand_steps", "count"),
    ("calibration.cost_ratio", "ratio"),
    ("baselines.rda_step.calls", "count"),
    ("baselines.rda_step.self_s", "s"),
    ("baselines.rda_predict.calls", "count"),
    ("baselines.rda_predict.self_s", "s"),
    ("core.to_csv.self_s", "s"),
    ("core.to_csv.bytes", "B"),
    ("core.from_csv.self_s", "s"),
    ("core.from_csv.bytes", "B"),
    ("core.validate.self_s", "s"),
    ("harness.run_one_seed.self_s", "s"),
    ("harness.summarize.self_s", "s"),
    ("harness.write_summary.self_s", "s"),
    ("harness.emit_plots.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.hook_s", "s"),
    ("trace.unattributed_s", "s"),
)
# Span groups, one per self_s metric.  calibration.boundary_step is a view
# of calibration.step spans, not a group of its own.
SELF_GROUPS = tuple(
    name[:-len(".self_s")] for name, _ in PER_LAYER
    if name.endswith(".self_s")
    and not name.startswith(("calibration.boundary_step", "trace.")))

# (module, attribute, span group).  A dotted attribute names a method on
# a class of that module.  Several call sites of one function are wrapped
# separately because each caller imported the name into its own module.
WRAPS = (
    ("saew.subroutine", "EGState.predict", "subroutine.predict"),
    ("saew.subroutine", "EGState.update", "subroutine.update"),
    ("saew.harness", "saew_step", "engine.step"),
    ("saew.calibration", "saew_step", "engine.step"),
    ("saew.engine", "truncate_top", "engine.session_close"),
    ("saew.engine", "eg_init", "engine.eg_init"),
    ("saew.harness", "saew_init", "engine.init"),
    ("saew.calibration", "saew_init", "engine.init"),
    ("saew.harness", "saew_estimators", "engine.estimators"),
    ("saew.calibration", "saew_estimators", "engine.estimators"),
    ("saew.engine", "delta_i", "bounds"),
    ("saew.engine", "a_prime", "bounds"),
    ("saew.engine", "b_prime", "bounds"),
    ("saew.engine", "err_bound", "bounds"),
    ("saew.engine", "radius_bound", "bounds"),
    ("saew.harness", "square_grad", "losses.grad"),
    ("saew.harness", "pinball_subgrad", "losses.grad"),
    ("saew.harness", "true_excess_risk", "losses.risk"),
    ("saew.losses", "_holdout", "losses.holdout"),
    ("saew.calibration", "calibration_step", "calibration.step"),
    ("saew.calibration", "build_grid", "calibration.grid"),
    ("saew.calibration", "grid_cost", "calibration.grid"),
    ("saew.harness", "rda_step", "baselines.rda_step"),
    ("saew.harness", "rda_predict", "baselines.rda_predict"),
    ("saew.core", "RunRecord.to_csv", "core.to_csv"),
    ("saew.core", "RunRecord.from_csv", "core.from_csv"),
    ("saew.core", "RunRecord.validate", "core.validate"),
    ("saew.harness", "run_one_seed", "harness.run_one_seed"),
    ("saew.harness", "summarize", "harness.summarize"),
    ("saew.cli", "summarize", "harness.summarize"),
    ("saew.harness", "write_summary", "harness.write_summary"),
    ("saew.cli", "write_summary", "harness.write_summary"),
    ("saew.cli", "emit_plots", "harness.emit_plots"),
    ("saew.cli", "main", "cli.main"),
)

# Float64 vector passes of holdout length in one Monte-Carlo risk call
# (residuals, losses and their difference, mean and std), on top of two
# passes over the holdout matrix; an estimate from array sizes.
_MC_VECTOR_PASSES = 16


def _file_bytes(path) -> int:
    """Bytes of a run CSV plus its metadata sidecar, if present."""
    path = Path(path)
    total = path.stat().st_size
    meta = path.with_suffix(path.suffix + ".meta.json")
    if meta.exists():
        total += meta.stat().st_size
    return total


class Tracer:
    """Records spans at saew's layer boundaries while installed."""

    def __init__(self) -> None:
        self.groups: list[str] = []
        self.group_id: dict[str, int] = {}
        self.span_group = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.hook_start = array("d")
        self.hook_dur = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.grad_over_B = 0
        self.boundary_spans: list[int] = []
        self.risk_useful = 0
        self.risk_bytes = 0
        self.csv_bytes = {"core.to_csv": 0, "core.from_csv": 0}
        self._risk_parent = -2
        self._risk_calls = 0
        self._risk_last: list[np.ndarray | None] = [None, None]
        self._holdout_size = 0
        # Register every group, also those that may never run.
        for group in SELF_GROUPS + tuple(group for *_, group in WRAPS):
            self._gid(group)

    # ---- span recording -------------------------------------------------

    def _gid(self, group: str) -> int:
        if group not in self.group_id:
            self.group_id[group] = len(self.groups)
            self.groups.append(group)
        return self.group_id[group]

    def wrap(self, fn, group: str, after=None):
        """Return ``fn`` recording a ``group`` span per call.

        ``after(span_index, args, result)`` runs once the span is closed;
        its start and duration are kept so :meth:`metrics` can take it out
        of the enclosing spans.
        """
        gid = self._gid(group)
        groups, parents = self.span_group, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        hook_start, hook_dur = self.hook_start, self.hook_dur

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            groups.append(gid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                h0 = perf_counter()
                after(idx, args, result)
                hook_start.append(h0)
                hook_dur.append(perf_counter() - h0)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # ---- counters computed at the boundaries ---------------------------

    def _after_update(self, idx, args, result) -> None:
        state, gradient = args[0], np.asarray(args[1], float)
        linf = float(np.max(np.abs(gradient)))
        if linf > state.B:
            self.grad_over_B += 1

    def _after_cal_step(self, idx, args, result) -> None:
        state = result[1]
        if state.t == 2 ** state.j:  # this call closed session j - 1
            self.boundary_spans.append(idx)

    def _after_risk(self, idx, args, result, env=None) -> None:
        theta = np.asarray(args[0], float)
        env = args[1] if env is None else env
        # The harness scores theta_hat then theta_tilde each step, so call
        # parity within one run_one_seed span names the estimator.
        parent = self.span_parent[idx]
        if parent != self._risk_parent:
            self._risk_parent, self._risk_calls = parent, 0
            self._risk_last = [None, None]
        which = self._risk_calls % 2
        self._risk_calls += 1
        last = self._risk_last[which]
        if last is None or not np.array_equal(last, theta):
            self.risk_useful += 1
        self._risk_last[which] = theta.copy()
        p = theta.shape[0]
        if env.loss == "square":
            self.risk_bytes += 3 * p * 8
        else:
            n = self._holdout_size
            self.risk_bytes += 2 * n * p * 8 + _MC_VECTOR_PASSES * n * 8

    def _after_write(self, idx, args, result) -> None:
        self.csv_bytes["core.to_csv"] += _file_bytes(args[1])

    def _after_read(self, idx, args, result) -> None:
        self.csv_bytes["core.from_csv"] += _file_bytes(args[1])

    # ---- install / restore ---------------------------------------------

    def install(self) -> None:
        """Wrap every function in :data:`WRAPS` (plus environment hooks)."""
        afters = {
            ("saew.subroutine", "EGState.update"): self._after_update,
            ("saew.calibration", "calibration_step"): self._after_cal_step,
            ("saew.harness", "true_excess_risk"): self._after_risk,
            ("saew.core", "RunRecord.to_csv"): self._after_write,
            ("saew.core", "RunRecord.from_csv"): self._after_read,
        }
        for module_name, path, group in WRAPS:
            after = afters.get((module_name, path))
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(
                    self.wrap(original.__func__, group, after))
            else:
                replacement = self.wrap(original, group, after)
            self._patch(owner, attr, replacement)

        import saew.harness
        import saew.losses
        self._holdout_size = saew.losses._HOLDOUT_SIZE
        self._patch(saew.harness, "build_environment",
                    self._traced_env_builder(saew.harness.build_environment))

    def _traced_env_builder(self, build):
        """Wrap each built environment's stream and exact risk oracle."""

        def build_environment(config, seed):
            env = build(config, seed)
            changes = {"draw": self.wrap(env.draw, "losses.draw")}
            if env.excess_risk_exact is not None:
                exact = env.excess_risk_exact
                changes["excess_risk_exact"] = self.wrap(
                    exact, "losses.risk",
                    lambda idx, args, result: self._after_risk(
                        idx, args, result, env))
            return dataclasses.replace(env, **changes)

        return build_environment

    def restore(self) -> None:
        """Put back every original function, in reverse order."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---- results -------------------------------------------------------

    def save(self, path: Path, run_id: int) -> None:
        """Write the spans (times relative to the first span) to ``path``."""
        starts = np.frombuffer(self.span_start, dtype=np.float64)
        origin = starts[0] if starts.size else 0.0
        np.savez(path,
                 group_names=np.array(self.groups),
                 group=np.frombuffer(self.span_group, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=starts - origin,
                 end=np.frombuffer(self.span_end, dtype=np.float64) - origin,
                 run_id=np.full(starts.size, run_id, dtype=np.int32))

    def metrics(self, run_s: float, projected_cand_steps: int) -> dict:
        """Per-layer metrics of one traced rep (``trace.*`` except
        ``trace.hook_s`` and ``trace.unattributed_s`` come from run.py)."""
        group = np.frombuffer(self.span_group, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        # Durations net of the hooks that ran inside a span (hooks start in
        # time order, so a prefix sum gives each span's share).
        hook_start = np.frombuffer(self.hook_start, dtype=np.float64)
        hook_cum = np.concatenate(
            ([0.0], np.cumsum(np.frombuffer(self.hook_dur, dtype=np.float64))))
        dur = (end - start
               - hook_cum[np.searchsorted(hook_start, end)]
               + hook_cum[np.searchsorted(hook_start, start)])
        self_t = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(self_t, parent[has_parent], dur[has_parent])

        # eg_init opens a session inside a wrapper step and builds a fresh
        # subroutine elsewhere (inside saew_init).  Every group id exists:
        # __init__ registered them all.
        gid = self.group_id
        parent_group = np.where(has_parent, group[np.maximum(parent, 0)], -1)
        eg = group == gid["engine.eg_init"]
        in_step = parent_group == gid["engine.step"]
        truncations = group == gid["engine.session_close"]
        cand_steps = int(((group == gid["engine.step"])
                          & (parent_group == gid["calibration.step"])).sum())
        group = group.copy()
        group[eg & in_step] = gid["engine.session_close"]
        group[eg & ~in_step] = gid["engine.init"]

        def mask(name):
            return group == gid[name]

        out = {}
        for name in ("subroutine.predict", "subroutine.update",
                     "engine.step", "engine.init", "engine.estimators",
                     "bounds", "losses.grad", "losses.risk",
                     "calibration.step", "baselines.rda_step",
                     "baselines.rda_predict"):
            out[f"{name}.calls"] = int(mask(name).sum())
        out["engine.session_close.calls"] = int(truncations.sum())
        for name in SELF_GROUPS:
            out[f"{name}.self_s"] = float(self_t[mask(name)].sum())

        steps = out["engine.step.calls"]
        step_us = dur[mask("engine.step")] * 1e6
        out["engine.step.p50_us"] = (float(np.percentile(step_us, 50))
                                     if steps else 0.0)
        out["engine.step.p99_us"] = (float(np.percentile(step_us, 99))
                                     if steps else 0.0)
        out["subroutine.predict.per_step"] = (
            out["subroutine.predict.calls"] / steps if steps else 0.0)
        out["engine.grad_over_B"] = self.grad_over_B

        risk_calls = out["losses.risk.calls"]
        out["losses.risk.useful_ratio"] = (
            self.risk_useful / risk_calls if risk_calls else 0.0)
        out["losses.risk.bytes_per_call"] = (
            self.risk_bytes / risk_calls if risk_calls else 0.0)

        out["calibration.boundary_step.self_s"] = float(
            dur[self.boundary_spans].sum()) if self.boundary_spans else 0.0
        out["calibration.cand_steps"] = cand_steps
        out["calibration.cost_ratio"] = (
            cand_steps / projected_cand_steps if projected_cand_steps else 0.0)
        out["core.to_csv.bytes"] = self.csv_bytes["core.to_csv"]
        out["core.from_csv.bytes"] = self.csv_bytes["core.from_csv"]
        out["trace.hook_s"] = float(hook_cum[-1])
        out["trace.unattributed_s"] = (run_s - float(self_t.sum())
                                       - out["trace.hook_s"])
        return out

"""Workload definitions for the saew benchmark.

A workload is one entry call into the package (``run_experiment``,
``run_calibrate`` or ``saew.cli.main``) on seeded synthetic streams.  One
*rep* is one such call in a fresh process; a benchmark run makes reps until
its time is up.  Rep 0 is the reference rep: its streams are the same for
every benchmark seed, and its outputs give ``final_risk``, so the quality
guard compares like with like.  Rep ``k >= 1`` of benchmark seed ``n``
draws its environment seeds from ``SeedSequence([n, k])``: the same seed
gives the same inputs and another seed gives other streams.

run.py imports this module too, so it imports nothing from ``saew``
and defers numpy to the one function that needs it.
"""

from __future__ import annotations

import dataclasses

# README wrapper constants shared by both wrapper workloads.
WRAPPER_CONSTANTS = dict(alpha=30.0, U=1.0, B=8.0, delta=0.05)
REFERENCE_REP = 0
# Metric units that are timings: a run reports their median over reps.
# Every other per-layer metric is a count that repeats exactly for a seed.
TIME_UNITS = frozenset({"s", "us"})


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: workload name as given to ``--workload``.
        kind: ``experiment`` (``run_experiment``), ``calibrate``
            (``run_calibrate``) or ``cli`` (``saew run``/``summarize``/
            ``plots``).
        config: ``ExperimentConfig`` fields except ``seeds`` and ``outdir``.
        streams: environment seeds (streams) per rep.
        smoke_T: horizon used by the self-test.
    """

    name: str
    kind: str
    config: dict
    streams: int
    smoke_T: int

    def stream_seeds(self, seed: int, rep: int) -> tuple[int, ...]:
        """Environment seeds of rep ``rep`` under benchmark seed ``seed``."""
        import numpy as np  # run.py stays numpy-free; see there

        entropy = [0] if rep == REFERENCE_REP else [seed, rep]
        state = np.random.SeedSequence(entropy).generate_state(
            self.streams, dtype=np.uint32)
        return tuple(int(s) for s in state)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="saew_square",
        kind="experiment",
        config=dict(env="square", d=200, d0=5, noise_sd=0.1,
                    algorithm="saew", T=10000, **WRAPPER_CONSTANTS),
        streams=2, smoke_T=300),
    Workload(
        name="quantile_mc",
        kind="experiment",
        config=dict(env="quantile", d=20, d0=3, alpha_q=0.8, noise_sd=0.1,
                    algorithm="saew", T=1000, mc_risk=True,
                    **WRAPPER_CONSTANTS),
        streams=1, smoke_T=20),
    Workload(
        name="calibrate_grid",
        kind="calibrate",
        config=dict(env="square", d=10, d0=2, noise_sd=0.1,
                    algorithm="calibrate", T=32, cal_Y=2.0, delta=0.05,
                    cal_clamp_lo=-2, cal_clamp_hi=2),
        streams=1, smoke_T=8),
    Workload(
        name="rda_cli",
        kind="cli",
        config=dict(env="square", d=50, d0=3, noise_sd=0.1,
                    algorithm="rda", T=10000, rda_gamma=10.0),
        streams=4, smoke_T=200),
)}

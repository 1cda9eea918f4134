"""Synthetic problem generation, experiment orchestration, and trace I/O.

An experiment runs one problem kind over many seeds, each seed solved by one
or more solvers from a shared starting point, and aggregates iteration and
wall-time statistics over the converged runs. Per-run histories go to CSV,
the aggregate summary to JSON.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import numbers
import os
import statistics
from dataclasses import dataclass

import numpy as np

from .core import FactorModel, SymmetryPattern, reconstruct
from .solvers import (
    ConvergenceTrace,
    SolverConfig,
    StopReason,
    als3_sym,
    als4_sym,
    initialize,
    pcls3,
    pcls4_case1,
    pcls4_case2,
    pcls4_full,
)

__all__ = [
    "SOLVERS",
    "generate_problem",
    "solve_problem",
    "ExperimentSpec",
    "RunRecord",
    "AggregateStats",
    "RunSummary",
    "run_experiment",
    "write_trace_csv",
    "write_summary_json",
]

# Problem kinds and the solvers that run on them. A kind is named by the
# value of its symmetry pattern; the fsym4 solvers take their one starting
# factor as a bare array.
SOLVERS = {
    "psym3": {"pcls": pcls3, "als": als3_sym},
    "psym4-case1": {"pcls": pcls4_case1},
    "psym4-case2": {"pcls": pcls4_case2},
    "fsym4": {"pcls": pcls4_full, "als": als4_sym},
}


def _pattern(kind: str) -> SymmetryPattern:
    if kind not in SOLVERS:
        raise ValueError(f"unknown problem kind {kind!r} (known: {sorted(SOLVERS)})")
    return SymmetryPattern(kind)


def _solver(kind: str, name: str):
    """The solver function that ``name`` ("pcls" or "als") runs on ``kind``."""
    _pattern(kind)
    if name not in SOLVERS[kind]:
        raise ValueError(f"solver {name!r} is not available for kind {kind!r} "
                         f"(available: {', '.join(SOLVERS[kind])})")
    return SOLVERS[kind][name]


def _check_collinearity(c: float) -> None:
    if not 0.0 <= c < 1.0:
        raise ValueError(f"collinearity must lie in [0, 1), got {c}")


def _draw_factor(rng: np.random.Generator, rows: int, r: int, collinearity: float) -> np.ndarray:
    """Random factor with a tunable shared component across columns.

    collinearity 0 gives i.i.d. standard normal entries. A value c in (0, 1)
    mixes in a constant direction so distinct columns have expected cosine
    similarity c, which is what makes alternating least squares prone to
    long swamp plateaus.
    """
    _check_collinearity(collinearity)
    return np.sqrt(collinearity) + np.sqrt(1.0 - collinearity) * rng.standard_normal((rows, r))


def generate_problem(
    kind: str,
    dims: tuple[int, ...],
    rank: int,
    rng: np.random.Generator,
    collinearity: float = 0.0,
) -> tuple[np.ndarray, FactorModel]:
    """Random tensor of ``kind`` and shape ``dims``, plus its generating model.

    One factor is drawn per entry of ``pattern.factor_rows(dims)``, in that
    order, so the tensor is exactly invariant under the kind's symmetries.
    """
    pattern = _pattern(kind)
    rows = pattern.factor_rows(tuple(dims))
    model = FactorModel(pattern, [_draw_factor(rng, n, rank, collinearity) for n in rows])
    return reconstruct(model), model


def solve_problem(
    kind: str,
    solver: str,
    x: np.ndarray,
    rank: int,
    init: list[np.ndarray],
    cfg: SolverConfig,
) -> tuple[FactorModel, ConvergenceTrace]:
    """Run the named solver on a tensor of the given kind."""
    return _solver(kind, solver)(x, rank, init[0] if kind == "fsym4" else init, cfg)


@dataclass(frozen=True)
class ExperimentSpec:
    """One problem family, a seed range, and the solvers to compare (default:
    all of the kind's). ``max_iters`` and ``tol`` are every run's
    :class:`SolverConfig` limits, with its defaults and checks."""

    kind: str
    dims: tuple[int, ...]
    rank: int
    solvers: tuple[str, ...] | None = None
    n_seeds: int = 10
    base_seed: int = 0
    init: str = "random"  # "random" or "perturbed"
    init_sigma: float = 0.1
    collinearity: float = 0.0
    max_iters: int = SolverConfig.max_iters
    tol: float = SolverConfig.tol
    out_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        _pattern(self.kind).factor_rows(self.dims)
        if self.solvers is None:
            object.__setattr__(self, "solvers", tuple(SOLVERS[self.kind]))
        for name, low in (("rank", 1), ("n_seeds", 1), ("base_seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.init not in ("random", "perturbed"):
            raise ValueError(f"init must be 'random' or 'perturbed', got {self.init!r}")
        _check_collinearity(self.collinearity)
        SolverConfig(self.max_iters, self.tol)
        if not self.init_sigma >= 0.0:
            raise ValueError(f"init_sigma must be >= 0, got {self.init_sigma}")
        for s in self.solvers:
            _solver(self.kind, s)


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one (seed, solver) run."""

    seed_index: int
    solver: str
    iterations: int
    final_residual: float
    wall_time: float
    stop_reason: str
    trace_path: str | None = None


@dataclass(frozen=True)
class AggregateStats:
    """Statistics for one solver over the declared run population.

    population records the censoring rule: "converged" means the means and
    medians cover converged runs only; non-converged runs show up solely in
    the convergence fraction. With zero converged runs the statistics are
    None.
    """

    solver: str
    population: str
    n_runs: int
    n_converged: int
    convergence_fraction: float
    mean_iterations: float | None
    median_iterations: float | None
    mean_wall_time: float | None
    median_wall_time: float | None


@dataclass(frozen=True)
class RunSummary:
    spec: ExperimentSpec
    runs: list[RunRecord]
    aggregates: dict[str, AggregateStats]


def _seed_for(base: int, namespace: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((base, namespace, index)))


def _aggregate(solver: str, records: list[RunRecord]) -> AggregateStats:
    converged = [r for r in records if r.stop_reason == StopReason.CONVERGED.value]
    stats: dict[str, float | None] = {
        "mean_iterations": None,
        "median_iterations": None,
        "mean_wall_time": None,
        "median_wall_time": None,
    }
    if converged:
        its = [r.iterations for r in converged]
        wall = [r.wall_time for r in converged]
        stats = {
            "mean_iterations": statistics.fmean(its),
            "median_iterations": float(statistics.median(its)),
            "mean_wall_time": statistics.fmean(wall),
            "median_wall_time": float(statistics.median(wall)),
        }
    return AggregateStats(
        solver=solver,
        population="converged",
        n_runs=len(records),
        n_converged=len(converged),
        convergence_fraction=len(converged) / len(records),
        **stats,
    )


def run_experiment(spec: ExperimentSpec) -> RunSummary:
    """Generate, solve, and aggregate one experiment.

    Seeds run one after another. Each gets its own problem instance, one
    shared set of starting factors and one shared redraw seed, all derived
    from ``base_seed``; records come in (seed, solver) order.
    """
    if spec.out_dir:
        os.makedirs(spec.out_dir, exist_ok=True)
    runs = []
    for idx in range(spec.n_seeds):
        x, truth = generate_problem(
            spec.kind, spec.dims, spec.rank, _seed_for(spec.base_seed, 0, idx), spec.collinearity
        )
        shapes = [(n, spec.rank) for n in _pattern(spec.kind).factor_rows(spec.dims)]
        reference = truth if spec.init == "perturbed" else None
        init = initialize(shapes, _seed_for(spec.base_seed, 1, idx), reference, spec.init_sigma)
        redraw_seed = int(np.random.SeedSequence((spec.base_seed, 2, idx)).generate_state(1)[0])
        cfg = SolverConfig(spec.max_iters, spec.tol, redraw_seed)
        for solver in spec.solvers:
            _, trace = solve_problem(
                spec.kind, solver, x, spec.rank, [f.copy() for f in init], cfg
            )
            path = None
            if spec.out_dir:
                path = os.path.join(spec.out_dir, f"trace_{solver}_seed{idx:03d}.csv")
                write_trace_csv(trace, path)
            runs.append(
                RunRecord(
                    seed_index=idx,
                    solver=solver,
                    iterations=trace.iterations,
                    final_residual=trace.final_residual,
                    wall_time=float(sum(trace.elapsed)),
                    stop_reason=trace.stop_reason.value,
                    trace_path=path,
                )
            )

    aggregates = {
        solver: _aggregate(solver, [r for r in runs if r.solver == solver])
        for solver in spec.solvers
    }
    summary = RunSummary(spec=spec, runs=runs, aggregates=aggregates)
    if spec.out_dir:
        write_summary_json(summary, os.path.join(spec.out_dir, "summary.json"))
    return summary


def write_trace_csv(trace: ConvergenceTrace, path: str) -> None:
    """CSV with one row per iteration: iteration, residual_sq, elapsed_s.

    Residuals carry 17 significant digits so parsing them back is bit exact.
    """
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", "residual_sq", "elapsed_s"])
            for i, (res, dt) in enumerate(zip(trace.residuals, trace.elapsed), start=1):
                w.writerow([i, "%.16e" % res, "%.9e" % dt])
    except OSError as exc:
        raise OSError(f"failed to write trace to {path}: {exc}") from exc


def write_summary_json(summary: RunSummary, path: str) -> None:
    """Write the experiment summary (spec, runs, aggregates) as JSON."""
    experiment = dataclasses.asdict(summary.spec)
    del experiment["out_dir"]
    doc = {
        "experiment": experiment,
        "runs": [dataclasses.asdict(r) for r in summary.runs],
        "aggregates": {name: dataclasses.asdict(a) for name, a in summary.aggregates.items()},
    }
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=False)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed to write summary to {path}: {exc}") from exc

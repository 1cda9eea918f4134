"""Command-line interface: generate problems, decompose tensors, run benchmarks.

Exit codes: 0 success (decompose: converged), 2 usage error, 3 decompose hit
the iteration cap, 4 decompose stalled, 1 any other runtime failure. Stdout
carries only machine-readable output paths; progress and diagnostics go to
stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .core import SymmetryPattern
from .harness import (
    SOLVERS,
    ExperimentSpec,
    RunSummary,
    generate_problem,
    run_experiment,
    solve_problem,
    write_trace_csv,
)
from .io import read_model, read_tensor, write_model, write_tensor
from .solvers import SolverConfig, StopReason, initialize

_STOP_EXIT_CODES = {
    StopReason.CONVERGED: 0,
    StopReason.MAX_ITERS: 3,
    StopReason.STALLED: 4,
}

# Diagnostics counting what a solver worked around; decompose reports each
# one that is nonzero.
_WORKAROUND_COUNTS = ("rank_deficient_solves", "redrawn_columns", "clipped_count")

_PRESETS: dict[str, dict] = {
    # Third-order partially symmetric comparison, good starting point.
    "example1": dict(
        kind="psym3", dims=(17, 17, 18), rank=17, init="perturbed",
        init_sigma=0.1, n_seeds=10, collinearity=0.75,
    ),
    # Same tensor family, many random starting points.
    "example2": dict(
        kind="psym3", dims=(17, 17, 18), rank=17, init="random",
        n_seeds=50, collinearity=0.75,
    ),
    # Wall-time scaling sweep over cubical third-order problems with R = I.
    # Square R = I instances want a milder mixing weight: at 0.75 the
    # column-wise solver rarely survives a random start at size >= 30.
    "example3": dict(
        kind="psym3", sizes=(10, 20, 30, 40, 50, 60, 70, 80, 90),
        init="random", n_seeds=5, collinearity=0.5,
    ),
    # Fourth-order fully symmetric, where the baseline tends to swamp.
    "example4": dict(
        kind="fsym4", dims=(10, 10, 10, 10), rank=10, init="perturbed",
        init_sigma=0.1, n_seeds=10, collinearity=0.75,
    ),
    # Larger fully symmetric instance for wall-time comparison.
    "example5": dict(
        kind="fsym4", dims=(15, 15, 15, 15), rank=10, init="perturbed",
        init_sigma=0.1, n_seeds=5, collinearity=0.75,
    ),
}


# Benchmark flags that override a preset's field; unset fields keep ExperimentSpec's defaults.
_PRESET_FLAGS = ("kind", "dims", "rank", "sizes", "n_seeds", "init", "init_sigma", "collinearity")


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {v}")
    return v


def _dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"dimensions must be positive, got {text!r}")
    return dims


def _scale_value(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not v > 0:
        raise argparse.ArgumentTypeError("scale must be positive")
    return v


def _scaled(value: int, scale: float) -> int:
    return max(1, round(value * scale))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symtensor",
        description="Symmetric outer product decomposition of order-3/4 tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random structured tensor")
    gen.add_argument("--kind", required=True, choices=sorted(SOLVERS))
    gen.add_argument("--dims", required=True, type=_dims, help="e.g. 4,4,3")
    gen.add_argument("--rank", required=True, type=_positive_int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--collinearity", type=float, default=0.0,
                     help="shared-direction mixing weight in [0,1)")
    gen.add_argument("--output", required=True, help="tensor file to write")
    gen.add_argument("--emit-model", metavar="PATH",
                     help="also write the generating factor model")
    gen.set_defaults(func=cmd_generate)

    dec = sub.add_parser("decompose", help="decompose a tensor file")
    dec.add_argument("--input", required=True, help="tensor file to read")
    dec.add_argument("--solver", required=True, choices=("als", "pcls"))
    dec.add_argument("--pattern", required=True, choices=sorted(SOLVERS))
    dec.add_argument("--rank", required=True, type=_positive_int)
    dec.add_argument("--tol", type=float, default=SolverConfig.tol)
    dec.add_argument("--max-iters", type=_positive_int, default=SolverConfig.max_iters)
    dec.add_argument("--seed", type=int, default=0)
    dec.add_argument("--init-model", metavar="PATH",
                     help="model file supplying the starting factors")
    dec.add_argument("--init-sigma", type=float, default=0.0,
                     help="noise scale added to --init-model factors")
    dec.add_argument("--output-model", default="model.txt")
    dec.add_argument("--trace", default="trace.csv")
    dec.set_defaults(func=cmd_decompose)

    ben = sub.add_parser("benchmark", help="run a multi-seed solver comparison")
    ben.add_argument("--preset", choices=sorted(_PRESETS))
    ben.add_argument("--kind", choices=sorted(SOLVERS))
    ben.add_argument("--dims", type=_dims)
    ben.add_argument("--rank", type=_positive_int)
    ben.add_argument("--sizes", type=_dims,
                     help="size sweep (cubical dims with rank = size)")
    ben.add_argument("--seeds", dest="n_seeds", metavar="SEEDS", type=_positive_int)
    ben.add_argument("--base-seed", type=int, default=0)
    ben.add_argument("--init", choices=("random", "perturbed"))
    ben.add_argument("--init-sigma", type=float)
    ben.add_argument("--collinearity", type=float)
    ben.add_argument("--tol", type=float, default=SolverConfig.tol)
    ben.add_argument("--max-iters", type=_positive_int, default=SolverConfig.max_iters)
    ben.add_argument("--scale", type=_scale_value, default=1.0,
                     help="shrink (or grow) dims and rank by this factor")
    ben.add_argument("--out-dir", default=None)
    ben.set_defaults(func=cmd_benchmark)
    return parser


def cmd_generate(args) -> int:
    order = SymmetryPattern(args.kind).order
    if len(args.dims) != order:
        print(f"error: kind {args.kind} needs {order} dims, got {args.dims}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    x, model = generate_problem(args.kind, args.dims, args.rank, rng, args.collinearity)
    write_tensor(args.output, x)
    print(args.output)
    if args.emit_model:
        write_model(args.emit_model, model)
        print(args.emit_model)
    return 0


def cmd_decompose(args) -> int:
    if args.solver not in SOLVERS[args.pattern]:
        print(
            f"error: solver {args.solver!r} is not available for pattern "
            f"{args.pattern!r} (available: {', '.join(SOLVERS[args.pattern])})",
            file=sys.stderr,
        )
        return 2
    x = read_tensor(args.input)
    shapes = [(n, args.rank) for n in SymmetryPattern(args.pattern).factor_rows(x.shape)]
    reference = read_model(args.init_model) if args.init_model else None
    init = initialize(shapes, np.random.default_rng(args.seed), reference, args.init_sigma)
    cfg = SolverConfig(max_iters=args.max_iters, tol=args.tol, seed=args.seed)
    model, trace = solve_problem(args.pattern, args.solver, x, args.rank, init, cfg)
    write_model(args.output_model, model)
    write_trace_csv(trace, args.trace)
    print(args.output_model)
    print(args.trace)
    notes = [
        f"{trace.stop_reason.value} after {trace.iterations} iterations",
        f"residual_sq {trace.final_residual:.6e}",
    ]
    diag = trace.diagnostics
    if "scale_guard_iteration" in diag:
        notes.append(f"scale guard at iteration {diag['scale_guard_iteration']}")
    notes += [f"{k} {diag[k]}" for k in _WORKAROUND_COUNTS if diag.get(k)]
    print(f"{args.solver}: " + ", ".join(notes), file=sys.stderr)
    return _STOP_EXIT_CODES[trace.stop_reason]


def _report_aggregates(summary: RunSummary) -> None:
    for name, agg in summary.aggregates.items():
        mean_its = "n/a" if agg.mean_iterations is None else f"{agg.mean_iterations:.1f}"
        mean_wall = "n/a" if agg.mean_wall_time is None else f"{agg.mean_wall_time:.3f}s"
        print(
            f"  {name}: converged {agg.n_converged}/{agg.n_runs}, "
            f"mean iterations {mean_its}, mean wall {mean_wall}",
            file=sys.stderr,
        )


def cmd_benchmark(args) -> int:
    opts = dict(_PRESETS.get(args.preset, {}))
    opts.update((k, getattr(args, k)) for k in _PRESET_FLAGS if getattr(args, k) is not None)
    kind, dims, rank, sizes = (opts.pop(k, None) for k in ("kind", "dims", "rank", "sizes"))
    if kind is None:
        print("error: provide --preset or --kind/--dims/--rank", file=sys.stderr)
        return 2
    cfg = SolverConfig(max_iters=args.max_iters, tol=args.tol)
    out_dir = args.out_dir or f"bench_{args.preset or kind}"
    if sizes is not None:
        if kind != "psym3":
            print("error: --sizes sweeps are defined for kind psym3", file=sys.stderr)
            return 2
        if args.dims is not None or args.rank is not None:
            print("error: a size sweep sets dims and rank from each size; "
                  "drop --dims/--rank", file=sys.stderr)
            return 2
        # Scaling can map distinct sizes onto one; run each size once.
        scaled = dict.fromkeys(_scaled(s, args.scale) for s in sizes)
        jobs = [((n, n, n), n, os.path.join(out_dir, f"size{n:03d}")) for n in scaled]
    elif dims is None or rank is None:
        print("error: provide --dims and --rank (or a preset that sets them)", file=sys.stderr)
        return 2
    else:
        jobs = [(tuple(_scaled(d, args.scale) for d in dims), _scaled(rank, args.scale), out_dir)]
    # Every spec is checked before the first run creates a directory.
    specs = [
        ExperimentSpec(kind=kind, dims=d, rank=r, base_seed=args.base_seed,
                       config=cfg, out_dir=o, **opts)
        for d, r, o in jobs
    ]
    sweep = []
    for spec in specs:
        summary = run_experiment(spec)
        if sizes is not None:
            print(f"size {spec.rank}:", file=sys.stderr)
        _report_aggregates(summary)
        sweep.append({
            "size": spec.rank,
            "summary": os.path.join(spec.out_dir, "summary.json"),
            "aggregates": {name: dataclasses.asdict(a) for name, a in summary.aggregates.items()},
        })
    if sizes is None:
        print(os.path.join(out_dir, "summary.json"))
        return 0
    sweep_path = os.path.join(out_dir, "sweep.json")
    with open(sweep_path, "w", encoding="utf-8") as fh:
        json.dump({"kind": kind, "results": sweep}, fh, indent=2)
        fh.write("\n")
    print(sweep_path)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

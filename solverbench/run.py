"""Solver benchmark: pcls against als on three workloads of the paper.

Run from the root of a checkout (the package is imported from ./src):

    python3 solverbench/run.py --workload psym3-ex1 --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
traced round (spans go to .solverbench/traces/). Every run writes its full
result, with the environment block and each solver run, to
.solverbench/results/. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import envinfo

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".solverbench")
SETUP_REPEATS = 5
# A run repeats whole rounds while they fit in --seconds, and makes at least
# this many, so that every call has a repeat to take its fastest time from.
MIN_ROUNDS = 2
# numpy is loaded before the clock starts: its import is most of a fresh
# interpreter's start-up and none of it is the package's.
IMPORT_PROBE = (
    "import time, numpy; t = time.perf_counter(); import symtensor; "
    "print(time.perf_counter() - t)"
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _median(values):
    return float(statistics.median(values))


class Bench:
    def __init__(self, workload, seed, symtensor):
        from problems import MAX_ITERS, TOL, make_problems

        self.w = workload
        self.seed = seed
        self.st = symtensor
        self.cfg = {f: symtensor.SolverConfig(tol=TOL, max_iters=n) for f, n in MAX_ITERS.items()}
        self.problems = make_problems(workload, seed)
        self.inputs: list = []
        self.setup_problems: list[str] = []
        self.io = {"write_s": [], "read_s": [], "bytes": []}

    # -- set-up: package import plus the io round trip of every input --------

    def _import_seconds(self) -> float:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"importing symtensor failed:\n{done.stderr}")
        return float(done.stdout.strip().splitlines()[-1])

    def setup(self) -> float:
        from checks import check_round_trip

        workdir = os.path.join(OUT, "work")
        os.makedirs(workdir, exist_ok=True)
        times = []
        for _ in range(SETUP_REPEATS):
            total = self._import_seconds()
            inputs = []
            for p in self.problems:
                path = os.path.join(workdir, f"{self.w.name}-{p.index}-{os.getpid()}.tns")
                t0 = time.perf_counter()
                self.st.write_tensor(path, p.tensor)
                t1 = time.perf_counter()
                x = self.st.read_tensor(path)
                t2 = time.perf_counter()
                self.io["write_s"].append(t1 - t0)
                self.io["read_s"].append(t2 - t1)
                self.io["bytes"].append(os.path.getsize(path))
                os.remove(path)
                total += t2 - t0
                self.setup_problems += [
                    f"problem {p.index}: {m}" for m in check_round_trip(p.tensor, x, self.w.pattern)
                ]
                inputs.append(x)
            times.append(total)
            self.inputs = inputs
        if self.st.NUMBA_ENABLED:  # compiling the kernels is set-up too
            import numpy as np

            t0 = time.perf_counter()
            self.st._kernels.coordinate_sweep(np.ones(3), np.ones((3, 3)), 1)
            warm = time.perf_counter() - t0
            times = [t + warm for t in times]
        return _median(times)

    # -- solving ---------------------------------------------------------------

    def _solve_one(self, family, solver, p, x, tracer, run_id) -> dict:
        from checks import check_solve

        fn = getattr(self.st.solvers, solver)
        start = [f.copy() for f in p.start]
        init = start if self.w.pattern == "psym3" else start[0]
        cfg = self.cfg[family]
        args = (x, self.w.rank, init, cfg)
        rec = {"problem": p.index, "family": family, "solver": solver, "run": run_id}
        t0 = time.perf_counter()
        try:
            if tracer is None:
                model, trace = fn(*args)
            else:
                model, trace = tracer.call(run_id, "solve:" + solver, fn, *args)
        except Exception as exc:  # any exception is a failed solver run
            rec.update(seconds=time.perf_counter() - t0, failed=True, problems=[repr(exc)])
            return rec
        rec["seconds"] = time.perf_counter() - t0
        try:
            recon = self.st.reconstruct(model) if family == "pcls" else None
            found, own = check_solve(
                x, list(model.factors), list(trace.residuals), trace.stop_reason.value,
                cfg.tol, cfg.max_iters, family, recon, self.w.pattern,
            )
        except ValueError as exc:  # an output the checks cannot read is a failed run
            found, own = [repr(exc)], float("nan")
        rec.update(
            iterations=trace.iterations,
            elapsed_sum=float(sum(trace.elapsed)),
            elapsed=[float(e) for e in trace.elapsed],
            stop=trace.stop_reason.value,
            final_residual=trace.final_residual,
            recomputed_residual=own,
            rank_deficient=int(trace.diagnostics.get("rank_deficient_solves", 0)),
            failed=bool(found),
            problems=found,
        )
        return rec

    def solve_round(self, tracer=None) -> list[dict]:
        recs = []
        for p, x in zip(self.problems, self.inputs):
            for family, solver in zip(("pcls", "als"), self.w.solvers):
                recs.append(self._solve_one(family, solver, p, x, tracer, len(recs)))
        return recs


def _geomean(values) -> float:
    return float(math.exp(statistics.fmean(math.log(v) for v in values)))


def repeat_problems(first: list[dict], again: list[dict], what: str) -> list[str]:
    """A repeated round must take the same trajectories: same iterations, same stop."""
    found = []
    for a, b in zip(first, again):
        if a["failed"] or b["failed"]:
            continue
        if (a["iterations"], a["stop"]) != (b["iterations"], b["stop"]):
            found.append(
                f"{a['solver']} problem {a['problem']}: {what} took {b['iterations']} iterations "
                f"({b['stop']}), the first round {a['iterations']} ({a['stop']})"
            )
    return found


def call_seconds(same: list[dict], fastest: float) -> float:
    """One solver call's time from its repeats, its iterations at ``fastest``.

    The call's time outside its iterations (wall time minus the trace's
    summed per-iteration times: validation, symmetry check, matricizations,
    eigendecomposition set-up and the loop's stopping checks), fastest
    repeat, plus its iterations at the fastest iteration's speed.
    """
    outside = min(r["seconds"] - r["elapsed_sum"] for r in same)
    return outside + same[0]["iterations"] * fastest


def end_to_end(rounds: list[list[dict]]) -> tuple[dict, list[str]]:
    """End-to-end metrics over the solver runs that did not fail.

    On this kind of shared machine identical iterations run 1.2-2x slower for
    seconds to minutes at a time, sometimes for a whole run, and then even
    the fastest iteration of a whole call is slow. Over a run some iteration
    still hits an uncontended moment, so the bounded times take every
    iteration at the speed of the solver's fastest iteration in the run, and
    add each call's measured time outside its iterations (call_seconds).
    *_ms_per_iter is the sum of those over the suite over the suite's
    iterations; *_time_to_tol_s their geometric mean over the runs that
    converged; *_iters the geometric mean of the iterations over the suite (a
    run cut off by its budget counts at the budget). Wall-clock figures are
    kept unbounded: *_solve_s, the sum of each call's fastest repeat, and
    *_wall_ms_per_iter. Iteration counts and stop reasons must repeat exactly
    from round to round.
    """
    found = []
    for later in rounds[1:]:
        found += repeat_problems(rounds[0], later, "a later round")
    metrics = {}
    for family in ("pcls", "als"):
        keep = [k for k, rec in enumerate(rounds[0]) if rec["family"] == family and not rec["failed"]]
        if not keep:
            found.append(f"every {family} run failed")
            continue
        calls = [[rnd[k] for rnd in rounds if not rnd[k]["failed"]] for k in keep]
        fastest = min(min(r["elapsed"]) for same in calls for r in same)
        seconds = [call_seconds(same, fastest) for same in calls]
        iters = [same[0]["iterations"] for same in calls]
        to_tol = [t for t, same in zip(seconds, calls) if same[0]["stop"] == "Converged"]
        if not to_tol:
            found.append(f"no {family} run converged, so it has no time to tolerance")
            continue
        wall = sum(min(r["seconds"] for r in same) for same in calls)
        metrics[f"{family}_iters"] = _geomean(iters)
        metrics[f"{family}_ms_per_iter"] = 1e3 * sum(seconds) / sum(iters)
        metrics[f"{family}_time_to_tol_s"] = _geomean(to_tol)
        metrics[f"{family}_fastest_iter_ms"] = 1e3 * fastest
        metrics[f"{family}_total_iters"] = sum(iters)
        metrics[f"{family}_solve_s"] = wall
        metrics[f"{family}_wall_ms_per_iter"] = 1e3 * wall / sum(iters)
    return metrics, found


def _trace_round(bench, untraced: list[dict], untraced_s: float) -> tuple[dict, list[dict], list[str]]:
    """The round again with spans around every layer call; per-layer metrics.

    The traced round must take the untraced round's trajectories.
    """
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.installed():
        traced = bench.solve_round(tracer)
    overhead = time.perf_counter() - t0 - untraced_s
    layers, found = layer_metrics(tracer, [r for r in traced if not r["failed"]])
    found += repeat_problems(untraced, traced, "the traced round")
    layers["trace.overhead_s"] = overhead
    layers["io.write_tensor_ms"] = 1e3 * _median(bench.io["write_s"])
    layers["io.read_tensor_ms"] = 1e3 * _median(bench.io["read_s"])
    layers["io.tensor_bytes"] = _median(bench.io["bytes"])
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    tracer.write(os.path.join(OUT, "traces", f"{bench.w.name}-seed{bench.seed}.jsonl"))
    return layers, traced, found


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        envinfo.pin_blas_threads()
        import numpy  # noqa: F401  (loads BLAS under the pin)

        envinfo.verify_pin()
    except envinfo.PinError as exc:
        print(f"solverbench: refusing to run: {exc}", file=sys.stderr)
        return 3
    from problems import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"solverbench: unknown workload {args.workload!r} (known: {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        import symtensor
        import symtensor.solvers  # noqa: F401  (the module the tracer rebinds into)
    except ImportError as exc:
        print(f"solverbench: cannot import symtensor from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(symtensor.__file__))) != SRC:
        print(f"solverbench: symtensor came from {symtensor.__file__}, not {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    env = envinfo.environment(symtensor.NUMBA_ENABLED)
    print("environment " + json.dumps(env), flush=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, symtensor)
    setup_s = bench.setup()
    found = list(bench.setup_problems)

    # Whole rounds only: at least MIN_ROUNDS, then more while the next one
    # is expected to end within --seconds. A traced run makes one untraced
    # round and then the traced one.
    rounds, took = [], []
    t_start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        rounds.append(bench.solve_round())
        took.append(time.perf_counter() - r0)
        if args.trace or (
            len(rounds) >= MIN_ROUNDS and time.perf_counter() + took[-1] > t_start + args.seconds
        ):
            break
    if args.trace:
        reported, traced, found_traced = _trace_round(bench, rounds[0], took[0])
        rounds.append(traced)
        found += found_traced
    else:
        metrics, more = end_to_end(rounds)
        found += more
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reported = metrics

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in reported]
    if missing:
        found.append(f"metrics not measured: {missing}")
    runs = [rec for rnd in rounds for rec in rnd]
    result = {
        "correct": not found,
        "attempted": len(runs),
        "failed": sum(rec["failed"] for rec in runs),
        "metrics": {
            m["name"]: {"value": float(reported.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared
        },
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(OUT, "results", name), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "environment": env, "rounds": len(rounds), "round_seconds": took,
                "all_metrics": reported, "check_problems": found,
                "runs": rounds, "result": result,
            },
            fh, indent=1,
        )
    for msg in found + [f"run {r['run']} ({r['solver']}): {p}" for r in runs for p in r["problems"]]:
        print("check: " + msg, file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

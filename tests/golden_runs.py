"""Reproducibility probe: digests of a fixed list of solver and kernel runs.

Not a pytest module. Run it from the root of a checkout, with that
checkout's package on the path:

    PYTHONPATH=src python tests/golden_runs.py write runs.json
    python tests/golden_runs.py compare tests/golden_runs.json runs.json

``write`` runs every case below with BLAS pinned to one thread and saves,
per case, the iteration count, the stop reason, the diagnostics, the final
residual and sha256 digests of the factors, the residual history and (for
als3_sym) the symmetry defects, plus the environment block. A case that
raises records the exception instead. ``compare`` names each case whose
digest, iteration count, stop reason, diagnostics or error changed, with
the count and residual moves, and exits 1 when any did.

Digests depend on the numpy/BLAS build, so a reference file only compares
with runs from the same environment: it is a tool for checking that a
change keeps every value, not a test gate. tests/golden_runs.json is the
reference for the current tree.

The cases: the benchmark's problems at seeds 1 and 2 at the benchmark's
iteration budgets; every ``SOLVERS`` solver plus als3 from random and
perturbed starts on small problems of each kind; starting factors scaled far
below the normal range; and the scalar kernels and the pcls4_full set-up on
random inputs.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import sys

# The benchmark's workloads and environment block. numpy is imported only
# inside functions, after envinfo.pin_blas_threads() has run.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "solverbench"))

import envinfo  # noqa: E402

SMALL = {  # kind: (dims, rank)
    "psym3": ((6, 6, 5), 3),
    "psym4-case1": ((4, 3, 4, 3), 2),
    "psym4-case2": ((4, 3, 4, 5), 2),
    "fsym4": ((4, 4, 4, 4), 3),
}
SMALL_SEEDS = (0, 1, 2)
SMALL_MAX_ITERS = 300
# (solver, kind, dims, rank, scale): truth factors times ``scale`` as the start.
EDGE_STARTS = (
    ("pcls3", "psym3", (6, 6, 5), 3, 1e-120),
    ("pcls3", "psym3", (6, 6, 5), 3, 1e-150),
    ("als3", "psym3", (6, 6, 5), 3, 1e-160),
    ("als3_sym", "psym3", (6, 6, 5), 3, 1e-160),
    ("pcls4_case1", "psym4-case1", (4, 3, 4, 3), 2, 1e-70),
    ("pcls4_case2", "psym4-case2", (4, 3, 4, 5), 2, 1e-70),
    ("pcls4_full", "fsym4", (5, 5, 5, 5), 2, 1e-160),
)
EDGE_MAX_ITERS = 200


def _digest(arrays) -> str:
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _init(solver: str, factors: list):
    """A model's distinct factors as ``solver`` takes its starting point."""
    if solver == "als3":
        return [factors[0], factors[0].copy(), factors[1]]
    return factors[0] if len(factors) == 1 else factors


def _solve(st, solver, x, rank, init, max_iters, tol=1e-10) -> dict:
    import numpy as np

    cfg = st.SolverConfig(max_iters=max_iters, tol=tol)
    try:
        model, trace = getattr(st.solvers, solver)(x, rank, init, cfg)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    out = {
        "iterations": trace.iterations,
        "stop": trace.stop_reason.value,
        "final_residual": trace.final_residual,
        "diagnostics": dict(sorted(trace.diagnostics.items())),
        "factors": _digest(model.factors),
        "residuals": _digest([trace.residuals]),
    }
    if trace.symmetry_defect is not None:
        out["symmetry_defect"] = _digest([trace.symmetry_defect])
    return out


def _benchmark_cases(st):
    from problems import MAX_ITERS, TOL, WORKLOADS, make_problems

    for w in WORKLOADS.values():
        for seed in (1, 2):
            for p in make_problems(w, seed):
                for family, solver in zip(("pcls", "als"), w.solvers):
                    init = _init(solver, [f.copy() for f in p.start])
                    name = f"bench/{w.name}/seed{seed}/problem{p.index}/{solver}"
                    yield name, _solve(st, solver, p.tensor, w.rank, init, MAX_ITERS[family], TOL)


def _small_cases(st):
    import numpy as np

    for kind, (dims, rank) in SMALL.items():
        solvers = [fn.__name__ for fn in st.SOLVERS[kind].values()]
        if kind == "psym3":
            solvers.append("als3")
        for seed in SMALL_SEEDS:
            x, truth = st.generate_problem(kind, dims, rank, np.random.default_rng(seed), 0.5)
            shapes = [f.shape for f in truth.factors]
            for start in ("random", "perturbed"):
                rng = np.random.default_rng(seed + 100)
                ref = truth if start == "perturbed" else None
                init = st.initialize(shapes, rng, ref, 0.1)
                for solver in solvers:
                    name = f"small/{kind}/seed{seed}/{start}/{solver}"
                    yield name, _solve(st, solver, x, rank, _init(solver, init), SMALL_MAX_ITERS)


def _edge_cases(st):
    import numpy as np

    for solver, kind, dims, rank, scale in EDGE_STARTS:
        x, truth = st.generate_problem(kind, dims, rank, np.random.default_rng(3))
        init = _init(solver, [scale * f for f in truth.factors])
        yield f"edge/{solver}/{scale:g}", _solve(st, solver, x, rank, init, EDGE_MAX_ITERS)


def _kernel_cases(st):
    import numpy as np

    from symtensor import _kernels

    rng = np.random.default_rng(71)
    coeffs = rng.standard_normal((2000, 4)) * 10.0 ** rng.uniform(-6, 6, (2000, 1))
    cubic = [_kernels.cubic_roots(*c[1:] / c[0]) for c in coeffs]
    quartic = [_kernels.quartic_min(abs(c[0]) + 1e-3, *c[1:], 0.0) for c in coeffs]
    yield "kernel/cubic_roots", {"values": _digest([cubic])}
    yield "kernel/quartic_min", {"values": _digest([quartic])}
    setup = []
    for n in (3, 6, 10):
        g = rng.standard_normal((n, n))
        e, count, mass = st.solvers._psd_factor(g + g.T, n - 1)
        setup += [e, [count, mass], st.solvers.qr_orthogonal_factor(g[:, : n - 1])]
    yield "kernel/pcls4_full_setup", {"values": _digest(setup)}


def write(path: str) -> None:
    envinfo.pin_blas_threads()
    import symtensor as st

    runs = {}
    for cases in (_kernel_cases, _small_cases, _edge_cases, _benchmark_cases):
        for name, result in cases(st):
            runs[name] = result
            print(name, result.get("stop", result.get("error", "")), file=sys.stderr)
    env = envinfo.environment(getattr(st, "NUMBA_ENABLED", False))
    doc = {"environment": env, "runs": runs}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _changes(old: dict, new: dict) -> list[str]:
    notes = []
    if old.get("error") != new.get("error"):
        notes.append(f"error {old.get('error')!r} -> {new.get('error')!r}")
    if old.get("iterations") != new.get("iterations"):
        notes.append(f"iterations {old.get('iterations')} -> {new.get('iterations')}")
    if old.get("stop") != new.get("stop"):
        notes.append(f"stop {old.get('stop')} -> {new.get('stop')}")
    if old.get("diagnostics") != new.get("diagnostics"):
        notes.append(f"diagnostics {old.get('diagnostics')} -> {new.get('diagnostics')}")
    digests = [k for k in ("factors", "residuals", "symmetry_defect", "values") if old.get(k) != new.get(k)]
    if digests:
        note = "digest of " + ", ".join(digests)
        a, b = old.get("final_residual"), new.get("final_residual")
        if a is not None and b is not None and a != b:
            rel = abs(b - a) / max(abs(a), 1e-300) if math.isfinite(a) else math.inf
            note += f" (final residual {a:.6e} -> {b:.6e}, {rel:.1e} relative)"
        notes.append(note)
    return notes


def compare(old_path: str, new_path: str) -> int:
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    if old["environment"] != new["environment"]:
        print("note: the environment blocks differ; digests may differ for that reason alone")
    names = sorted(set(old["runs"]) | set(new["runs"]))
    changed = 0
    for name in names:
        a, b = old["runs"].get(name), new["runs"].get(name)
        if a is None or b is None:
            notes = ["only in " + (new_path if a is None else old_path)]
        else:
            notes = _changes(a, b)
        if notes:
            changed += 1
            print(f"{name}: " + "; ".join(notes))
    print(f"{changed} of {len(names)} cases changed")
    return 1 if changed else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "write":
        write(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Compare the compiled kernels against the pure-Python fallback.

Runs itself twice as a subprocess, once per backend (SYMTENSOR_NO_NUMBA
selects the fallback), times identical workloads, and checks that both
backends produce the same numbers.

Usage: python3 benchmarks/compare_backends.py
"""
import json
import os
import subprocess
import sys
import time


def bench_workloads():
    import numpy as np

    from symtensor import SolverConfig, _kernels, generate_problem, initialize, InitStrategy, pcls3

    results = {}

    # per-coordinate quartic minimization over one factor column
    rng = np.random.default_rng(0)
    cols = [rng.standard_normal(17) for _ in range(17)]
    ys = [rng.standard_normal((17, 17)) for _ in range(17)]
    _kernels.coordinate_sweep(cols[0].copy(), ys[0], 1)  # compile before timing
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(100):
        for a, y in zip(cols, ys):
            a = a.copy()
            _kernels.coordinate_sweep(a, y, 1)
            acc += a[0]
    results["coordinate_sweep 17x17 x1700"] = {"seconds": time.perf_counter() - t0, "checksum": acc}

    # closed-form quartic minimization in bulk
    coeffs = rng.standard_normal((20000, 4)) * 4.0
    c4s = rng.uniform(0.01, 10.0, size=20000)
    _kernels.quartic_min(1.0, 0.0, 1.0, 1.0, 0.0)
    t0 = time.perf_counter()
    acc = 0.0
    for c4, (c3, c2, c1, c0) in zip(c4s, coeffs):
        x, _ = _kernels.quartic_min(c4, c3, c2, c1, c0)
        acc += x
    results["quartic_min x20000"] = {"seconds": time.perf_counter() - t0, "checksum": acc}

    # full solver run, dominated by the column sweeps at this size
    x, truth = generate_problem("psym3", (17, 17, 18), 17, np.random.default_rng(1), 0.75)
    init = initialize(
        InitStrategy.perturbed_truth(0.1, truth), [(17, 17), (18, 17)], np.random.default_rng(2)
    )
    t0 = time.perf_counter()
    _, trace = pcls3(x, 17, init, SolverConfig(max_iters=20000, tol=1e-10))
    results["pcls3 17x17x18 R17"] = {
        "seconds": time.perf_counter() - t0,
        "iterations": trace.iterations,
        "residual": trace.final_residual,
    }
    return results


def run_worker(no_numba: bool) -> dict:
    env = dict(os.environ)
    if no_numba:
        env["SYMTENSOR_NO_NUMBA"] = "1"
    else:
        env.pop("SYMTENSOR_NO_NUMBA", None)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker"],
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with code {proc.returncode}")
    return json.loads(proc.stdout)


def main() -> int:
    if "--worker" in sys.argv:
        from symtensor import NUMBA_ENABLED

        json.dump({"numba": NUMBA_ENABLED, "results": bench_workloads()}, sys.stdout)
        return 0

    print("running compiled backend ...", file=sys.stderr)
    jit = run_worker(no_numba=False)
    print("running pure-Python fallback ...", file=sys.stderr)
    pure = run_worker(no_numba=True)
    if not jit["numba"]:
        print("note: numba unavailable, both columns use the fallback", file=sys.stderr)
    assert not pure["numba"]

    name_w = max(len(k) for k in jit["results"]) + 2
    print(f"{'workload':<{name_w}}{'compiled':>12}{'fallback':>12}{'speedup':>10}")
    for name, j in jit["results"].items():
        p = pure["results"][name]
        ratio = p["seconds"] / j["seconds"] if j["seconds"] > 0 else float("inf")
        print(f"{name:<{name_w}}{j['seconds']:>11.3f}s{p['seconds']:>11.3f}s{ratio:>9.1f}x")

    solver = "pcls3 17x17x18 R17"
    ja, pa = jit["results"][solver], pure["results"][solver]
    dres = abs(ja["residual"] - pa["residual"])
    same_path = ja["iterations"] == pa["iterations"]
    print(
        f"\nsolver agreement: iterations {ja['iterations']} vs {pa['iterations']}, "
        f"|residual difference| = {dres:.3e}"
    )
    if not same_path or dres > 1e-12 * max(1.0, ja["residual"]):
        print("backends disagree beyond roundoff", file=sys.stderr)
        return 1
    for name in ("coordinate_sweep 17x17 x1700", "quartic_min x20000"):
        dj = jit["results"][name]["checksum"]
        dp = pure["results"][name]["checksum"]
        if abs(dj - dp) > 1e-9 * max(1.0, abs(dj)):
            print(f"checksum mismatch in {name}: {dj} vs {dp}", file=sys.stderr)
            return 1
    print("backends agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())

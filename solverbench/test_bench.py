"""Tests of the benchmark's own checks, tracer and comparison.

Run from the repository root: python3 -m pytest -q solverbench
Each check must accept a real solver output and reject a corrupted copy.
"""
from __future__ import annotations

import dataclasses
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import compare  # noqa: E402
import envinfo  # noqa: E402
import problems  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from symtensor import io, reconstruct, solvers  # noqa: E402

TOL = problems.TOL
CFG = solvers.SolverConfig(tol=TOL)


@pytest.fixture(scope="module")
def psym3_runs():
    rng = np.random.default_rng(5)
    a, c = problems.draw_factor(rng, 5, 3), problems.draw_factor(rng, 6, 3)
    x = problems.outer_sum([a, a, c])
    start = [a + 0.1 * rng.standard_normal(a.shape), c + 0.1 * rng.standard_normal(c.shape)]
    out = {"x": x}
    for family, fn in (("pcls", solvers.pcls3), ("als", solvers.als3_sym)):
        model, trace = fn(x, 3, [f.copy() for f in start], CFG)
        out[family] = (model, trace)
    return out


def _check(x, family, factors, residuals, stop, recon=None):
    found, _ = checks.check_solve(
        x, factors, residuals, stop, TOL, CFG.max_iters, family, recon, "psym3"
    )
    return found


def _real(runs, family):
    model, trace = runs[family]
    recon = reconstruct(model) if family == "pcls" else None
    return list(model.factors), list(trace.residuals), trace.stop_reason.value, recon


@pytest.mark.parametrize("family", ["pcls", "als"])
def test_real_output_passes(psym3_runs, family):
    factors, residuals, stop, recon = _real(psym3_runs, family)
    assert stop == "Converged"
    assert _check(psym3_runs["x"], family, factors, residuals, stop, recon) == []


@pytest.mark.parametrize("family", ["pcls", "als"])
def test_factor_perturbed_after_solve_is_rejected(psym3_runs, family):
    factors, residuals, stop, recon = _real(psym3_runs, family)
    factors = [f.copy() for f in factors]
    factors[0][1, 1] += 1e-6
    found = _check(psym3_runs["x"], family, factors, residuals, stop, recon)
    assert any("recomputed" in p for p in found)


def test_edited_final_residual_is_rejected(psym3_runs):
    factors, residuals, stop, recon = _real(psym3_runs, "pcls")
    residuals[-1] *= 1.001
    assert any("recomputed" in p for p in _check(psym3_runs["x"], "pcls", factors, residuals, stop, recon))


def test_als_trace_with_one_increasing_step_is_rejected(psym3_runs):
    factors, residuals, stop, _ = _real(psym3_runs, "als")
    assert len(residuals) > 3
    residuals[2] = residuals[1] * (1 + 1e-6)
    found = _check(psym3_runs["x"], "als", factors, residuals, stop)
    assert found == [f"als residual rose at iteration 3: {residuals[1]:.17g} -> {residuals[2]:.17g}"]


def test_stop_reason_must_match_recomputed_residual(psym3_runs):
    factors, residuals, _, recon = _real(psym3_runs, "pcls")
    assert any("within tol" in p for p in _check(psym3_runs["x"], "pcls", factors, residuals, "Stalled", recon))
    assert any("iterations" in p for p in _check(psym3_runs["x"], "pcls", factors, residuals, "MaxIters", recon))


def test_asymmetric_pcls_reconstruction_is_rejected(psym3_runs):
    factors, residuals, stop, recon = _real(psym3_runs, "pcls")
    recon = recon.copy()
    recon[0, 1, 0] += 1e-9
    assert any("symmetry" in p for p in _check(psym3_runs["x"], "pcls", factors, residuals, stop, recon))


def test_tensor_file_changed_by_one_digit_is_rejected(psym3_runs, tmp_path):
    x = psym3_runs["x"]
    path = tmp_path / "x.tns"
    io.write_tensor(path, x)
    assert checks.check_round_trip(x, io.read_tensor(path), "psym3") == []
    lines = path.read_text().splitlines()
    first = lines[1].split()[0]
    k = first.index(".") + 1  # first decimal digit
    digit = str((int(first[k]) + 1) % 10)
    lines[1] = lines[1].replace(first, first[:k] + digit + first[k + 1 :], 1)
    path.write_text("\n".join(lines) + "\n")
    found = checks.check_round_trip(x, io.read_tensor(path), "psym3")
    assert found and "differs" in found[0]


def test_symmetry_check_sees_nan():
    x = np.ones((3, 3, 4))
    assert checks.check_symmetric(x, "psym3", "t") == []
    x[0, 1, 2] = np.nan
    assert checks.symmetry_defect(x, "psym3") == float("inf")
    assert checks.check_symmetric(x, "psym3", "t") != []


def test_fsym4_inputs_pass_their_own_checks():
    w = problems.WORKLOADS["fsym4-ex4"]
    (p,) = problems.make_problems(dataclasses.replace(w, pool=1), seed=3)
    assert checks.check_symmetric(p.tensor, "fsym4", "input") == []
    assert checks.recomputed_residual(p.tensor, p.truth) == 0.0


def test_same_seed_same_inputs_and_fixed_truths():
    w = problems.WORKLOADS["psym3-ex1"]
    one, again, other = (problems.make_problems(w, s) for s in (1, 1, 2))
    assert all(np.array_equal(p.start[0], q.start[0]) for p, q in zip(one, again))
    assert all(np.array_equal(p.tensor, q.tensor) for p, q in zip(one, other))
    assert not np.array_equal(one[0].start[0], other[0].start[0])


def test_tracer_accounts_for_iteration_time_and_restores(psym3_runs):
    x = psym3_runs["x"]
    model, _ = psym3_runs["pcls"]
    start = [f + 0.05 for f in model.factors]
    original = solvers.residual_sq
    tracer = tracing.Tracer()
    runs = []
    with tracer.installed():
        for run, (family, fn) in enumerate((("pcls", solvers.pcls3), ("als", solvers.als3_sym))):
            t0 = time.perf_counter()
            _, trace = tracer.call(run, family, fn, x, 3, [f.copy() for f in start], CFG)
            runs.append({
                "run": run, "family": family, "iterations": trace.iterations,
                "elapsed_sum": sum(trace.elapsed), "seconds": time.perf_counter() - t0,
                "rank_deficient": 0, "stop": trace.stop_reason.value,
            })
    assert solvers.residual_sq is original
    metrics, found = tracing.layer_metrics(tracer, runs)
    assert found == []
    assert metrics["pcls.sweep_calls_per_iter"] == 3.0
    assert metrics["pcls.lstsq_calls_per_iter"] == 2.0
    assert metrics["als.lstsq_calls_per_iter"] == 3.0
    assert metrics["pcls.lstsq_rhs_per_iter"] == 25.0 + 6.0
    for s in ("pcls", "als"):
        parts = sum(v for k, v in metrics.items() if k.startswith(s) and k.endswith("ms_per_iter")
                    and k not in (f"{s}.traced_ms_per_iter",))
        assert parts == pytest.approx(metrics[f"{s}.traced_ms_per_iter"], rel=1e-9)


def _rec(run_id, family, iterations, stop, seconds, elapsed):
    return {
        "run": run_id, "problem": run_id // 2, "family": family, "solver": family + "3",
        "iterations": iterations, "stop": stop, "seconds": seconds,
        "elapsed": elapsed, "elapsed_sum": sum(elapsed), "failed": False,
    }


def _round(scale=1.0, pcls_stop="Converged"):
    return [
        _rec(0, "pcls", 4, pcls_stop, scale * 0.5, [scale * 0.1, 0.05, 0.1, 0.1]),
        _rec(1, "als", 2, "Converged", scale * 0.3, [0.02, 0.04]),
    ]


def test_end_to_end_counts_time_outside_the_iterations():
    metrics, found = run.end_to_end([_round(2.0), _round(1.0)])
    assert found == []
    # pcls: 0.15 s outside the iterations at its fastest repeat (0.5 - 0.35)
    # plus 4 iterations at the fastest one, 0.05 s.
    assert metrics["pcls_time_to_tol_s"] == pytest.approx(0.15 + 4 * 0.05)
    assert metrics["pcls_ms_per_iter"] == pytest.approx(1e3 * (0.15 + 4 * 0.05) / 4)
    assert metrics["als_time_to_tol_s"] == pytest.approx(0.24 + 2 * 0.02)
    assert metrics["als_ms_per_iter"] == pytest.approx(1e3 * (0.24 + 2 * 0.02) / 2)
    assert metrics["pcls_iters"] == pytest.approx(4.0)
    assert metrics["pcls_solve_s"] == pytest.approx(0.5)
    # A second pcls run: its own fastest iteration is slower, but the suite's
    # fastest (0.05 s) sets the speed of every pcls iteration.
    slow = [_rec(2, "pcls", 2, "Converged", 0.5, [0.2, 0.2])]
    metrics, _ = run.end_to_end([_round(1.0) + slow])
    assert metrics["pcls_time_to_tol_s"] == pytest.approx(((0.15 + 0.2) * (0.1 + 0.1)) ** 0.5)


def test_end_to_end_without_a_converged_run_reports_a_problem():
    _, found = run.end_to_end([_round(pcls_stop="MaxIters")])
    assert found == ["no pcls run converged, so it has no time to tolerance"]


def test_round_with_other_trajectories_is_flagged():
    first = _round()
    assert run.repeat_problems(first, _round(3.0), "the traced round") == []
    traced = _round()
    traced[1]["iterations"] = 3
    found = run.repeat_problems(first, traced, "the traced round")
    assert found == ["als3 problem 0: the traced round took 3 iterations (Converged), the first round 2 (Converged)"]
    _, found = run.end_to_end([first, _round(pcls_stop="Stalled")])
    assert len(found) == 1 and "a later round" in found[0]


def test_pin_refused_after_numpy_import():
    with pytest.raises(envinfo.PinError):
        envinfo.pin_blas_threads()


def test_compare_flags_only_regressions_beyond_bound():
    spec = {"end_to_end": [{"name": "t", "unit": "s", "better": "lower", "bound": 0.1}]}

    def sets(values):
        return {"w": {"metrics": {"t": values}, "attempted": 4, "failed": 0, "runs": len(values)}}

    _, regressed = compare.compare(sets([1.0, 1.0, 1.0]), sets([1.05, 1.05, 1.05]), spec)
    assert not regressed
    lines, regressed = compare.compare(sets([1.0, 1.0, 1.0]), sets([1.2, 1.2, 1.2]), spec)
    assert regressed and "WORSE" in lines[-1]
    _, regressed = compare.compare(sets([1.0, 1.0]), sets([0.5, 0.5]), spec)
    assert not regressed

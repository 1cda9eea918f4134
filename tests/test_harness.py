"""Problem generators, experiment orchestration, and trace/summary files."""
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtensor import (
    AggregateStats,
    ConvergenceTrace,
    ExperimentSpec,
    SOLVERS,
    SolverConfig,
    StopReason,
    SymmetryPattern,
    generate_problem,
    residual_sq,
    run_experiment,
    solve_problem,
    square_matricize,
    symmetry_check,
    write_summary_json,
    write_trace_csv,
)

from _oracles import iterations_to_threshold, read_trace_csv

KIND_DIMS = {
    "psym3": (6, 6, 5),
    "fsym4": (4, 4, 4, 4),
    "psym4-case1": (4, 3, 4, 3),
    "psym4-case2": (4, 3, 4, 2),
}
# The rows of each kind's distinct factors at KIND_DIMS, and its solvers.
KIND_ROWS = {"psym3": (6, 5), "fsym4": (4,), "psym4-case1": (4, 3), "psym4-case2": (4, 3, 2)}
KIND_SOLVERS = {
    "psym3": ("pcls", "als"),
    "fsym4": ("pcls", "als"),
    "psym4-case1": ("pcls",),
    "psym4-case2": ("pcls",),
}


# --------------------------------------------------------------------- #
# Generators                                                             #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", sorted(KIND_DIMS))
def test_generated_tensor_is_symmetric_and_exactly_rank_r(kind):
    rng = np.random.default_rng(40)
    x, model = generate_problem(kind, KIND_DIMS[kind], 3, rng)
    pattern = SymmetryPattern(model.pattern)
    tol = 0.0 if kind in ("psym3", "psym4-case1") else 1e-12
    assert symmetry_check(x, pattern, tol)
    assert residual_sq(x, model) == 0.0
    assert model.rank == 3
    assert x.shape == KIND_DIMS[kind]
    assert pattern.factor_rows(x.shape) == KIND_ROWS[kind]
    assert [f.shape for f in model.factors] == [(n, 3) for n in KIND_ROWS[kind]]


def test_fsym4_square_matricization_is_psd():
    rng = np.random.default_rng(41)
    x, _ = generate_problem("fsym4", (5, 5, 5, 5), 3, rng)
    w = np.linalg.eigvalsh(square_matricize(x))
    assert w.min() >= -1e-10 * w.max()


def test_generation_is_seed_deterministic():
    a, _ = generate_problem("psym3", (5, 5, 4), 2, np.random.default_rng(42))
    b, _ = generate_problem("psym3", (5, 5, 4), 2, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_collinearity_raises_column_cosines():
    rng = np.random.default_rng(43)
    _, tight = generate_problem("psym3", (500, 500, 4), 3, rng, collinearity=0.9)
    _, loose = generate_problem("psym3", (500, 500, 4), 3, np.random.default_rng(43))

    def cos01(m):
        a, b = m[:, 0], m[:, 1]
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    assert cos01(tight.factors[0]) > 0.6
    assert abs(cos01(loose.factors[0])) < 0.3


def test_collinearity_range_validated():
    rng = np.random.default_rng(44)
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match="collinearity"):
            generate_problem("psym3", (4, 4, 3), 2, rng, collinearity=bad)


def test_zero_size_dims_are_rejected_by_the_pattern():
    with pytest.raises(ValueError, match=r"psym3 needs positive dims, got \(0, 0, 3\)"):
        generate_problem("psym3", (0, 0, 3), 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"psym3 needs positive dims, got \(0, 0, 3\)"):
        ExperimentSpec(kind="psym3", dims=(0, 0, 3), rank=2)


def test_unknown_kind_lists_known_ones():
    with pytest.raises(ValueError, match="psym3"):
        generate_problem("psym5", (4, 4, 3), 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="psym3"):
        solve_problem("nope", "pcls", np.zeros((4, 4, 3)), 2, [], SolverConfig())
    with pytest.raises(ValueError, match="psym3"):
        ExperimentSpec(kind="nope", dims=(4, 4, 3), rank=2)


@pytest.mark.parametrize("kind", sorted(KIND_DIMS))
def test_solve_problem_dispatch_closes_loop(kind):
    """Truth-made problems solved from the truth finish in one iteration."""
    rng = np.random.default_rng(45)
    x, model = generate_problem(kind, KIND_DIMS[kind], 2, rng)
    init = [f.copy() for f in model.factors]
    assert tuple(SOLVERS[kind]) == KIND_SOLVERS[kind]
    for solver in SOLVERS[kind]:
        _, trace = solve_problem(kind, solver, x, 2, [f.copy() for f in init], SolverConfig())
        assert trace.stop_reason is StopReason.CONVERGED
        assert trace.iterations == 1


def test_solve_problem_rejects_unavailable_solver():
    rng = np.random.default_rng(46)
    x, model = generate_problem("psym4-case1", (4, 3, 4, 3), 2, rng)
    with pytest.raises(ValueError, match="not available"):
        solve_problem("psym4-case1", "als", x, 2, [f.copy() for f in model.factors], SolverConfig())


# --------------------------------------------------------------------- #
# Trace CSV round trip                                                    #
# --------------------------------------------------------------------- #


def test_trace_csv_round_trip_is_bit_exact(tmp_path):
    residuals = [1.0 / 3.0, 1.2345678901234567e-10, 7.0, 0.0]
    elapsed = [0.25, 0.125, 0.0625, 1.5e-4]
    trace = ConvergenceTrace(residuals, elapsed, StopReason.MAX_ITERS)
    path = str(tmp_path / "trace.csv")
    write_trace_csv(trace, path)

    with open(path, encoding="utf-8") as fh:
        assert fh.readline().strip() == "iteration,residual_sq,elapsed_s"

    got_res, got_el = read_trace_csv(path)
    assert got_res == residuals
    np.testing.assert_allclose(got_el, elapsed, rtol=1e-8)


def test_trace_csv_write_error_paths(tmp_path):
    trace = ConvergenceTrace([1.0], [0.1], StopReason.CONVERGED)
    with pytest.raises(OSError, match="failed to write"):
        write_trace_csv(trace, str(tmp_path / "missing_dir" / "trace.csv"))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=20),
    st.floats(min_value=0.0, max_value=1e6),
)
def test_iterations_to_threshold_first_crossing(residuals, threshold):
    hit = iterations_to_threshold(residuals, threshold)
    if hit is None:
        assert all(r > threshold for r in residuals)
    else:
        assert residuals[hit - 1] <= threshold
        assert all(r > threshold for r in residuals[: hit - 1])


def test_iterations_to_threshold_examples():
    assert iterations_to_threshold([1.0, 0.1, 0.01], 0.1) == 2
    assert iterations_to_threshold([1.0, 0.5], 1e-3) is None
    assert iterations_to_threshold([1e-12], 1e-8) == 1


# --------------------------------------------------------------------- #
# run_experiment                                                          #
# --------------------------------------------------------------------- #


def _small_spec(**overrides):
    base = dict(
        kind="psym3",
        dims=(6, 6, 5),
        rank=2,
        solvers=("pcls", "als"),
        n_seeds=2,
        base_seed=3,
        init="perturbed",
        init_sigma=0.1,
        config=SolverConfig(max_iters=2000),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_run_experiment_records_and_aggregates(tmp_path):
    spec = _small_spec(out_dir=str(tmp_path))
    summary = run_experiment(spec)

    assert [(r.seed_index, r.solver) for r in summary.runs] == [
        (0, "pcls"), (0, "als"), (1, "pcls"), (1, "als"),
    ]
    for solver in ("pcls", "als"):
        agg = summary.aggregates[solver]
        assert isinstance(agg, AggregateStats)
        assert agg.population == "converged"
        assert agg.n_runs == 2
        conv = [r for r in summary.runs if r.solver == solver and r.stop_reason == "Converged"]
        assert agg.n_converged == len(conv)
        assert agg.convergence_fraction == len(conv) / 2
        if conv:
            assert agg.mean_iterations == pytest.approx(
                sum(r.iterations for r in conv) / len(conv), rel=1e-15
            )
            assert agg.median_wall_time is not None

    for r in summary.runs:
        assert r.trace_path is not None and os.path.exists(r.trace_path)
        residuals, elapsed = read_trace_csv(r.trace_path)
        assert len(residuals) == r.iterations
        assert residuals[-1] == r.final_residual
        assert sum(elapsed) == pytest.approx(r.wall_time, rel=1e-6, abs=1e-9)

    assert os.path.exists(os.path.join(str(tmp_path), "summary.json"))


def test_run_experiment_is_reproducible():
    a = run_experiment(_small_spec())
    b = run_experiment(_small_spec())
    for ra, rb in zip(a.runs, b.runs):
        assert (ra.seed_index, ra.solver) == (rb.seed_index, rb.solver)
        assert ra.iterations == rb.iterations
        assert ra.final_residual == rb.final_residual
        assert ra.stop_reason == rb.stop_reason


@pytest.mark.parametrize("kind", sorted(KIND_DIMS))
def test_run_experiment_truth_start_converges_everywhere(kind):
    spec = ExperimentSpec(
        kind=kind,
        dims=KIND_DIMS[kind],
        rank=2,
        solvers=tuple(SOLVERS[kind]),
        n_seeds=3,
        init="perturbed",
        init_sigma=0.0,
    )
    summary = run_experiment(spec)
    assert all(r.stop_reason == "Converged" and r.iterations == 1 for r in summary.runs)
    for agg in summary.aggregates.values():
        assert agg.convergence_fraction == 1.0
        assert agg.mean_iterations == 1.0


def test_run_experiment_no_converged_runs_gives_none_stats():
    spec = _small_spec(init="random", config=SolverConfig(max_iters=1), n_seeds=2)
    summary = run_experiment(spec)
    for agg in summary.aggregates.values():
        assert agg.n_converged == 0
        assert agg.mean_iterations is None
        assert agg.median_iterations is None
        assert agg.mean_wall_time is None


def test_summary_json_schema(tmp_path):
    spec = _small_spec(out_dir=str(tmp_path), n_seeds=1, solvers=("pcls",))
    summary = run_experiment(spec)
    with open(tmp_path / "summary.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert set(doc) == {"experiment", "runs", "aggregates"}
    exp = doc["experiment"]
    assert list(exp) == ["kind", "dims", "rank", "solvers", "n_seeds", "base_seed",
                         "init", "init_sigma", "collinearity", "config"]
    assert list(exp["config"].items()) == [("max_iters", 2000), ("tol", 1e-10), ("seed", 0)]
    run = doc["runs"][0]
    for key in ("seed_index", "solver", "iterations", "final_residual",
                "wall_time", "stop_reason", "trace_path"):
        assert key in run
    assert doc["aggregates"]["pcls"]["population"] == "converged"
    with pytest.raises(OSError, match="failed to write summary"):
        write_summary_json(summary, str(tmp_path / "missing_dir" / "summary.json"))


@pytest.mark.parametrize("kind", sorted(KIND_DIMS))
def test_experiment_spec_defaults_to_every_solver_of_its_kind(kind):
    spec = ExperimentSpec(kind=kind, dims=KIND_DIMS[kind], rank=2)
    assert spec.solvers == tuple(SOLVERS[kind])


def test_experiment_spec_validation():
    ok = dict(kind="psym3", dims=(4, 4, 3), rank=2)
    ExperimentSpec(**ok)
    with pytest.raises(ValueError):
        ExperimentSpec(**{**ok, "kind": "bad"})
    with pytest.raises(ValueError):
        ExperimentSpec(**{**ok, "dims": (3, 4, 5)})
    with pytest.raises(ValueError):
        ExperimentSpec(**{**ok, "rank": 0})
    with pytest.raises(ValueError):
        ExperimentSpec(**{**ok, "n_seeds": 0})
    with pytest.raises(ValueError, match="n_seeds must be an integer"):
        ExperimentSpec(**{**ok, "n_seeds": 1.5})
    with pytest.raises(ValueError):
        ExperimentSpec(**{**ok, "init": "warm"})
    for collinearity in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match="collinearity"):
            ExperimentSpec(**{**ok, "collinearity": collinearity})
    with pytest.raises(ValueError, match="init_sigma"):
        ExperimentSpec(**{**ok, "init_sigma": -1.0})
    with pytest.raises(ValueError):
        ExperimentSpec(kind="psym4-case1", dims=(4, 3, 4, 3), rank=2, solvers=("pcls", "als"))

"""Solver behavior: fixed points, monotonicity, stopping, determinism.

Decomposable problems are built directly from random factor models, so the
exact minimizers are known and truth-start runs must hold still.
"""
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import symtensor

from symtensor import solvers
from symtensor import (
    ConvergenceTrace,
    FactorModel,
    SolverConfig,
    StopReason,
    SymmetryPattern,
    als3,
    als3_sym,
    als4_sym,
    generate_problem,
    initialize,
    khatri_rao,
    mode_n_matricize,
    pcls3,
    pcls4_case1,
    pcls4_case2,
    pcls4_full,
    reconstruct,
    residual_sq,
    symmetry_check,
    symmetry_defect,
)


def make_problem(pattern, dims, r, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    rows = pattern.factor_rows(dims)
    model = FactorModel(pattern, [scale * rng.standard_normal((n, r)) for n in rows])
    return reconstruct(model, dims), model


def truth_init(solver_name, model):
    f = [m.copy() for m in model.factors]
    if solver_name == "als3":
        return [f[0], f[0].copy(), f[1]]
    if solver_name in ("als4_sym", "pcls4_full"):
        return f[0]
    return f


SOLVERS = {
    "als3": (als3, SymmetryPattern.PSYM3, (5, 5, 4)),
    "als3_sym": (als3_sym, SymmetryPattern.PSYM3, (5, 5, 4)),
    "pcls3": (pcls3, SymmetryPattern.PSYM3, (5, 5, 4)),
    "als4_sym": (als4_sym, SymmetryPattern.FSYM4, (4, 4, 4, 4)),
    "pcls4_full": (pcls4_full, SymmetryPattern.FSYM4, (4, 4, 4, 4)),
    "pcls4_case1": (pcls4_case1, SymmetryPattern.PSYM4_CASE1, (4, 3, 4, 3)),
    "pcls4_case2": (pcls4_case2, SymmetryPattern.PSYM4_CASE2, (4, 3, 4, 2)),
}


# --------------------------------------------------------------------- #
# Exact decompositions are fixed points                                  #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_truth_start_is_fixed_point(name):
    solver, pattern, dims = SOLVERS[name]
    x, model = make_problem(pattern, dims, 3, seed=11)
    cfg = SolverConfig(max_iters=10, tol=1e-300)
    out, trace = solver(x, 3, truth_init(name, model), cfg)
    assert trace.iterations == 10
    assert max(trace.residuals) <= 1e-18
    assert trace.stop_reason is StopReason.MAX_ITERS


def test_pcls4_full_rank_one_unit_vector():
    e1 = np.zeros((3, 1))
    e1[0, 0] = 1.0
    x = reconstruct(FactorModel(SymmetryPattern.FSYM4, [e1]))
    model, trace = pcls4_full(x, 1, e1, SolverConfig(max_iters=5, tol=1e-25))
    assert trace.stop_reason is StopReason.CONVERGED
    assert trace.final_residual <= 1e-25
    np.testing.assert_allclose(np.abs(model.factors[0]), e1, atol=1e-12)


def test_als3_single_iteration_reaches_exact_fit():
    x, model = make_problem(SymmetryPattern.GENERAL3, (5, 6, 4), 3, seed=12)
    init = [m.copy() for m in model.factors]
    _, trace = als3(x, 3, init, SolverConfig(max_iters=1, tol=1e-300))
    assert trace.residuals[0] <= 1e-20


# --------------------------------------------------------------------- #
# ALS monotonicity and convergence                                       #
# --------------------------------------------------------------------- #


def _assert_monotone(residuals):
    for prev, cur in zip(residuals, residuals[1:]):
        assert cur <= prev + 1e-10 * (1.0 + prev)


def test_als3_monotone_on_noise():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((5, 6, 4))
    init = [rng.standard_normal((n, 2)) for n in x.shape]
    _, trace = als3(x, 2, init, SolverConfig(max_iters=200, tol=1e-300))
    _assert_monotone(trace.residuals)


def test_als4_sym_monotone_on_noise():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((4, 4, 4, 4))
    _, trace = als4_sym(x, 2, rng.standard_normal((4, 2)), SolverConfig(max_iters=150, tol=1e-300))
    _assert_monotone(trace.residuals)


def test_als3_rank_one_random_start_converges():
    x, _ = make_problem(SymmetryPattern.GENERAL3, (4, 5, 6), 1, seed=15)
    rng = np.random.default_rng(3)
    init = [rng.standard_normal((n, 1)) for n in x.shape]
    _, trace = als3(x, 1, init, SolverConfig(max_iters=2000))
    assert trace.stop_reason is StopReason.CONVERGED


def test_als3_sym_defect_zero_at_truth_nonzero_from_random():
    x, model = make_problem(SymmetryPattern.PSYM3, (5, 5, 4), 3, seed=16)
    _, trace = als3_sym(x, 3, [m.copy() for m in model.factors], SolverConfig(max_iters=5, tol=1e-300))
    assert trace.symmetry_defect is not None
    assert max(trace.symmetry_defect) <= 1e-10

    broke_symmetry = 0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        init = [rng.standard_normal((5, 3)), rng.standard_normal((4, 3))]
        _, tr = als3_sym(x, 3, init, SolverConfig(max_iters=30, tol=1e-300))
        if max(tr.symmetry_defect) > 1e-8:
            broke_symmetry += 1
    assert broke_symmetry >= 1


def _als_start(name, dims, r, seed, scale=1.0):
    """(tensor, solver's init, the full factor list the solver starts from)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dims)
    if name == "als3":
        init = [scale * rng.standard_normal((n, r)) for n in dims]
        return x, init, init
    a = scale * rng.standard_normal((dims[0], r))
    if name == "als4_sym":
        return x, a, [a] * 4
    c = scale * rng.standard_normal((dims[2], r))
    return x, [a, c], [a, a, c]


def _assert_matches_oracle(out, x, start, iters, rel):
    from _oracles import als_oracle

    # max-abs scaled, so factors near the scale guard compare without
    # squaring their entries
    for got, ref in zip(out.factors, als_oracle(x, start, iters)):
        assert np.abs(got - ref).max() <= rel * np.abs(ref).max()


@pytest.mark.parametrize(
    "name,dims,r,seed,fallbacks",
    [
        ("als3", (4, 5, 3), 2, 1, False),
        ("als3_sym", (5, 5, 4), 3, 2, False),
        ("als4_sym", (3, 3, 3, 3), 2, 3, False),
        # sizes at which the BLAS calls block their GEMMs
        ("als3", (24, 20, 16), 4, 4, False),
        ("als3_sym", (30, 30, 20), 5, 5, False),
        # R > I: the factor Grams are singular, and so is the first refit's
        # Hadamard Gram, whose Khatri-Rao columns a (x) a (x) a span only
        # the 4-dimensional symmetric subspace; it takes the QR. Such
        # problems are ill-conditioned: over seeds 0-9 the gap to the plain
        # chain after 10 iterations ranges 3e-13 to 7e-9 (2e-13 to 2e-9
        # when each refit formed m.T @ m); seed 0's is 5e-12.
        ("als4_sym", (2, 2, 2, 2), 5, 0, True),
    ],
    ids=["als3", "als3_sym", "als4_sym", "als3-blocked", "als3_sym-blocked",
         "als4_sym-rank-above-dim"],
)
def test_als_matches_plain_khatri_rao_lstsq(name, dims, r, seed, fallbacks):
    """The factor-Gram refits and the shared half contractions give the
    plain Gauss-Seidel chain's factors to roundoff."""
    x, init, start = _als_start(name, dims, r, seed)
    out, trace = getattr(solvers, name)(x, r, init, SolverConfig(max_iters=10, tol=1e-300))
    assert trace.iterations == 10
    _assert_matches_oracle(out, x, start, 10, 1e-10)
    assert (trace.diagnostics.get("ill_conditioned_solves", 0) > 0) == fallbacks


def test_als_overflowing_gram_takes_the_fallback():
    """Starting at 1e55 the first refit's three factor Grams are finite but
    their Hadamard product overflows, and the new A (about 1e-165) has a
    Gram that underflows: all four refits must take the QR fallback on the
    full m without a floating-point warning and match the plain chain."""
    x, init, start = _als_start("als4_sym", (3, 3, 3, 3), 2, seed=3, scale=1e55)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, trace = als4_sym(x, 2, init, SolverConfig(max_iters=1, tol=1e-300))
    assert trace.diagnostics["ill_conditioned_solves"] == 4
    _assert_matches_oracle(out, x, start, 1, 1e-12)


def test_als3_sym_defect_stays_finite_near_the_scale_guard():
    """From a 1e-160 C the first A refit reaches about 1e160, so its Gram
    and its distance to B overflow when squared; the defect must still be
    finite and the refits must match the plain chain."""
    x, _ = generate_problem("psym3", (6, 6, 5), 2, np.random.default_rng(40), 0.5)
    rng = np.random.default_rng(41)
    a, c = rng.standard_normal((6, 2)), 1e-160 * rng.standard_normal((5, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, trace = als3_sym(x, 2, [a, c], SolverConfig(max_iters=50, tol=1e-300))
    assert trace.stop_reason is StopReason.STALLED
    assert np.isfinite(trace.symmetry_defect).all()
    assert np.abs(out.factors[0]).max() > 1e150
    _assert_matches_oracle(out, x, [a, a, c], trace.iterations, 1e-12)


@pytest.mark.parametrize("name,dims", [("als3_sym", (5, 5, 4)), ("als4_sym", (3, 3, 3, 3))])
def test_als_makes_one_lstsq_call_per_mode(monkeypatch, name, dims):
    """Each iteration solves every mode once, with I_n right-hand sides:
    the call and right-hand-side counts the benchmark's lstsq layer reads."""
    plain = np.linalg.lstsq
    rhs = []

    def counted(a, b, rcond=None):
        rhs.append(b.shape[1])
        return plain(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    x, init, _ = _als_start(name, dims, 2, seed=9)
    _, trace = getattr(solvers, name)(x, 2, init, SolverConfig(max_iters=7, tol=1e-300))
    assert trace.iterations == 7
    assert rhs == list(dims) * 7


# --------------------------------------------------------------------- #
# PCLS convergence and symmetric output                                   #
# --------------------------------------------------------------------- #


def _perturbed(model, sigma, seed):
    rng = np.random.default_rng(seed)
    return initialize([f.shape for f in model.factors], rng, model, sigma)


@pytest.mark.parametrize("name", ["pcls4_case1", "pcls4_case2"])
def test_pcls4_partial_converges_from_perturbed_truth(name):
    solver, pattern, dims = SOLVERS[name]
    converged = 0
    for seed in range(10):
        x, model = make_problem(pattern, dims, 3, seed=20 + seed)
        init = _perturbed(model, 0.1, seed)
        if name == "pcls4_case1":
            init = init[:2]
        _, trace = solver(x, 3, init, SolverConfig(max_iters=5000))
        if trace.stop_reason is StopReason.CONVERGED:
            converged += 1
            assert trace.final_residual <= 1e-10
    assert converged >= 7


@pytest.mark.parametrize("name", ["pcls3", "pcls4_case1", "pcls4_case2", "pcls4_full"])
def test_pcls_output_reconstruction_is_symmetric(name):
    solver, pattern, dims = SOLVERS[name]
    x, model = make_problem(pattern, dims, 3, seed=17)
    init = _perturbed(model, 0.5, 17)
    if name == "pcls3":
        init = init[:2]
    elif name == "pcls4_case1":
        init = init[:2]
    elif name == "pcls4_full":
        init = init[0]
    out, _ = solver(x, 3, init, SolverConfig(max_iters=5, tol=1e-300))
    assert symmetry_check(reconstruct(out), pattern, 1e-12)


def test_pcls3_sign_flip_start_mirrors():
    x, model = make_problem(SymmetryPattern.PSYM3, (6, 6, 5), 3, seed=18)
    a0, c0 = _perturbed(model, 0.2, 18)
    cfg = SolverConfig(max_iters=5, tol=1e-300)
    _, plus = pcls3(x, 3, [a0, c0], cfg)
    _, minus = pcls3(x, 3, [-a0, c0], cfg)
    for ra, rb in zip(plus.residuals, minus.residuals):
        assert rb == pytest.approx(ra, rel=1e-8, abs=1e-12)


def test_case2_matricization_identities():
    """The rectangular-mode updates solve against consistent unfoldings."""
    x, model = make_problem(SymmetryPattern.PSYM4_CASE2, (4, 3, 4, 2), 3, seed=19)
    a, b, c = model.factors
    x2 = mode_n_matricize(x, 1)
    x4 = mode_n_matricize(x, 3)
    scale = np.linalg.norm(x2)
    assert np.linalg.norm(x2 - b @ khatri_rao(c, khatri_rao(a, a)).T) <= 1e-12 * scale
    assert np.linalg.norm(x4 - c @ khatri_rao(a, khatri_rao(b, a)).T) <= 1e-12 * scale


def test_pcls4_full_exact_problem_drives_both_residuals_down():
    x, model = make_problem(SymmetryPattern.FSYM4, (4, 4, 4, 4), 2, seed=21)
    init = model.factors[0] + 0.05 * np.random.default_rng(21).standard_normal((4, 2))
    _, trace = pcls4_full(x, 2, init, SolverConfig(max_iters=3000))
    assert trace.stop_reason is StopReason.CONVERGED


def test_pcls4_full_reports_clipped_mass():
    _, pos = make_problem(SymmetryPattern.FSYM4, (3, 3, 3, 3), 1, seed=22)
    _, neg = make_problem(SymmetryPattern.FSYM4, (3, 3, 3, 3), 1, seed=23)
    x = reconstruct(pos) - 2.0 * reconstruct(neg)
    init = np.random.default_rng(22).standard_normal((3, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the clipping is reported, not warned
        _, trace = pcls4_full(x, 2, init, SolverConfig(max_iters=3, tol=1e-300))
    d = trace.diagnostics
    assert d.get("clipped_mass", 0.0) > 0.0
    assert d.get("clipped_count", 0) >= 1
    assert list(d)[:2] == ["clipped_mass", "clipped_count"]
    # An independent oracle: the eigenvalues of the square matricization
    # below -1e-10 max|w|, counted and summed.
    w = np.linalg.eigvalsh(symtensor.square_matricize(x))
    clipped = w[w < -1e-10 * np.abs(w).max()]
    assert d["clipped_count"] == clipped.size
    assert d["clipped_mass"] == pytest.approx(-clipped.sum(), rel=1e-12)


def test_pcls4_full_accepts_what_its_symmetry_precondition_accepts():
    """The entrywise precondition (1e-8 of max|x|) is the only symmetry rule:
    an input it accepts is not refused later by the set-up's factorization."""
    x, truth = generate_problem("fsym4", (3, 3, 3, 3), 2, np.random.default_rng(0))
    big = np.abs(x).max()
    x[0, 1, 0, 2] += 5e-9 * big
    assert symmetry_check(x, SymmetryPattern.FSYM4, 1e-8 * big)
    _, trace = pcls4_full(x, 2, truth.factors[0].copy(), SolverConfig(max_iters=50))
    assert trace.stop_reason is StopReason.CONVERGED


def test_pcls3_redraws_dead_columns():
    x, model = make_problem(SymmetryPattern.PSYM3, (5, 5, 4), 1, seed=24)
    a = np.hstack([model.factors[0], np.zeros((5, 1))])
    c = np.hstack([model.factors[1], np.zeros((4, 1))])
    _, trace = pcls3(x, 2, [a, c], SolverConfig(max_iters=3, tol=1e-300, seed=99))
    d = trace.diagnostics
    assert d.get("redrawn_columns", 0) >= 1
    assert d.get("rank_deficient_solves", 0) >= 1
    assert d.get("first_rank_deficient_iteration") == 1


def test_column_sweep_matches_per_column_reference():
    """``_Run.sweep`` symmetrizes all columns at once and writes ``a`` back
    once, yet its factor equals, bit for bit, a column-by-column sweep over
    numpy arrays, for an F-ordered g (pcls3 and the pcls4 cases pass a
    transposed solve) and a C-ordered one (pcls4_full's ``e @ q.T``); the
    two dead columns are redrawn from the seed's first two standard normal
    draws, in column order."""
    from _oracles import column_sweep_oracle

    n, r, seed = 9, 6, 5
    rng = np.random.default_rng(31)
    a = rng.standard_normal((n, r))
    g_f = rng.standard_normal((r, n * n)).T
    g_f[:, [1, 4]] = 0.0
    for g in (g_f, np.ascontiguousarray(g_f)):
        run = _solve_run(seed=seed)
        expect, redrawn = column_sweep_oracle(
            a, g, np.random.default_rng(seed), solvers._DEAD_COLUMN_REL
        )
        got = a.copy()
        run.sweep(got, g)
        assert np.array_equal(got, expect)
        assert redrawn == run.diag["redrawn_columns"] == 2
        draws = np.random.default_rng(seed)
        assert np.array_equal(got[:, 1], draws.standard_normal(n))
        assert np.array_equal(got[:, 4], draws.standard_normal(n))


# --------------------------------------------------------------------- #
# Stopping behavior and determinism                                       #
# --------------------------------------------------------------------- #


def test_stop_reason_converged_and_exit_residual():
    x, model = make_problem(SymmetryPattern.PSYM3, (5, 5, 4), 2, seed=26)
    _, trace = pcls3(x, 2, [m.copy() for m in model.factors], SolverConfig())
    assert trace.stop_reason is StopReason.CONVERGED
    assert trace.iterations == 1
    assert trace.final_residual <= 1e-10


def test_stop_reason_max_iters():
    rng = np.random.default_rng(27)
    x = rng.standard_normal((5, 6, 4))
    init = [rng.standard_normal((n, 2)) for n in x.shape]
    _, trace = als3(x, 2, init, SolverConfig(max_iters=3, tol=1e-300))
    assert trace.stop_reason is StopReason.MAX_ITERS
    assert trace.iterations == 3


def test_stop_reason_stalled_on_noise_floor():
    rng = np.random.default_rng(28)
    x = rng.standard_normal((5, 5, 5))
    init = [rng.standard_normal((5, 1)) for _ in range(3)]
    cfg = SolverConfig(max_iters=10000, tol=1e-300)
    _, trace = als3(x, 1, init, cfg)
    assert trace.stop_reason is StopReason.STALLED
    assert trace.iterations < 10000
    _assert_monotone(trace.residuals)


def test_scale_guard_stops_before_overflow():
    # a start deep in the scale-split gauge (tiny C, huge implied A) forces
    # the refits through astronomically scaled systems; the run must stop as
    # Stalled with a finite trace instead of overflowing inside lstsq
    x, model = make_problem(SymmetryPattern.PSYM3, (6, 6, 5), 2, seed=40)
    rng = np.random.default_rng(41)
    init = [rng.standard_normal((6, 2)), 1e-70 * rng.standard_normal((5, 2))]
    out, trace = pcls3(x, 2, init, SolverConfig(max_iters=50, tol=1e-300))
    assert trace.stop_reason is StopReason.STALLED
    assert trace.diagnostics["scale_guard_iteration"] == trace.iterations
    assert trace.iterations <= 5
    assert all(np.isfinite(r) for r in trace.residuals)
    assert all(np.isfinite(f).all() for f in out.factors)


def test_elapsed_covers_the_stopping_checks(monkeypatch):
    guard = solvers._scales_sane

    def slow_guard(factors):
        time.sleep(0.02)
        return guard(factors)

    monkeypatch.setattr(solvers, "_scales_sane", slow_guard)
    rng = np.random.default_rng(38)
    x = rng.standard_normal((5, 5, 4))
    init = [rng.standard_normal((5, 2)), rng.standard_normal((4, 2))]
    _, trace = als3_sym(x, 2, init, SolverConfig(max_iters=3, tol=1e-300))
    assert trace.iterations == 3
    assert min(trace.elapsed) >= 0.02


def test_pcls3_is_deterministic():
    x, model = make_problem(SymmetryPattern.PSYM3, (6, 6, 5), 3, seed=29)
    init = _perturbed(model, 0.3, 29)
    cfg = SolverConfig(max_iters=50, tol=1e-300, seed=7)
    m1, t1 = pcls3(x, 3, [f.copy() for f in init], cfg)
    m2, t2 = pcls3(x, 3, [f.copy() for f in init], cfg)
    assert t1.residuals == t2.residuals
    assert np.array_equal(m1.factors[0], m2.factors[0])
    assert np.array_equal(m1.factors[1], m2.factors[1])


def _with_spectrum(rng, rows, singular_values):
    """A rows x len(s) matrix with the given singular values."""
    k = len(singular_values)
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return (u * singular_values) @ v.T


def _zero_and_duplicate_columns(rng):
    m = rng.standard_normal((40, 6))
    m[:, 2] = 0.0
    m[:, 4] = m[:, 1]
    return m


_EPS = np.finfo(np.float64).eps


@pytest.mark.parametrize(
    "build,rank",
    [
        (_zero_and_duplicate_columns, 4),
        # 1e-14 lies between eps*17 and eps*300: only the unreduced system's
        # cutoff drops it
        (lambda rng: _with_spectrum(rng, 300, [1.0] * 16 + [1e-14]), 16),
        (lambda rng: rng.standard_normal((30, 7)), 7),
        (lambda rng: rng.standard_normal((5, 12)), 5),
    ],
    ids=["zero-and-duplicate-columns", "graded-1e-14", "tall", "wide"],
)
def test_reduced_solve_matches_plain_lstsq(monkeypatch, build, rank):
    rng = np.random.default_rng(42)
    m = build(rng)
    rhs = rng.standard_normal((m.shape[0], 9))
    plain = np.linalg.lstsq
    ref, _, ref_rank, _ = plain(m, rhs)
    assert ref_rank == rank
    ranks = []

    def counted(a, b, rcond=None):
        out = plain(a, b, rcond=rcond)
        assert b.shape[1] == rhs.shape[1]
        ranks.append(out[2])
        return out

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    run = _solve_run()
    sol = run.lstsq(m, rhs)
    assert ranks == [rank]
    assert run.diag.get("rank_deficient_solves", 0) == int(rank < m.shape[1])
    assert np.linalg.norm(sol - ref) <= 1e-12 * np.linalg.norm(ref)


def _solve_run(**cfg):
    """A ``_Run`` on a tiny pcls3 problem, for calling its ``lstsq`` and
    ``sweep``."""
    x, _ = make_problem(SymmetryPattern.PSYM3, (2, 2, 2), 1, seed=0)
    return solvers._Run(
        "pcls3", x, 1, [np.ones((2, 1))] * 2, SolverConfig(**cfg),
        SymmetryPattern.PSYM3, "I x I x K", "AC",
    )


@pytest.mark.parametrize(
    "pattern,dims,solver,labels,perm",
    [(SymmetryPattern.PSYM3, (40, 40, 30), "als3_sym", "AC", (0, 1, 2)),
     (SymmetryPattern.FSYM4, (12, 12, 12, 12), "als4_sym", "A", (0, 2, 1, 3))],
)
def test_run_residual_operand_has_the_product_layout(pattern, dims, solver, labels, perm):
    """``_Run.x``, the one tensor a run stores and the residual's operand,
    is x as float64 in the model product's memory order: a view of x when x
    already is that, else one copy, also for a float32 F-ordered x."""
    x, model = make_problem(pattern, dims, 2, seed=0)

    def run_on(y):
        init = [f.copy() for f in model.factors]
        return solvers._Run(solver, y, 2, init, None, pattern, "", labels)

    product = np.ascontiguousarray(x.transpose(perm)).transpose(perm)
    for y in (x, np.asfortranarray(x), product):
        run = run_on(y)
        assert np.array_equal(run.x, y)
        assert run.x.transpose(perm).flags.c_contiguous
        assert np.shares_memory(run.x, y) == y.transpose(perm).flags.c_contiguous
    y = np.asfortranarray(x, dtype=np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run = run_on(y)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert run.x.dtype == np.float64 and np.array_equal(run.x, y)
    assert run.x.transpose(perm).flags.c_contiguous
    assert run.x.nbytes <= kept < 2 * run.x.nbytes


def test_pcls3_holds_one_tensor():
    """On a C-ordered float64 tensor pcls3 reads its mode-3 unfolding as a
    view of the caller's array, so one call's traced peak stays within 1.25
    times the tensor's size; a copy of the unfolding would add one more."""
    x, truth = generate_problem("psym3", (60, 60, 60), 10, np.random.default_rng(3), 0.5)
    x = np.ascontiguousarray(x)
    init = initialize([f.shape for f in truth.factors], np.random.default_rng(4), truth, 0.1)

    def call():
        pcls3(x, 10, [f.copy() for f in init], SolverConfig(max_iters=3))

    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * x.nbytes


def _strided(x):
    """x as a view whose last mode steps over every other float64."""
    wide = np.zeros(x.shape[:-1] + (2 * x.shape[-1],))
    wide[..., ::2] = x
    return wide[..., ::2]


@pytest.mark.parametrize(
    "solver,kind,dims,rank,seeds",
    [(als3, "general3", (7, 6, 5), 3, (4, 5)), (als3_sym, "psym3", (7, 7, 6), 3, (4, 5)),
     (als4_sym, "fsym4", (5, 5, 5, 5), 3, (4, 5)), (pcls4_full, "fsym4", (5, 5, 5, 5), 3, (4, 5)),
     # a case where unfoldings taken from C and F copies round differently
     (pcls3, "psym3", (17, 17, 18), 6, (7, 8)),
     (pcls4_case1, "psym4-case1", (4, 3, 4, 3), 2, (4, 5)),
     (pcls4_case2, "psym4-case2", (4, 3, 4, 5), 2, (4, 5))],
    ids=["als3", "als3_sym", "als4_sym", "pcls4_full", "pcls3", "pcls4_case1", "pcls4_case2"],
)
def test_solver_bit_equal_on_c_and_f_layouts(solver, kind, dims, rank, seeds):
    """The input's memory order does not change a solver's values: C, F and
    stride-2 copies of one tensor give bit-equal factors and residuals."""
    if kind == "general3":  # no problem kind of the harness: als3 on a random tensor
        x, init, _ = _als_start("als3", dims, rank, seed=seeds[0])
    else:
        problem_seed, start_seed = seeds
        x, truth = generate_problem(kind, dims, rank, np.random.default_rng(problem_seed), 0.5)
        shapes = [f.shape for f in truth.factors]
        init = initialize(shapes, np.random.default_rng(start_seed), truth, 0.3)
        init = init[0] if kind == "fsym4" else init
    cfg = SolverConfig(max_iters=40)
    ys = (np.ascontiguousarray(x), np.asfortranarray(x), _strided(x))
    (m0, t0), *others = [solver(y, rank, init, cfg) for y in ys]
    for m1, t1 in others:
        assert t0.residuals == t1.residuals
        for f0, f1 in zip(m0.factors, m1.factors):
            np.testing.assert_array_equal(f0, f1)


@pytest.mark.parametrize(
    "build,gram,rank,tol",
    [
        (lambda rng: _with_spectrum(rng, 300, np.logspace(0, -3, 17)), True, 17, 1e-9),
        (lambda rng: _with_spectrum(rng, 300, np.logspace(0, -5, 17)), False, 17, 1e-12),
        (lambda rng: np.zeros((40, 6)), False, 0, 0.0),
        # m.T @ m overflows to inf
        (lambda rng: 1e160 * rng.standard_normal((40, 6)), False, 6, 1e-12),
    ],
    ids=["cond-1e3-gram", "cond-1e5-qr", "zero-qr", "overflowing-gram-qr"],
)
def test_tall_solve_takes_gram_path_only_when_well_conditioned(monkeypatch, build, gram, rank, tol):
    """A tall solve goes through m's singular basis (no QR, one lstsq call on
    an R x R system with the same right-hand sides) exactly when its Gram's
    eigenvalue ratio clears the guard, and counts each QR fallback."""
    rng = np.random.default_rng(7)
    m = build(rng)
    rhs = rng.standard_normal((m.shape[0], 9))
    ref = np.linalg.lstsq(m, rhs)[0]
    calls = []
    plain_lstsq, plain_qr = np.linalg.lstsq, np.linalg.qr

    def counted(a, b, rcond=None):
        out = plain_lstsq(a, b, rcond=rcond)
        calls.append((a.shape, b.shape, out[2]))
        return out

    def qr(a):
        if gram:
            raise AssertionError("well-conditioned solve reached np.linalg.qr")
        return plain_qr(a)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    monkeypatch.setattr(np.linalg, "qr", qr)
    run = _solve_run()
    sol = run.lstsq(m, rhs)
    r = m.shape[1]
    assert calls == [((r, r), (r, rhs.shape[1]), rank)]
    assert run.diag.get("ill_conditioned_solves", 0) == int(not gram)
    assert run.diag.get("rank_deficient_solves", 0) == int(rank < r)
    assert np.isfinite(sol).all()
    assert np.linalg.norm(sol - ref) <= tol * np.linalg.norm(ref)


def test_tall_solve_accepts_one_right_hand_side():
    rng = np.random.default_rng(8)
    m = _with_spectrum(rng, 60, np.logspace(0, -2, 5))
    rhs = rng.standard_normal(60)
    sol = _solve_run().lstsq(m, rhs)
    ref = np.linalg.lstsq(m, rhs, rcond=None)[0]
    assert sol.shape == (5,)
    assert np.linalg.norm(sol - ref) <= 1e-12 * np.linalg.norm(ref)


def test_tall_solve_with_subnormal_gram_takes_the_qr():
    """A well-conditioned m whose squared column norms are subnormal: the
    Gram keeps too few digits, so the solve takes the counted QR, as the
    als refits do, and still matches the plain least-squares solution."""
    rng = np.random.default_rng(0)
    m = 1e-160 * rng.standard_normal((40, 3))
    rhs = 1e-160 * rng.standard_normal((40, 9))
    run = _solve_run()
    sol = run.lstsq(m, rhs)
    ref = np.linalg.lstsq(m, rhs, rcond=None)[0]
    assert run.diag == {"ill_conditioned_solves": 1}
    assert np.linalg.norm(sol - ref) <= 1e-12 * np.linalg.norm(ref)


_THREADS_SCRIPT = """
import hashlib
import json
import numpy as np
from symtensor import SolverConfig, als3_sym, generate_problem, pcls3

out = {}
for dims, r in (((48, 48, 40), 6), ((60, 60, 60), 10)):
    rng = np.random.default_rng(51)
    x, truth = generate_problem("psym3", dims, r, rng, 0.5)
    init = [f + 0.1 * rng.standard_normal(f.shape) for f in truth.factors]
    for solver in (pcls3, als3_sym):
        model, trace = solver(x, r, [f.copy() for f in init], SolverConfig(max_iters=30))
        digest = hashlib.sha256(b"".join(f.tobytes() for f in model.factors)).hexdigest()
        factors = [f.tolist() for f in model.factors]
        out[f"{solver.__name__}-{dims[0]}"] = [trace.stop_reason.value, trace.residuals, digest, factors]
print(json.dumps(out))
"""


def test_results_do_not_depend_on_blas_thread_count():
    """One and two BLAS threads give bit-equal residuals and factors, except
    for pcls3 at 60^3: its C refit's product with the Khatri-Rao factor sums
    over 3,600 terms, and OpenBLAS splits that sum across its threads. There
    the factors agree to 1e-12 of their largest entry (measured 5e-14), and
    the residuals, which fall 13 decades to 9e-11, to 1e-6 relative
    (measured 1.3e-7 at the last one)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(symtensor.__file__)))
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
        res = subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert res.returncode == 0, res.stderr
        results.append(json.loads(res.stdout))
    one, two = results
    assert one.keys() == two.keys() == {"pcls3-48", "als3_sym-48", "pcls3-60", "als3_sym-60"}
    for name in one:
        (stop1, res1, digest1, f1), (stop2, res2, digest2, f2) = one[name], two[name]
        assert stop1 == stop2
        if name == "pcls3-60":
            assert len(res1) == len(res2)
            np.testing.assert_allclose(res2, res1, rtol=1e-6, atol=0)
            for a, b in zip(f1, f2):
                assert np.abs(np.subtract(a, b)).max() <= 1e-12 * np.abs(a).max()
        else:
            assert res1 == res2, name
            assert digest1 == digest2, name


# --------------------------------------------------------------------- #
# Input validation                                                        #
# --------------------------------------------------------------------- #


def test_rank_must_be_positive():
    x, model = make_problem(SymmetryPattern.PSYM3, (4, 4, 3), 1, seed=30)
    with pytest.raises(ValueError, match="rank"):
        pcls3(x, 0, [model.factors[0], model.factors[1]])


def test_pcls_rejects_asymmetric_input():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((4, 4, 3))
    init = [rng.standard_normal((4, 2)), rng.standard_normal((3, 2))]
    with pytest.raises(ValueError, match="symmetric"):
        pcls3(x, 2, init)
    # the rule is relative to max|x|: a 1e-3 relative asymmetry is refused
    # in a 1e-6-scaled tensor, where it is far below 1e-8 in absolute terms
    x, model = make_problem(SymmetryPattern.PSYM3, (4, 4, 3), 2, seed=34)
    x = 1e-6 * x
    x[0, 1, 0] += 1e-3 * np.abs(x).max()
    assert symmetry_defect(x, SymmetryPattern.PSYM3) < 1e-8
    with pytest.raises(ValueError, match=r"not psym3-symmetric within 1e-08 times its largest \|entry\|"):
        pcls3(x, 2, [m.copy() for m in model.factors])


def test_pcls_accepts_roundoff_asymmetry_at_large_scale():
    """The symmetry rule is relative to max|x|: a roundoff-level asymmetry
    (3e-15 of max|x|) in a 1e6-scaled tensor passes, though it is far above
    1e-8 in absolute terms."""
    x, model = make_problem(SymmetryPattern.FSYM4, (4, 4, 4, 4), 2, seed=33)
    x = 1e6 * x
    x[0, 1, 2, 3] += 3e-15 * np.abs(x).max()
    assert symmetry_defect(x, SymmetryPattern.FSYM4) > 1e-8
    _, trace = pcls4_full(x, 2, model.factors[0], SolverConfig(max_iters=2))
    assert trace.iterations >= 1


def test_shape_preconditions():
    rng = np.random.default_rng(32)
    with pytest.raises(ValueError, match="I x I x K"):
        pcls3(rng.standard_normal((3, 4, 5)), 2, [np.ones((3, 2)), np.ones((5, 2))])
    with pytest.raises(ValueError, match="I x J x I x J"):
        pcls4_case1(rng.standard_normal((3, 4, 3, 5)), 2, [np.ones((3, 2)), np.ones((4, 2))])
    with pytest.raises(ValueError, match="I x I x I x I"):
        pcls4_full(rng.standard_normal((3, 3, 3, 4)), 2, np.ones((3, 2)))
    with pytest.raises(ValueError, match="order-3"):
        als3(rng.standard_normal((3, 3)), 1, [np.ones((3, 1))] * 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308, "nan-factor", "huge-factor"])
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_non_finite_or_overflowing_input_rejected(name, bad):
    solver, pattern, dims = SOLVERS[name]
    x, model = make_problem(pattern, dims, 2, seed=39)
    init = truth_init(name, model)
    last = init if name in ("als4_sym", "pcls4_full") else init[-1]
    if bad == "nan-factor":
        last[0, 0] = np.nan
        problem = "starting factor [ABC] has non-finite"
    elif bad == "huge-factor":
        # beyond the scale guard: LAPACK failed on such starts mid-solve
        last *= 1e100
        problem = r"starting factor [ABC] has an entry of magnitude .*e\+100"
    else:
        x[(0,) * x.ndim] = bad
        problem = "overflows" if np.isfinite(bad) else "non-finite"
    with pytest.raises(ValueError, match=problem):
        solver(x, 2, init, SolverConfig(max_iters=3))


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_zero_size_tensor_rejected(name):
    """A zero size fails the pattern's shape rule before any entry is read."""
    solver, pattern, dims = SOLVERS[name]
    _, model = make_problem(pattern, dims, 2, seed=40)
    zero = tuple(0 if f == 0 else d for d, f in zip(dims, pattern.mode_factors))
    message = rf"{name} expects an .* tensor, got {re.escape(str(zero))}"
    with pytest.raises(ValueError, match=message):
        solver(np.zeros(zero), 2, truth_init(name, model), SolverConfig(max_iters=3))


def test_pcls4_full_rank_cap():
    x, _ = make_problem(SymmetryPattern.FSYM4, (2, 2, 2, 2), 1, seed=33)
    with pytest.raises(ValueError, match="exceeds"):
        pcls4_full(x, 5, np.ones((2, 5)))


def test_wrong_factor_shape_reported():
    x, model = make_problem(SymmetryPattern.PSYM3, (4, 4, 3), 2, seed=34)
    with pytest.raises(ValueError, match="shape"):
        pcls3(x, 2, [np.ones((5, 2)), model.factors[1]])


def test_solver_config_validation():
    for kwargs in (
        {"max_iters": 0},
        {"max_iters": 100.0},
        {"tol": 0.0},
        {"tol": -1.0},
    ):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)
    for seed in (1.5, -1, "1", None):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            SolverConfig(seed=seed)
    assert SolverConfig(seed=np.int64(3)).seed == 3


def test_trace_validation():
    with pytest.raises(ValueError):
        ConvergenceTrace([], [], StopReason.CONVERGED)
    with pytest.raises(ValueError):
        ConvergenceTrace([-1.0], [0.1], StopReason.CONVERGED)
    with pytest.raises(ValueError):
        ConvergenceTrace([1.0, 0.5], [0.1], StopReason.CONVERGED)
    tr = ConvergenceTrace([1.0, 0.5], [0.1, 0.1], StopReason.MAX_ITERS)
    assert tr.iterations == 2
    assert tr.final_residual == 0.5


# --------------------------------------------------------------------- #
# Initialization strategies                                               #
# --------------------------------------------------------------------- #


def test_initialize_random_gaussian_shapes_and_determinism():
    shapes = [(4, 2), (3, 2)]
    a = initialize(shapes, np.random.default_rng(5))
    b = initialize(shapes, np.random.default_rng(5))
    assert [f.shape for f in a] == shapes
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_initialize_perturbed_truth_sigma_zero_is_exact():
    _, model = make_problem(SymmetryPattern.PSYM3, (4, 4, 3), 2, seed=35)
    out = initialize([f.shape for f in model.factors], np.random.default_rng(0), model)
    assert all(np.array_equal(o, f) for o, f in zip(out, model.factors))


def test_initialize_validation():
    _, model = make_problem(SymmetryPattern.PSYM3, (4, 4, 3), 2, seed=36)
    shapes = [f.shape for f in model.factors]
    for sigma in (-0.1, float("nan")):
        for reference in (None, model):
            with pytest.raises(ValueError, match="sigma"):
                initialize(shapes, np.random.default_rng(0), reference, sigma)
    with pytest.raises(ValueError, match="shapes"):
        initialize([(5, 2), (3, 2)], np.random.default_rng(0), model, 0.1)


def test_init_count_validation():
    x, model = make_problem(SymmetryPattern.PSYM3, (4, 4, 3), 2, seed=37)
    with pytest.raises(ValueError, match="two initial factors"):
        pcls3(x, 2, [model.factors[0]])
    with pytest.raises(ValueError, match="three initial factors"):
        als3(x, 2, [model.factors[0], model.factors[1]])

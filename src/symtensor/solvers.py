"""Alternating least-squares baseline and partial column-wise least-squares
solvers for symmetric outer product decomposition.

All solvers return a (FactorModel, ConvergenceTrace) pair, record one
residual per outer iteration, and stop on tolerance, iteration cap, or a
stalled residual. They are deterministic given their inputs and
SolverConfig.seed (the seed only drives the dead-column redraws).

Each solver is its own set-up plus a ``step()`` that performs one outer
iteration and returns the model's factors. One private object per call,
``_Run``, does the rest: it checks the input (shape against the symmetry
pattern, finite entries and a finite squared norm, and the symmetry itself
for the pcls solvers), copies the starting factors, and owns the counted
least-squares solve, the column sweep with its dead-column redraws, and
the loop that computes the residual, applies the stopping rules and times
every iteration. The solve reduces a tall system ``m x = rhs`` with R
columns to an R x R one: a well-conditioned system in m's singular basis,
taken from the eigendecomposition of the Gram ``m.T @ m``, and an
ill-conditioned one by the thin QR ``m = QR``. Either way
``np.linalg.lstsq`` gets one square system with m's singular values, the
same right-hand sides and the cutoff of the unreduced system; square and
wide systems go to it unchanged. The sweep symmetrizes all R target columns
and converts them to Python lists in one pass, then calls
``_kernels.coordinate_sweep`` once per live column. The residual is one
Khatri-Rao GEMM (see :func:`core.residual_sq`). ``_Run`` and the steps call
the core and numerics functions through this module's globals, and
``np.linalg.lstsq`` and ``_kernels.coordinate_sweep`` as module attributes,
so rebinding one of those names times or replaces that layer for every
solver.
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from . import _kernels
from .core import (
    FactorModel,
    SymmetryPattern,
    khatri_rao,
    mode_n_matricize,
    residual_sq,
    square_matricize,
    symmetry_check,
)
from .numerics import (
    ClippedEigenvaluesWarning,
    qr_orthogonal_factor,
    symmetric_psd_factor,
)

__all__ = [
    "StopReason",
    "SolverConfig",
    "ConvergenceTrace",
    "initialize",
    "als3",
    "als3_sym",
    "als4_sym",
    "pcls3",
    "pcls4_case1",
    "pcls4_case2",
    "pcls4_full",
]

_SYM_PRE_TOL = 1e-8
_DEAD_COLUMN_REL = 1e-14
# ``_Run.lstsq`` solves a tall system from its Gram only above this eigenvalue
# ratio (cond < 1e4: squaring it costs at most about 1e8 * eps). Systems that
# are rank-deficient at the default cutoff fall far below it and take the QR.
_GRAM_COND_REL = 1e-8
_ORTHO_DRIFT_TOL = 1e-8
# A run stalls when its residual moves by at most _STALL_EPS relative over the
# last _STALL_WINDOW iterations. Both are fixed: no caller sets them, and the
# acceptance gates' iteration counts and stall outcomes are measured with
# these values.
_STALL_WINDOW = 50
_STALL_EPS = 1e-14


class StopReason(Enum):
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    STALLED = "Stalled"


@dataclass(frozen=True)
class SolverConfig:
    """Iteration and stopping parameters shared by every solver.

    max_iters caps the outer iterations; tol applies to the squared
    Frobenius residual; seed drives only the dead-column redraws inside the
    PCLS sweeps.
    """

    max_iters: int = 20000
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass
class ConvergenceTrace:
    """Per-iteration solver history.

    residuals[i] is the squared Frobenius residual after outer iteration
    i+1; elapsed[i] the wall-clock seconds that iteration took. The
    symmetry_defect list is filled only by als3_sym (Frobenius distance
    between the two factors that model symmetric modes). diagnostics holds
    solver-specific counters (rank-deficient solves, redrawn columns,
    clipped eigenvalue mass, factor-space residuals), and
    "ill_conditioned_solves", the tall solves whose Gram was too
    ill-conditioned for the singular-basis path and took the thin QR.
    """

    residuals: list[float]
    elapsed: list[float]
    stop_reason: StopReason
    symmetry_defect: list[float] | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.residuals:
            raise ValueError("trace must contain at least one iteration")
        if any(r < 0 for r in self.residuals):
            raise ValueError("residuals must be nonnegative")
        if len(self.elapsed) != len(self.residuals):
            raise ValueError("elapsed and residuals must have equal length")

    @property
    def iterations(self) -> int:
        return len(self.residuals)

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]


def initialize(
    shapes: Sequence[tuple[int, int]],
    rng: np.random.Generator,
    reference: FactorModel | None = None,
    sigma: float = 0.0,
) -> list[np.ndarray]:
    """Draw starting factor matrices of the given shapes.

    Without a reference every factor is standard normal, drawn in order.
    With one, each reference factor gets sigma * standard normal noise
    added entrywise; its factors must have exactly ``shapes``.
    """
    if not sigma >= 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    shapes = [tuple(s) for s in shapes]
    if reference is None:
        return [rng.standard_normal(s) for s in shapes]
    ref = reference.factors
    if [f.shape for f in ref] != shapes:
        raise ValueError(
            f"reference factors have shapes {[f.shape for f in ref]}, "
            f"solver needs {shapes}"
        )
    return [f + sigma * rng.standard_normal(f.shape) for f in ref]


# The rank-one refits leave each summand's internal scale split
# unconstrained ((t a_r) (t a_r)^T (c_r / t^2) reconstructs identically), and
# on long plateaus the split drifts exponentially until (A (x) A) or the
# coordinate quartic coefficients overflow and LAPACK raises mid-solve. The
# residual is invariant under the split, so once a factor's magnitude leaves
# this band no representable progress remains and the loop reports Stalled.
_SCALE_LIMIT = 1e60


def _scales_sane(factors: Sequence[np.ndarray]) -> bool:
    for f in factors:
        m = float(np.abs(f).max()) if f.size else 0.0
        if not math.isfinite(m) or m > _SCALE_LIMIT:
            return False
        if 0.0 < m < 1.0 / _SCALE_LIMIT:
            return False
    return True


class _Run:
    """One solver call: the checked input, the starting factors, and what
    every iteration shares.

    The constructor checks the tensor's shape against ``pattern`` (the
    pattern whose factor rows the starting factors have), rejects
    non-finite entries and a squared norm that overflows, checks the
    symmetry itself when ``symmetric`` (the pcls preconditions), and
    copies one starting factor per label, rejecting non-finite ones.
    ``lstsq`` counts rank-deficient solves, ``sweep`` refits factor columns,
    and ``iterate`` runs a solver's ``step`` until a stop.
    """

    def __init__(self, name, x, r, init, cfg, pattern, shape, labels, symmetric=False):
        self.cfg = cfg or SolverConfig()
        self.x = x = np.asarray(x, dtype=np.float64)
        try:
            rows = pattern.factor_rows(x.shape)
        except ValueError:
            raise ValueError(f"{name} expects an {shape} tensor, got {x.shape}") from None
        with np.errstate(over="ignore"):
            norm_sq = float(np.sum(x * x))
        if not math.isfinite(norm_sq):
            if not np.isfinite(x).all():
                raise ValueError("input tensor has non-finite entries (NaN or inf)")
            raise ValueError(
                "input tensor's squared Frobenius norm overflows float64 "
                f"(largest |entry| {float(np.abs(x).max()):.3g})"
            )
        if symmetric and not symmetry_check(x, pattern, _SYM_PRE_TOL):
            raise ValueError(
                f"input tensor is not {pattern.value}-symmetric within {_SYM_PRE_TOL:g}"
            )
        if r < 1:
            raise ValueError("rank must be >= 1")
        if len(init) != len(labels):
            count = ("one", "two", "three")[len(labels) - 1]
            raise ValueError(f"{name} needs {count} initial factors ({', '.join(labels)})")
        self.factors = []
        for a, label, n in zip(init, labels, rows):
            a = np.array(a, dtype=np.float64)
            if a.shape != (n, r):
                raise ValueError(f"{label} must have shape ({n}, {r}), got {a.shape}")
            if not np.isfinite(a).all():
                raise ValueError(f"starting factor {label} has non-finite entries (NaN or inf)")
            self.factors.append(a)
        self.diag: dict = {}
        self.residuals: list[float] = []
        self.elapsed: list[float] = []
        self.rng = np.random.default_rng(self.cfg.seed)

    def lstsq(self, m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares solve that counts rank-deficient systems.

        A tall ``m`` (more rows than columns) is reduced first. With the
        eigendecomposition ``m.T @ m = V diag(lam) V.T`` of its R x R Gram,
        m's singular values are ``s = sqrt(lam)`` and its right singular
        vectors are V. When ``lam_min > _GRAM_COND_REL * lam_max`` (cond(m)
        < 1e4), ``np.linalg.lstsq`` receives ``diag(s)`` and
        ``diag(1/s) V.T m.T rhs``, and the solution is V times its result.
        Otherwise, a zero or non-finite Gram included, the solve counts one
        ``ill_conditioned_solves`` and takes the thin QR ``m = QR``:
        ``np.linalg.lstsq`` receives the square R and ``Q.T @ rhs``. Either
        way the reduced system has m's singular values and one call solves
        every right-hand side, so the solution and the rank are those of the
        unreduced system. The cutoff is machine epsilon times max(rows,
        cols) of m, not of the reduced system, which would keep more
        singular values. Square and wide systems go to ``np.linalg.lstsq``
        as they are.
        """
        # numpy's own default cutoff for m. It is fixed: no caller sets
        # another, and the rank-deficient counts are measured with it.
        cut = np.finfo(np.float64).eps * max(m.shape)
        a, b, basis = m, rhs, None
        if m.shape[0] > m.shape[1]:
            with np.errstate(over="ignore"):
                gram = m.T @ m
            well = np.isfinite(gram).all()
            if well:
                lam, v = np.linalg.eigh(gram)
                well = lam[0] > _GRAM_COND_REL * lam[-1]
            if well:
                s, basis = np.sqrt(lam[::-1]), v[:, ::-1]
                a, b = np.diag(s), (basis / s).T @ (m.T @ rhs)
            else:
                self.diag["ill_conditioned_solves"] = self.diag.get("ill_conditioned_solves", 0) + 1
                q, a = np.linalg.qr(m)
                b = q.T @ rhs
        sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=cut)
        if rank < m.shape[1]:
            self.diag["rank_deficient_solves"] = self.diag.get("rank_deficient_solves", 0) + 1
            self.diag.setdefault("first_rank_deficient_iteration", len(self.residuals) + 1)
        return sol if basis is None else basis @ sol

    def sweep(self, a: np.ndarray, g: np.ndarray) -> None:
        """Update every column of ``a`` in place by coordinate minimization.

        Column r fits the unvec of g[:, r] as an outer product a_r a_r^T.
        All R columns are symmetrized and converted to Python lists in one
        pass, and ``_kernels.coordinate_sweep`` runs once per live column on
        its list; ``a`` is written back once. Numerically dead columns of g
        cannot steer their summand, so the matching column of a is redrawn
        from a standard normal instead, in column order.
        """
        n, rank = a.shape
        floor = _DEAD_COLUMN_REL * float(np.linalg.norm(g))
        norms = np.linalg.norm(g, axis=0)
        g3 = g.reshape(n, n, rank, order="F")
        rows = (g3 + g3.transpose(1, 0, 2)).transpose(2, 0, 1).tolist()
        cols = a.T.tolist()
        for r in range(rank):
            if norms[r] <= floor:
                cols[r] = self.rng.standard_normal(n)
                self.diag["redrawn_columns"] = self.diag.get("redrawn_columns", 0) + 1
            else:
                _kernels.coordinate_sweep(cols[r], rows[r])
        a[:] = np.transpose(cols)

    def iterate(self, step, pattern: SymmetryPattern, defects: list[float] | None = None):
        """Run ``step`` (one outer iteration, returning the model's factors)
        until a stop. Each iteration's clock covers the step, the residual
        and the stopping checks."""
        reason = StopReason.MAX_ITERS
        for _ in range(self.cfg.max_iters):
            t0 = time.perf_counter()
            factors = step()
            self.residuals.append(residual_sq(self.x, FactorModel(pattern, factors)))
            stop = self._stop(factors)
            self.elapsed.append(time.perf_counter() - t0)
            if stop is not None:
                reason = stop
                break
        model = FactorModel(pattern, factors)
        return model, ConvergenceTrace(self.residuals, self.elapsed, reason, defects, self.diag)

    def _stop(self, factors: list[np.ndarray]) -> StopReason | None:
        """Tolerance, stall window and factor-scale guard, in that order."""
        res = self.residuals[-1]
        if res <= self.cfg.tol:
            return StopReason.CONVERGED
        if len(self.residuals) > _STALL_WINDOW:
            prev = self.residuals[-1 - _STALL_WINDOW]
            if abs(res - prev) <= _STALL_EPS * max(prev, 1e-300):
                return StopReason.STALLED
        if not _scales_sane(factors):
            self.diag["scale_guard_iteration"] = len(self.residuals)
            return StopReason.STALLED
        return None


def _als(run: _Run, f: list[np.ndarray], pattern: SymmetryPattern, defects=None):
    """Gauss-Seidel alternating least squares on the general model ``f``.

    Factor n is refit against the mode-n matricization and the Khatri-Rao
    chain of the other factors, highest mode first. With ``defects``, the
    Frobenius distance between the first two factors is recorded after
    every sweep.
    """
    unfolds = [mode_n_matricize(run.x, n) for n in range(len(f))]

    def step() -> list[np.ndarray]:
        for n in range(len(f)):
            others = [f[i] for i in reversed(range(len(f))) if i != n]
            m = others[0]
            for g in others[1:]:
                m = khatri_rao(m, g)
            f[n] = run.lstsq(m, unfolds[n].T).T
        if defects is not None:
            defects.append(float(np.linalg.norm(f[0] - f[1])))
        return f

    return run.iterate(step, pattern, defects)


def als3(
    x: np.ndarray,
    r: int,
    init: Sequence[np.ndarray],
    cfg: SolverConfig | None = None,
) -> tuple[FactorModel, ConvergenceTrace]:
    """Three-way alternating least squares with Gauss-Seidel sweeps A, B, C."""
    run = _Run("als3", x, r, init, cfg, SymmetryPattern.GENERAL3, "order-3", "ABC")
    return _als(run, run.factors, SymmetryPattern.GENERAL3)


def als3_sym(
    x: np.ndarray,
    r: int,
    init: Sequence[np.ndarray],
    cfg: SolverConfig | None = None,
) -> tuple[FactorModel, ConvergenceTrace]:
    """als3 seeded with equal factors in the two symmetric modes.

    The factors evolve independently after the seeding, so the result is a
    general three-way model; the per-iteration Frobenius distance between
    the first two factors is recorded as the trace's symmetry defect.
    """
    run = _Run("als3_sym", x, r, init, cfg, SymmetryPattern.PSYM3, "I x I x K", "AC")
    a, c = run.factors
    return _als(run, [a, a.copy(), c], SymmetryPattern.GENERAL3, defects=[])


def als4_sym(
    x: np.ndarray,
    r: int,
    init: np.ndarray,
    cfg: SolverConfig | None = None,
) -> tuple[FactorModel, ConvergenceTrace]:
    """Four-way alternating least squares seeded with all factors equal.

    The baseline for the fully symmetric fourth-order problem: four
    Gauss-Seidel least-squares updates per sweep against the mode-n
    matricizations, starting from four copies of the single initial factor.
    """
    run = _Run("als4_sym", x, r, [init], cfg, SymmetryPattern.FSYM4, "I x I x I x I", "A")
    a = run.factors[0]
    return _als(run, [a.copy() for _ in range(4)], SymmetryPattern.GENERAL4)


def pcls3(
    x: np.ndarray,
    r: int,
    init: Sequence[np.ndarray],
    cfg: SolverConfig | None = None,
) -> tuple[FactorModel, ConvergenceTrace]:
    """Partial column-wise least squares for I x I x K tensors, symmetric in
    the first two modes.

    Each outer iteration: (1) solve for the symmetric-part targets
    G = (C+ T(3))^T by least squares against the current C; (2) refit each
    column a_r to unvec(G[:, r]) as a rank-one outer product by exact
    per-coordinate quartic minimization, warm started; (3) refit C by least
    squares against (A (x) A). The returned model reuses A in both symmetric
    modes, so its reconstruction is symmetric regardless of convergence.
    """
    pattern = SymmetryPattern.PSYM3
    run = _Run("pcls3", x, r, init, cfg, pattern, "I x I x K", "AC", symmetric=True)
    a, c = run.factors
    t3 = mode_n_matricize(run.x, 2)

    def step() -> list[np.ndarray]:
        nonlocal c
        run.sweep(a, run.lstsq(c, t3).T)
        c = run.lstsq(khatri_rao(a, a), t3.T).T
        return [a, c]

    return run.iterate(step, pattern)


def pcls4_case1(
    x: np.ndarray,
    r: int,
    init: Sequence[np.ndarray],
    cfg: SolverConfig | None = None,
) -> tuple[FactorModel, ConvergenceTrace]:
    """Partial column-wise least squares for I x J x I x J tensors invariant
    under swapping modes (1,3) and modes (2,4).

    The square matricization factors as (A (x) A)(B (x) B)^T, so the A and B
    updates are two mirrored column-wise quartic fits.
    """
    pattern = SymmetryPattern.PSYM4_CASE1
    run = _Run("pcls4_case1", x, r, init, cfg, pattern, "I x J x I x J", "AB", symmetric=True)
    a, b = run.factors
    m = square_matricize(run.x)

    def step() -> list[np.ndarray]:
        run.sweep(a, run.lstsq(khatri_rao(b, b), m.T).T)
        run.sweep(b, run.lstsq(khatri_rao(a, a), m).T)
        return [a, b]

    return run.iterate(step, pattern)


def pcls4_case2(
    x: np.ndarray,
    r: int,
    init: Sequence[np.ndarray],
    cfg: SolverConfig | None = None,
) -> tuple[FactorModel, ConvergenceTrace]:
    """Partial column-wise least squares for I x J x I x K tensors invariant
    under swapping modes (1,3).

    A is fit column-wise against the square matricization
    (A (x) A)(B (x) C)^T; B and C are then refit by plain least squares
    against the mode-2 and mode-4 matricizations.
    """
    pattern = SymmetryPattern.PSYM4_CASE2
    run = _Run("pcls4_case2", x, r, init, cfg, pattern, "I x J x I x K", "ABC", symmetric=True)
    a, b, c = run.factors
    m = square_matricize(run.x)
    x2 = mode_n_matricize(run.x, 1)
    x4 = mode_n_matricize(run.x, 3)

    def step() -> list[np.ndarray]:
        nonlocal b, c
        run.sweep(a, run.lstsq(khatri_rao(b, c), m.T).T)
        b = run.lstsq(khatri_rao(c, khatri_rao(a, a)), x2.T).T
        c = run.lstsq(khatri_rao(a, khatri_rao(b, a)), x4.T).T
        return [a, b, c]

    return run.iterate(step, pattern)


def pcls4_full(
    x: np.ndarray,
    r: int,
    init: np.ndarray,
    cfg: SolverConfig | None = None,
) -> tuple[FactorModel, ConvergenceTrace]:
    """Partial column-wise least squares for fully symmetric I^4 tensors.

    Setup factors the square matricization as T ~= E E^T (eigenvalue
    clipping is surfaced in the trace diagnostics). Each iteration then
    fits A column-wise to G = E Q^T, refits P = argmin ||E - (A (x) A) P||,
    and takes Q as P's orthonormal QR factor. The starting Q is aligned to
    the initial A by one such refit, which makes an exact-truth start an
    exact fixed point. Residuals are tensor-space; the factor-space
    residuals ||E - (A (x) A) Q||_F^2 land in diagnostics["e_residuals"].
    """
    pattern = SymmetryPattern.FSYM4
    run = _Run("pcls4_full", x, r, [init], cfg, pattern, "I x I x I x I", "A", symmetric=True)
    n = run.x.shape[0]
    if r > n * n:
        raise ValueError(f"rank {r} exceeds I^2 = {n * n}")
    a = run.factors[0]
    diag = run.diag
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ClippedEigenvaluesWarning)
        e = symmetric_psd_factor(square_matricize(run.x), r)
    for w in caught:
        if isinstance(w.message, ClippedEigenvaluesWarning):
            diag["clipped_mass"] = w.message.clipped_mass
            diag["clipped_count"] = w.message.count

    e_residuals: list[float] = []
    diag["e_residuals"] = e_residuals
    q = qr_orthogonal_factor(run.lstsq(khatri_rao(a, a), e))

    def step() -> list[np.ndarray]:
        nonlocal q
        if float(np.linalg.norm(q.T @ q - np.eye(r))) > _ORTHO_DRIFT_TOL:
            q = qr_orthogonal_factor(q)
            diag["reorthogonalized"] = diag.get("reorthogonalized", 0) + 1
        run.sweep(a, e @ q.T)
        aa = khatri_rao(a, a)
        q = qr_orthogonal_factor(run.lstsq(aa, e))
        d = e - aa @ q
        e_residuals.append(float(np.sum(d * d)))
        return [a]

    return run.iterate(step, pattern)

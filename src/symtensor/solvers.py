"""Alternating least-squares baseline and partial column-wise least-squares
solvers for symmetric outer product decomposition.

All solvers return a (FactorModel, ConvergenceTrace) pair, record one
residual per outer iteration, and stop on tolerance, iteration cap, or a
stalled residual. They are deterministic given their inputs and
SolverConfig.seed (the seed only drives the dead-column redraws).

Each solver is its own set-up plus a ``step()`` that performs one outer
iteration and returns the model's factors. One private object per call,
:class:`_Run`, checks the input and the starting factors and owns what
every step shares: the counted least-squares solve (:meth:`_Run._solve`),
the column sweep (:meth:`_Run.sweep`) and the loop with its stopping rules
(:meth:`_Run.iterate`). The pcls solves and the als refits (:func:`_als`)
trust a Gram matrix by one rule, :func:`_factor_gram`'s. ``_Run`` and the
steps call the core functions and :func:`qr_orthogonal_factor` through this
module's globals, and ``np.linalg.lstsq`` and ``_kernels.coordinate_sweep``
as module attributes, so rebinding one of those names times or replaces
that layer for every solver.
"""
from __future__ import annotations

import functools
import math
import numbers
import time
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
_NORMAL_MIN = np.finfo(np.float64).tiny
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
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass
class ConvergenceTrace:
    """Per-iteration solver history.

    residuals[i] is the squared Frobenius residual after outer iteration
    i+1; elapsed[i] the wall-clock seconds that iteration took. The
    symmetry_defect list is filled only by als3_sym (Frobenius distance
    between the two factors that model symmetric modes). diagnostics holds
    only the keys whose event happened: "rank_deficient_solves" and
    "first_rank_deficient_iteration"; "ill_conditioned_solves", the tall
    solves whose Gram was too ill-conditioned for the singular-basis path
    and took the thin QR; "redrawn_columns", the dead columns the pcls
    sweeps redrew; "clipped_count" and "clipped_mass", the negative
    eigenvalues pcls4_full's set-up clipped; and "scale_guard_iteration",
    the iteration at which the factor-scale guard stopped the run.
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
    copies one starting factor per label, rejecting non-finite ones and ones
    with an entry beyond ``_SCALE_LIMIT``, which no refit could recover
    from. ``lstsq`` and ``_solve`` count rank-deficient solves, ``sweep``
    refits factor columns, and ``iterate`` runs a solver's ``step`` until a
    stop.
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
            big = float(np.abs(a).max(initial=0.0))
            if big > _SCALE_LIMIT:
                raise ValueError(
                    f"starting factor {label} has an entry of magnitude {big:.3g}, "
                    f"beyond the scale limit {_SCALE_LIMIT:g}"
                )
            self.factors.append(a)
        self.diag: dict = {}
        self.residuals: list[float] = []
        self.elapsed: list[float] = []
        self.rng = np.random.default_rng(self.cfg.seed)

    def lstsq(self, m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares solve that counts rank-deficient systems:
        ``_solve`` on ``_factor_gram(m)`` and ``m.T @ rhs`` when m is tall,
        with m and rhs kept for its QR fallback."""
        gram = mtr = None
        if m.shape[0] > m.shape[1]:
            gram, mtr = _factor_gram(m), m.T @ rhs
        return self._solve(gram, mtr, m.shape[0], lambda: (m, rhs))

    def _solve(self, gram, mtr, rows: int, build) -> np.ndarray:
        """Solve ``m x = rhs`` from the R x R Gram ``m.T @ m``, ``mtr = m.T @
        rhs`` and m's row count; ``build()`` returns ``(m, rhs)`` and is
        called only when the Gram path is closed.

        With the eigendecomposition ``gram = V diag(lam) V.T``, m's singular
        values are ``s = sqrt(lam)`` and its right singular vectors are V.
        When m is tall and ``lam_min > _GRAM_COND_REL * lam_max`` (cond(m) <
        1e4), ``np.linalg.lstsq`` receives ``diag(s)`` and ``diag(1/s) V.T
        mtr``, and the solution is V times its result. Otherwise, a zero or
        non-finite Gram included, a tall solve counts one
        ``ill_conditioned_solves`` and takes the thin QR ``m = QR``:
        ``np.linalg.lstsq`` receives the square R and ``Q.T @ rhs``. Either
        way the reduced system has m's singular values and one call solves
        every right-hand side, so the solution and the rank are those of the
        unreduced system. The cutoff is machine epsilon times max(rows,
        cols) of m, not of the reduced system, which would keep more
        singular values. Square and wide systems go to ``np.linalg.lstsq``
        as they are.
        """
        basis = None
        well = gram is not None and rows > len(gram) and np.isfinite(gram).all()
        if well:
            lam, v = np.linalg.eigh(gram)
            well = lam[0] > _GRAM_COND_REL * lam[-1]
        if well:
            s, basis = np.sqrt(lam[::-1]), v[:, ::-1]
            a, b = np.diag(s), (basis / s).T @ mtr
        else:
            a, b = build()
            if rows > a.shape[1]:
                self.diag["ill_conditioned_solves"] = self.diag.get("ill_conditioned_solves", 0) + 1
                q, a = np.linalg.qr(a)
                b = q.T @ b
        # numpy's own default cutoff for m. It is fixed: no caller sets
        # another, and the rank-deficient counts are measured with it.
        cut = np.finfo(np.float64).eps * max(rows, a.shape[1])
        sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=cut)
        if rank < a.shape[1]:
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

    Refit n solves ``m f[n].T = X_(n).T``, with m the Khatri-Rao chain of
    the other factors, highest mode first, and X_(n) the mode-n unfolding,
    from its normal-equation pieces; m and X_(n) are built only for the QR
    fallback. The Gram ``m.T @ m`` is the Hadamard product of the other
    factors' Grams, refreshed after each refit. ``m.T @ X_(n).T`` comes from
    the matricization ``xm`` with rows (i0, i1), one GEMM per half of the
    modes: modes 0 and 1 share ``xm`` times f[2] (f[3] (.) f[2] at order 4)
    and each contracts it with its partner in one einsum; modes 2 and 3 do
    the same with ``xm.T`` times the new f[1] (.) f[0]. Each refit sees the
    factors the plain chain would. With ``defects``, the Frobenius distance
    between the first two factors is recorded after every sweep.
    """
    dims = run.x.shape
    xm = run.x.reshape(dims[0] * dims[1], -1, order="F")
    grams = [_factor_gram(a) for a in f]

    def refit(n: int, mtr: np.ndarray) -> None:
        others = [i for i in reversed(range(len(f))) if i != n]

        def build():
            m = f[others[0]]
            for i in others[1:]:
                m = khatri_rao(m, f[i])
            return m, mode_n_matricize(run.x, n).T

        with np.errstate(over="ignore", invalid="ignore"):
            gram = functools.reduce(np.multiply, [grams[i] for i in others])
        f[n] = run._solve(gram, mtr, math.prod(dims) // dims[n], build).T
        grams[n] = _factor_gram(f[n])

    def pair(prod: np.ndarray, n: int) -> None:
        """Refit modes n and n + 1 from ``prod``: x contracted with the other
        half's factors, row i_n + I_n * i_{n+1}, column r."""
        w = prod.reshape(dims[n + 1], dims[n], -1)
        refit(n, np.einsum("jir,jr->ri", w, f[n + 1]))
        refit(n + 1, np.einsum("jir,ir->rj", w, f[n]))

    def step() -> list[np.ndarray]:
        pair(xm @ (f[2] if len(f) == 3 else khatri_rao(f[3], f[2])), 0)
        v = xm.T @ khatri_rao(f[1], f[0])
        if len(f) == 3:
            refit(2, v.T)
        else:
            pair(v, 2)
        if defects is not None:
            defects.append(_distance(f[0], f[1]))
        return f

    return run.iterate(step, pattern, defects)


def _factor_gram(a: np.ndarray) -> np.ndarray:
    """``a.T @ a``: inf where it overflows, and NaN where a squared column
    norm is below the smallest normal float (subnormals keep too few digits,
    and in als the other factors' Grams could scale them back into range).
    Either way the Gram, and every Hadamard Gram it enters, fails
    ``_Run._solve``'s finiteness check and takes the QR."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = a.T @ a
    return g if g.diagonal().min() >= _NORMAL_MIN else np.full_like(g, np.nan)


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance, scaled by the largest absolute difference so that
    squaring entries near the scale guard cannot overflow."""
    d = a - b
    big = float(np.abs(d).max())
    return big * float(np.linalg.norm(d / big)) if 0.0 < big < math.inf else float(np.linalg.norm(d))


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


def qr_orthogonal_factor(p: np.ndarray) -> np.ndarray:
    """Orthonormal-column Q of the reduced QR of p, diag(R) made nonnegative.

    The sign convention pins the factorization uniquely for full-rank input,
    so an input that already has orthonormal columns is returned unchanged
    up to roundoff.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("qr_orthogonal_factor expects a matrix")
    if p.shape[0] < p.shape[1]:
        raise ValueError(f"need rows >= cols, got shape {p.shape}")
    q, r = np.linalg.qr(p)
    signs = np.sign(np.diagonal(r)).copy()
    signs[signs == 0.0] = 1.0
    return q * signs


def _psd_factor(t: np.ndarray, r: int) -> tuple[np.ndarray, int, float]:
    """Rank-r factor E of a symmetric n x n t (E E^T ~= t, 1 <= r <= n), with
    the count and total magnitude of the negative eigenvalues beyond
    roundoff (below -1e-10 max|w|). Negative eigenvalues are clipped to zero;
    E's columns are eigenvectors scaled by the square roots of the r largest
    eigenvalues, descending, so ||t - E E^T||_F^2 is exactly the sum of the
    squared discarded and clipped eigenvalues."""
    w, u = np.linalg.eigh(0.5 * (t + t.T))
    w = w[::-1].copy()
    u = u[:, ::-1]
    significant = w < -1e-10 * float(np.max(np.abs(w)))
    count, mass = int(significant.sum()), float(-w[significant].sum())
    np.clip(w, 0.0, None, out=w)
    return u[:, :r] * np.sqrt(w[:r]), count, mass


def pcls4_full(
    x: np.ndarray,
    r: int,
    init: np.ndarray,
    cfg: SolverConfig | None = None,
) -> tuple[FactorModel, ConvergenceTrace]:
    """Partial column-wise least squares for fully symmetric I^4 tensors.

    Setup factors the square matricization as T ~= E E^T; eigenvalues
    clipped beyond roundoff land in diagnostics["clipped_count"] and
    ["clipped_mass"], and no warning is raised. Each iteration then
    fits A column-wise to G = E Q^T, refits P = argmin ||E - (A (x) A) P||,
    and takes Q as P's orthonormal QR factor. The starting Q is aligned to
    the initial A by one such refit, which makes an exact-truth start an
    exact fixed point. Residuals are tensor-space.
    """
    pattern = SymmetryPattern.FSYM4
    run = _Run("pcls4_full", x, r, [init], cfg, pattern, "I x I x I x I", "A", symmetric=True)
    n = run.x.shape[0]
    if r > n * n:
        raise ValueError(f"rank {r} exceeds I^2 = {n * n}")
    a = run.factors[0]
    e, count, mass = _psd_factor(square_matricize(run.x), r)
    if count:
        run.diag["clipped_mass"], run.diag["clipped_count"] = mass, count
    q = qr_orthogonal_factor(run.lstsq(khatri_rao(a, a), e))

    def step() -> list[np.ndarray]:
        nonlocal q
        run.sweep(a, e @ q.T)
        q = qr_orthogonal_factor(run.lstsq(khatri_rao(a, a), e))
        return [a]

    return run.iterate(step, pattern)

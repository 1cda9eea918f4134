"""Output checks made apart from the program under test.

Every check returns a list of problems; an empty list means the output
passed. The reference values come from numpy and from problems.outer_sum,
never from symtensor.
"""
from __future__ import annotations

import itertools

import numpy as np

from problems import mode_factors, outer_sum

# The recomputed squared residual must match the trace's final residual to
# this relative tolerance. Measured agreement on the three workloads is
# 2.2e-9 or better; the slack covers the different summation order.
RESIDUAL_RTOL = 1e-6
# Relative symmetry tolerance of tensors built by summing outer products;
# entry-wise roundoff of such sums is a few ulps of the largest entry.
SYMMETRY_RTOL = 1e-12
# An als step may raise the residual by this share of it (roundoff of the
# least-squares solve), plus the roundoff of the residual itself: 16 ulps of
# the largest entry per residual entry, summed as a Cauchy-Schwarz bound.
ALS_STEP_RTOL = 1e-9
ALS_ENTRY_ULPS = 16.0

_PERMS = {
    "psym3": [(1, 0, 2)],
    "fsym4": [p for p in itertools.permutations(range(4)) if p != (0, 1, 2, 3)],
}


def symmetry_defect(x: np.ndarray, pattern: str) -> float:
    """Largest |x - x permuted| over the pattern's swaps; NaN anywhere gives inf."""
    worst = 0.0
    for perm in _PERMS[pattern]:
        d = float(np.max(np.abs(x - x.transpose(perm))))  # np.max keeps NaN
        if np.isnan(d):
            return float("inf")
        worst = max(worst, d)
    return worst


def check_symmetric(x: np.ndarray, pattern: str, what: str) -> list[str]:
    if not np.all(np.isfinite(x)):
        return [f"{what}: non-finite entries"]
    scale = float(np.max(np.abs(x))) if x.size else 0.0
    defect = symmetry_defect(x, pattern)
    if not defect <= SYMMETRY_RTOL * scale:
        return [f"{what}: {pattern} symmetry defect {defect:.3e} (scale {scale:.3e})"]
    return []


def check_round_trip(original: np.ndarray, read_back: np.ndarray, pattern: str) -> list[str]:
    """The tensor read back from file is bit-identical and symmetric."""
    problems = []
    if original.shape != read_back.shape or original.tobytes() != read_back.tobytes():
        problems.append("io round trip: tensor read back differs from the one written")
    return problems + check_symmetric(read_back, pattern, "input tensor")


def recomputed_residual(x: np.ndarray, factors: list[np.ndarray]) -> float:
    d = x - outer_sum(mode_factors(factors, x.ndim))
    return float(np.sum(d * d))


def check_als_monotone(x: np.ndarray, residuals: list[float]) -> list[str]:
    ulp = ALS_ENTRY_ULPS * np.finfo(float).eps * float(np.max(np.abs(x)))
    for k, (prev, cur) in enumerate(zip(residuals, residuals[1:]), start=2):
        allowance = ALS_STEP_RTOL * prev + 2.0 * ulp * np.sqrt(x.size * prev)
        if not cur <= prev + allowance:
            return [f"als residual rose at iteration {k}: {prev:.17g} -> {cur:.17g}"]
    return []


def check_solve(
    x: np.ndarray,
    factors: list[np.ndarray],
    residuals: list[float],
    stop: str,
    tol: float,
    max_iters: int,
    family: str,
    reconstruction: np.ndarray | None = None,
    pattern: str | None = None,
) -> tuple[list[str], float]:
    """Check one solver run; returns (problems, recomputed residual).

    family is "pcls" or "als". For pcls, ``reconstruction`` is the program's
    own reconstruction of the returned model and ``pattern`` the workload's
    symmetry pattern, which that reconstruction must have.
    """
    if not all(np.all(np.isfinite(f)) for f in factors):
        return ["non-finite factor entries"], float("nan")
    final = residuals[-1]
    if not np.isfinite(final):
        return [f"non-finite final residual {final}"], float("nan")
    own = recomputed_residual(x, factors)
    problems = []
    if not abs(own - final) <= RESIDUAL_RTOL * max(own, final) + 1e-300:
        problems.append(f"final residual {final:.17g} but recomputed {own:.17g}")
    if stop == "Converged" and not own <= tol * (1 + RESIDUAL_RTOL):
        problems.append(f"stopped Converged with recomputed residual {own:.3e} > tol {tol:g}")
    if stop != "Converged" and not own > tol * (1 - RESIDUAL_RTOL):
        problems.append(f"stopped {stop} with recomputed residual {own:.3e} within tol {tol:g}")
    if (stop == "MaxIters" and len(residuals) != max_iters) or len(residuals) > max_iters:
        problems.append(f"stopped {stop} after {len(residuals)} of {max_iters} iterations")
    if family == "als":
        problems += check_als_monotone(x, residuals)
    elif reconstruction is not None:
        problems += check_symmetric(reconstruction, pattern, "pcls reconstruction")
    return problems, own

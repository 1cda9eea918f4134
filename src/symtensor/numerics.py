"""Dense linear-algebra and polynomial helpers shared by the solvers.

Everything here is a pure function over float64 arrays. The polynomial
routines wrap the scalar kernels in :mod:`symtensor._kernels`.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels

__all__ = [
    "QuarticCoefficients",
    "ClippedEigenvaluesWarning",
    "qr_orthogonal_factor",
    "symmetric_psd_factor",
    "real_cubic_roots",
    "quartic_global_min",
    "build_coordinate_quartic",
]


@dataclass(frozen=True)
class QuarticCoefficients:
    """Coefficients of f(x) = c4 x^4 + c3 x^3 + c2 x^2 + c1 x + c0."""

    c4: float
    c3: float
    c2: float
    c1: float
    c0: float

    def evaluate(self, x: float) -> float:
        return (((self.c4 * x + self.c3) * x + self.c2) * x + self.c1) * x + self.c0

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.c4, self.c3, self.c2, self.c1, self.c0)


class ClippedEigenvaluesWarning(UserWarning):
    """Negative eigenvalues were clipped to zero in a PSD factorization.

    Attributes: ``count`` of clipped eigenvalues beyond roundoff and their
    total magnitude ``clipped_mass``.
    """

    def __init__(self, clipped_mass: float, count: int):
        self.clipped_mass = clipped_mass
        self.count = count
        super().__init__(
            f"clipped {count} negative eigenvalue(s), total magnitude {clipped_mass:.6e}"
        )


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


def symmetric_psd_factor(t: np.ndarray, r: int) -> np.ndarray:
    """Rank-r factor E (n x r) with E E^T ~= t for symmetric PSD-like t.

    The input is symmetrized, eigendecomposed, and negative eigenvalues are
    clipped to zero; clipping beyond roundoff raises
    :class:`ClippedEigenvaluesWarning`. Columns are eigenvectors scaled by
    the square roots of the r largest eigenvalues, descending, so
    ||t - E E^T||_F^2 is exactly the sum of squared discarded and clipped
    eigenvalues.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {t.shape}")
    n = t.shape[0]
    if not 1 <= r <= n:
        raise ValueError(f"target rank {r} out of range for a {n}x{n} matrix")
    scale = float(np.linalg.norm(t))
    asym = float(np.linalg.norm(t - t.T))
    if asym > 1e-10 * scale:
        raise ValueError(f"matrix is not symmetric: ||t - t^T|| = {asym:.3e}")
    e, count, mass = _psd_factor(t, r)
    if count:
        warnings.warn(ClippedEigenvaluesWarning(mass, count), stacklevel=2)
    return e


def _psd_factor(t: np.ndarray, r: int) -> tuple[np.ndarray, int, float]:
    """:func:`symmetric_psd_factor` without its checks or warning; also returns
    the count and total magnitude of the eigenvalues it clipped beyond roundoff."""
    w, u = np.linalg.eigh(0.5 * (t + t.T))
    w = w[::-1].copy()
    u = u[:, ::-1]
    significant = w < -1e-10 * float(np.max(np.abs(w)))
    count, mass = int(significant.sum()), float(-w[significant].sum())
    np.clip(w, 0.0, None, out=w)
    return u[:, :r] * np.sqrt(w[:r]), count, mass


def real_cubic_roots(c3: float, c2: float, c1: float, c0: float) -> np.ndarray:
    """All real roots of c3 x^3 + c2 x^2 + c1 x + c0, sorted, multiples once.

    Degenerate degrees (quadratic, linear) are handled; the zero polynomial
    and nonzero constants have no well-defined finite root set and raise.
    """
    if c3 != 0.0:
        n, r0, r1, r2 = _kernels.cubic_roots(c2 / c3, c1 / c3, c0 / c3)
        return np.array((r0, r1, r2)[:n], dtype=np.float64)
    if c2 != 0.0:
        if c1 == 0.0:
            v = -c0 / c2
            if v < 0.0:
                return np.array([], dtype=np.float64)
            if v == 0.0:
                return np.array([0.0])
            s = math.sqrt(v)
            return np.array([-s, s])
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < 0.0:
            return np.array([], dtype=np.float64)
        if disc == 0.0:
            return np.array([-c1 / (2.0 * c2)])
        s = math.sqrt(disc)
        big = -0.5 * (c1 + math.copysign(s, c1))
        return np.array(sorted((big / c2, c0 / big)))
    if c1 != 0.0:
        return np.array([-c0 / c1])
    if c0 != 0.0:
        raise ValueError("nonzero constant polynomial has no roots")
    raise ValueError("zero polynomial has an undefined root set")


def quartic_global_min(q: QuarticCoefficients) -> tuple[float, float]:
    """Global minimizer and minimum of a coercive (c4 > 0) quartic.

    The degenerate case c4 = c3 = 0 with c2 > 0 is minimized as a quadratic.
    Ties between critical points break toward smaller |x|, then smaller x.
    """
    if q.c4 > 0.0:
        x, v = _kernels.quartic_min(q.c4, q.c3, q.c2, q.c1, q.c0)
        return float(x), float(v)
    if q.c4 == 0.0 and q.c3 == 0.0 and q.c2 > 0.0:
        x = -q.c1 / (2.0 * q.c2)
        return float(x), float(q.evaluate(x))
    raise ValueError(f"polynomial is not coercive: c4={q.c4}, c3={q.c3}, c2={q.c2}")


def build_coordinate_quartic(y: np.ndarray, x: np.ndarray, i: int) -> QuarticCoefficients:
    """Restriction of ||y - x x^T||_F^2 to coordinate i of x.

    Only the terms of the objective that involve x[i] are kept:
    g(s) = (y[i,i] - s^2)^2 + sum_{j != i} ((y[j,i] - x[j] s)^2
                                            + (y[i,j] - x[j] s)^2).
    Coordinates other than i are read from ``x`` and held fixed.
    """
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if y.shape != (n, n):
        raise ValueError(f"y has shape {y.shape}, expected ({n}, {n})")
    if not 0 <= i < n:
        raise ValueError(f"coordinate {i} out of range for length-{n} column")
    others = np.arange(n) != i
    xo = x[others]
    col = y[others, i]
    row = y[i, others]
    c2 = 2.0 * float(xo @ xo) - 2.0 * float(y[i, i])
    c1 = -2.0 * float((col + row) @ xo)
    c0 = float(y[i, i]) ** 2 + float(col @ col) + float(row @ row)
    return QuarticCoefficients(1.0, 0.0, c2, c1, c0)

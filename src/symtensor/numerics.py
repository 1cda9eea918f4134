"""Dense linear-algebra helpers.

Pure functions over float64 arrays: the solvers use :func:`qr_orthogonal_factor`
and the private :func:`_psd_factor`. The scalar quartic layer lives in
:mod:`symtensor._kernels`.
"""
from __future__ import annotations

import numpy as np

__all__ = ["qr_orthogonal_factor"]


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

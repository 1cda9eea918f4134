"""Scalar hot loops: real cubic roots, quartic minimization, coordinate sweeps.

The functions below are written as plain Python over scalars. At import
time they are compiled with numba when it is available, unless the
environment variable SYMTENSOR_NO_NUMBA is set to a non-empty value other
than "0", in which case the pure-Python definitions run as is. Both backends
execute the same source, so they agree to floating point roundoff; only
``coordinate_sweep`` differs, handing ``_sweep`` Python lists in pure Python
and the arrays themselves when compiled.
"""
from __future__ import annotations

import math
import os

import numpy as np

__all__ = ["NUMBA_ENABLED", "cubic_roots", "quartic_min", "coordinate_sweep"]

_TWO_PI = 2.0 * math.pi


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _polish(x: float, p: float, q: float, r: float) -> float:
    """Two Newton steps on x^3 + p x^2 + q x + r from x."""
    for _ in range(2):
        f = ((x + p) * x + q) * x + r
        d = (3.0 * x + 2.0 * p) * x + q
        if d != 0.0:
            x -= f / d
    return x


def cubic_roots(p: float, q: float, r: float):
    """Real roots of the monic cubic x^3 + p x^2 + q x + r.

    Returns (count, r0, r1, r2) with the roots sorted ascending and
    deduplicated; slots past count are zero. Roots are classified with the
    depressed-cubic discriminant and polished with two Newton steps.
    """
    # depress: x = t - p/3 turns the cubic into t^3 + pp t + qq
    pp = q - p * p / 3.0
    qq = 2.0 * p * p * p / 27.0 - p * q / 3.0 + r
    shift = p / 3.0
    half_q = 0.5 * qq
    third_p = pp / 3.0
    disc = half_q * half_q + third_p * third_p * third_p

    if disc > 0.0:
        s = math.sqrt(disc)
        return 1, _polish(_cbrt(-half_q + s) + _cbrt(-half_q - s) - shift, p, q, r), 0.0, 0.0
    if disc < 0.0:
        # three distinct real roots, trigonometric form (pp < 0 here)
        m = 2.0 * math.sqrt(-third_p)
        arg = 3.0 * qq / (pp * m)
        if arg > 1.0:
            arg = 1.0
        elif arg < -1.0:
            arg = -1.0
        theta = math.acos(arg)
        r0 = _polish(m * math.cos(theta / 3.0) - shift, p, q, r)
        r1 = _polish(m * math.cos((theta - _TWO_PI) / 3.0) - shift, p, q, r)
        r2 = _polish(m * math.cos((theta - 2.0 * _TWO_PI) / 3.0) - shift, p, q, r)
        # insertion sort
        if r0 > r1:
            r0, r1 = r1, r0
        if r1 > r2:
            if r0 > r2:
                r0, r1, r2 = r2, r0, r1
            else:
                r1, r2 = r2, r1
    elif qq == 0.0:
        return 1, _polish(-shift, p, q, r), 0.0, 0.0
    else:
        u = _cbrt(-half_q)
        r0 = _polish(2.0 * u - shift, p, q, r)
        r1 = _polish(-u - shift, p, q, r)
        r2 = math.nan  # no third root: never kept below
        if r0 > r1:
            r0, r1 = r1, r0
    # merge roots closer than 1e-8 relative to the largest magnitude (or 1)
    scale = 1.0
    for a in (abs(r0), abs(r1), abs(r2)):
        if a > scale:
            scale = a
    tol = 1e-8 * scale
    if r1 - r0 > tol:
        if r2 - r1 > tol:
            return 3, r0, r1, r2
        return 2, r0, r1, 0.0
    if r2 - r0 > tol:
        return 2, r0, r2, 0.0
    return 1, r0, 0.0, 0.0


def quartic_min(c4: float, c3: float, c2: float, c1: float, c0: float):
    """Global minimizer of a quartic with positive leading coefficient.

    Returns (x, value). The candidates are the real critical points; ties
    are broken toward smaller |x|, then toward smaller x, so the result is
    deterministic for symmetric quartics.
    """
    n, r0, r1, r2 = cubic_roots(0.75 * c3 / c4, 0.5 * c2 / c4, 0.25 * c1 / c4)
    best_x = r0
    best_v = (((c4 * best_x + c3) * best_x + c2) * best_x + c1) * best_x + c0
    if n > 1:
        v1 = (((c4 * r1 + c3) * r1 + c2) * r1 + c1) * r1 + c0
        if v1 < best_v or (v1 == best_v and (abs(r1), r1) < (abs(best_x), best_x)):
            best_x, best_v = r1, v1
    if n > 2:
        v2 = (((c4 * r2 + c3) * r2 + c2) * r2 + c1) * r2 + c0
        if v2 < best_v or (v2 == best_v and (abs(r2), r2) < (abs(best_x), best_x)):
            best_x, best_v = r2, v2
    return best_x, best_v


def _sweep(v, t, n_sweeps: int) -> None:
    """Cyclic exact coordinate minimization of ||y - v v^T||_F^2 over v, in
    place, given t[i][j] = y[i, j] + y[j, i].

    Each coordinate update holds the others fixed; the objective restricted
    to v[i] is a quartic with unit leading coefficient, minimized exactly.
    The constant term is irrelevant to the argmin and is passed as zero.
    """
    n = len(v)
    for _ in range(n_sweeps):
        for i in range(n):
            ti = t[i]
            s2 = 0.0
            s1 = 0.0
            for j in range(n):
                if j != i:
                    aj = v[j]
                    s2 += aj * aj
                    s1 += ti[j] * aj
            c2 = 2.0 * s2 - ti[i]  # ti[i] = 2 y[i, i]
            c1 = -2.0 * s1
            x, _ = quartic_min(1.0, 0.0, c2, c1, 0.0)
            v[i] = x


def coordinate_sweep(a: np.ndarray, y: np.ndarray, n_sweeps: int) -> None:
    """``_sweep`` on the vector ``a``, in place. ``y`` only enters through
    y + y^T, so either orientation of y gives the same sweep. Pure Python
    sweeps lists, whose scalar reads cost a fraction of numpy's."""
    v = a.tolist()
    _sweep(v, (y + y.T).tolist(), n_sweeps)
    a[:] = v


def _flag_set(name: str) -> bool:
    v = os.environ.get(name, "").strip()
    return v not in ("", "0")


NUMBA_ENABLED = False
if not _flag_set("SYMTENSOR_NO_NUMBA"):
    try:
        from numba import njit
    except ImportError:
        njit = None
    if njit is not None:
        # Rebinding in dependency order lets the compiled callees resolve
        # through the module globals when the callers are compiled.
        _cbrt = njit(cache=True, nogil=True)(_cbrt)
        _polish = njit(cache=True, nogil=True)(_polish)
        cubic_roots = njit(cache=True, nogil=True)(cubic_roots)
        quartic_min = njit(cache=True, nogil=True)(quartic_min)
        _sweep = njit(cache=True, nogil=True)(_sweep)

        def coordinate_sweep(a, y, n_sweeps):  # noqa: F811  compiled: sweeps the arrays
            _sweep(a, y + y.T, n_sweeps)

        coordinate_sweep = njit(cache=True, nogil=True)(coordinate_sweep)
        NUMBA_ENABLED = True

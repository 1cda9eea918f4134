"""Scalar hot loops: real cubic roots, quartic minimization, coordinate sweeps.

Written as plain Python over floats, whose scalar reads cost a fraction of
numpy's. A sweep updates a list in place and reads its targets from a flat
sequence: a list, or a ``memoryview`` of a float64 buffer, which makes each
float only as the loop reads it. The pcls solvers call ``coordinate_sweep``,
one cyclic pass over the coordinates, once per live factor column;
``cubic_roots`` and ``quartic_min`` are the scalar layer beneath it. The
bits matter: random-start pcls runs are chaotic, and a sweep that differs
only at roundoff (a BLAS dot for the sums, say) changes their iteration
counts and can fail the acceptance gates. :func:`coordinate_sweep` says why
its shortcuts keep every bit of the plain per-coordinate ``quartic_min``
loop.
"""
from __future__ import annotations

import math

__all__ = ["cubic_roots", "quartic_min", "coordinate_sweep"]

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


def coordinate_sweep(v: list, t) -> None:
    """One cyclic pass of exact coordinate minimization of ||y - v v^T||_F^2
    over the list ``v`` of length n, in place, given the flat row-major n x n
    sequence ``t[i * n + j] = y[i, j] + y[j, i]``.

    Each coordinate update holds the others fixed; the objective restricted
    to v[i] is a quartic with unit leading coefficient, minimized exactly.
    The constant term is irrelevant to the argmin and is passed as zero.

    One iterator walks ``t`` for the whole pass, and coordinate i's fold
    ``zip(v, it)`` takes row i from it. ``v`` leads the ``zip``: when the
    fold ends, ``zip`` finds ``v`` exhausted before it asks ``it`` for
    another value, so no value of the next row is read and lost.

    Setting ``v[i] = 0.0`` before folding coordinate i's sums over the whole
    row drops the j != i test without changing a bit: the fold adds +0.0 to
    the sum of squares and +-0.0 to the cross sum, and neither sum is ever
    -0.0, so both stay as they were. The one-real-root case (discriminant
    > 0) of ``quartic_min(1, 0, c2, c1, 0)`` is inlined. There the cubic
    has no quadratic term (p = 0), so every term it drops from
    ``cubic_roots`` and ``_polish`` divides by one or adds an exact zero;
    that can only flip the sign of a zero, and in this case no zero sign
    reaches the root (s > 0, and x is never -0.0), so the root is
    ``cubic_roots``' own. The other cases call ``quartic_min``.
    """
    n = len(v)
    it = iter(t)
    for i in range(n):
        v[i] = 0.0
        s2 = 0.0
        s1 = 0.0
        for aj, tij in zip(v, it):
            s2 += aj * aj
            s1 += tij * aj
        c2 = 2.0 * s2 - t[i * n + i]  # t[i * n + i] = 2 y[i, i]
        c1 = -2.0 * s1
        q = 0.5 * c2
        r = 0.25 * c1
        half_q = 0.5 * r
        third_p = q / 3.0
        disc = half_q * half_q + third_p * third_p * third_p
        if disc > 0.0:
            s = math.sqrt(disc)
            u = -half_q + s
            w = -half_q - s
            # _cbrt(u) + _cbrt(w), then _polish's two Newton steps
            x = math.copysign(abs(u) ** (1.0 / 3.0), u)
            x += math.copysign(abs(w) ** (1.0 / 3.0), w)
            d = 3.0 * x * x + q
            if d != 0.0:
                x -= ((x * x + q) * x + r) / d
            d = 3.0 * x * x + q
            if d != 0.0:
                x -= ((x * x + q) * x + r) / d
            v[i] = x
        else:
            v[i] = quartic_min(1.0, 0.0, c2, c1, 0.0)[0]

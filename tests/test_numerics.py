"""The scalar kernels the column sweep runs, and the QR and PSD factorization
of pcls4_full, against independent references.

The polynomial oracles here go through numpy's companion-matrix root finder,
dense grid search and the brute-force objective ||y - v v^T||_F^2, which
share no code with the closed-form kernels in ``symtensor._kernels``.
"""
import numpy as np
import pytest

from symtensor import _kernels
from symtensor._kernels import cubic_roots, quartic_min
from symtensor.solvers import _psd_factor, qr_orthogonal_factor

from _oracles import cubic_discriminant, quartic_grid_min


def roots_oracle_quartic_min(c):
    """Minimize a quartic by companion-matrix roots of its derivative."""
    crit = np.roots([4.0 * c[0], 3.0 * c[1], 2.0 * c[2], c[3]])
    real = crit[np.abs(crit.imag) <= 1e-8 * (1.0 + np.abs(crit))].real
    vals = np.polyval(c, real)
    i = int(np.argmin(vals))
    return float(real[i]), float(vals[i])


def real_roots(c3, c2, c1, c0):
    """The real roots ``cubic_roots`` reports for c3 x^3 + c2 x^2 + c1 x + c0."""
    n, *roots = cubic_roots(c2 / c3, c1 / c3, c0 / c3)
    return np.array(roots[:n])


# --------------------------------------------------------------------- #
# Cubic roots                                                            #
# --------------------------------------------------------------------- #


def test_cubic_known_roots():
    np.testing.assert_allclose(real_roots(1, 0, 0, -1), [1.0], atol=1e-12)
    np.testing.assert_allclose(real_roots(1, 0, -1, 0), [-1.0, 0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(real_roots(4, 0, 4, 0), [0.0], atol=1e-12)


def test_cubic_multiple_roots_reported_once():
    # (x-1)^3 and (x-1)^2 (x+2)
    np.testing.assert_allclose(real_roots(1, -3, 3, -1), [1.0], atol=1e-7)
    np.testing.assert_allclose(real_roots(1, 0, -3, 2), [-2.0, 1.0], atol=1e-7)


def test_cubic_random_residuals_and_counts():
    """Each root nearly annihilates the cubic; count follows the discriminant."""
    rng = np.random.default_rng(100)
    checked_counts = 0
    for _ in range(1000):
        c3, c2, c1, c0 = rng.standard_normal(4)
        if abs(c3) < 1e-3:
            c3 += np.sign(c3 or 1.0)
        roots = real_roots(c3, c2, c1, c0)
        assert roots.size >= 1
        scale = max(abs(c3), abs(c2), abs(c1), abs(c0))
        for rho in roots:
            val = ((c3 * rho + c2) * rho + c1) * rho + c0
            assert abs(val) <= 1e-8 * scale
        disc = cubic_discriminant(c2 / c3, c1 / c3, c0 / c3)
        if abs(disc) > 1e-9:
            checked_counts += 1
            assert roots.size == (1 if disc > 0 else 3)
    assert checked_counts > 900


def test_cubic_roots_sorted():
    roots = real_roots(1.0, -6.0, 11.0, -6.0)  # (x-1)(x-2)(x-3)
    np.testing.assert_allclose(roots, [1.0, 2.0, 3.0], atol=1e-10)


# --------------------------------------------------------------------- #
# Quartic minimization                                                   #
# --------------------------------------------------------------------- #


def test_quartic_known_minima():
    # (4 - x^2)^2 + 2 (6 - 3x)^2 expands to x^4 + 10 x^2 - 72 x + 88
    x, v = quartic_min(1, 0, 10, -72, 88)
    assert abs(x - 2.0) < 1e-10
    assert abs(v) < 1e-10

    assert quartic_min(1, 0, 0, 0, 0) == (0.0, 0.0)

    x, v = quartic_min(1, 0, 2, 0, 1)
    assert x == 0.0
    assert v == 1.0


def test_quartic_symmetric_tie_breaks_to_smaller_x():
    # x^4 - 2 x^2 has minima at -1 and 1 with equal value
    x, v = quartic_min(1, 0, -2, 0, 0)
    assert x == -1.0
    assert abs(v + 1.0) < 1e-12


def test_quartic_against_grid_and_roots_oracle():
    """1000 random coercive quartics vs grid search and companion roots."""
    rng = np.random.default_rng(101)
    for _ in range(1000):
        c4 = rng.uniform(1e-3, 10.0)
        c3, c2, c1, c0 = 5.0 * rng.standard_normal(4)
        q = (c4, c3, c2, c1, c0)
        x, v = quartic_min(*q)
        xo, vo = roots_oracle_quartic_min(np.array(q))
        assert abs(x - xo) <= 1e-6 or abs(v - vo) <= 1e-8 * (1.0 + abs(vo))
    # a thinner sample against the very slow dense grid; the root bound
    # keeps minimizers inside the grid window
    done = 0
    while done < 50:
        c4 = rng.uniform(1e-2, 10.0)
        c3, c2, c1, c0 = 5.0 * rng.standard_normal(4)
        if 1.0 + max(3 * abs(c3), 2 * abs(c2), abs(c1)) / (4 * c4) > 19.0:
            continue
        done += 1
        q = (c4, c3, c2, c1, c0)
        x, v = quartic_min(*q)
        xg, vg = quartic_grid_min(q)
        assert abs(x - xg) <= 1e-3 or abs(v - vg) <= 1e-8 * (1.0 + abs(vg))


def test_quartic_minimum_is_at_critical_point():
    rng = np.random.default_rng(102)
    for _ in range(200):
        c4, c3, c2, c1, c0 = rng.uniform(0.1, 5.0), *rng.standard_normal(4)
        x, v = quartic_min(c4, c3, c2, c1, c0)
        deriv = ((4 * c4 * x + 3 * c3) * x + 2 * c2) * x + c1
        assert abs(deriv) <= 1e-6 * (1.0 + abs(x) ** 3)
        value = (((c4 * x + c3) * x + c2) * x + c1) * x + c0
        assert value == pytest.approx(v, abs=1e-9, rel=1e-9)


# --------------------------------------------------------------------- #
# QR                                                                     #
# --------------------------------------------------------------------- #


def test_qr_known_column():
    np.testing.assert_allclose(
        qr_orthogonal_factor(np.array([[3.0], [4.0]])), np.array([[0.6], [0.8]]), atol=1e-14
    )


def test_qr_orthonormal_and_sign_fixed():
    rng = np.random.default_rng(106)
    p = rng.standard_normal((8, 5))
    q = qr_orthogonal_factor(p)
    np.testing.assert_allclose(q.T @ q, np.eye(5), atol=1e-12)
    # already-orthonormal input comes back unchanged
    np.testing.assert_allclose(qr_orthogonal_factor(q), q, atol=1e-12)


def test_qr_rejects_wide():
    with pytest.raises(ValueError, match="rows >= cols"):
        qr_orthogonal_factor(np.ones((2, 3)))
    with pytest.raises(ValueError, match="expects a matrix"):
        qr_orthogonal_factor(np.ones(3))


# --------------------------------------------------------------------- #
# Symmetric PSD factorization                                            #
# --------------------------------------------------------------------- #


def test_psd_factor_diagonal():
    e, count, mass = _psd_factor(np.diag([4.0, 1.0]), 2)
    np.testing.assert_allclose(e @ e.T, np.diag([4.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(np.abs(e), np.diag([2.0, 1.0]), atol=1e-12)
    assert (count, mass) == (0, 0.0)


def test_psd_factor_rank_one():
    v = np.array([1.0, -2.0, 0.5])
    e, _, _ = _psd_factor(np.outer(v, v), 1)
    np.testing.assert_allclose(e @ e.T, np.outer(v, v), atol=1e-12)


def test_psd_factor_clips_and_counts():
    e, count, mass = _psd_factor(np.diag([1.0, -1.0]), 2)
    np.testing.assert_allclose(e @ e.T, np.diag([1.0, 0.0]), atol=1e-12)
    assert count == 1
    assert mass == pytest.approx(1.0)


def test_psd_factor_roundoff_negatives_are_silent():
    rng = np.random.default_rng(107)
    a = rng.standard_normal((6, 3))
    t = a @ a.T  # PSD up to roundoff; tiny negative eigenvalues possible
    e, count, mass = _psd_factor(t, 3)
    np.testing.assert_allclose(e @ e.T, t, atol=1e-10)
    assert (count, mass) == (0, 0.0)


def test_psd_factor_truncation_error_equals_discarded_mass():
    rng = np.random.default_rng(108)
    q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    lam = np.array([9.0, 4.0, 1.0, 0.25, 0.01, -0.5, -2.0, 0.0])
    t = (q * lam) @ q.T
    for r in (2, 4, 6):
        e, count, mass = _psd_factor(t, r)
        assert count == 2
        assert mass == pytest.approx(2.5, rel=1e-12)
        kept = np.sort(np.clip(lam, 0.0, None))[::-1][:r]
        expected_sq = float(np.sum(lam**2) - np.sum(kept**2))
        err_sq = float(np.sum((t - e @ e.T) ** 2))
        assert err_sq == pytest.approx(expected_sq, rel=1e-10, abs=1e-12)


# --------------------------------------------------------------------- #
# Coordinate sweeps                                                     #
# --------------------------------------------------------------------- #


def test_sweep_against_roots_oracle():
    """One full coordinate sweep vs per-coordinate companion-matrix solves."""
    rng = np.random.default_rng(109)
    a0 = rng.standard_normal(5)
    y = rng.standard_normal((5, 5))

    expect = a0.copy()
    for i in range(5):
        others = np.arange(5) != i
        xo = expect[others]
        c2 = 2.0 * float(xo @ xo) - 2.0 * y[i, i]
        c1 = -2.0 * float((y[others, i] + y[i, others]) @ xo)
        expect[i] = roots_oracle_quartic_min(np.array([1.0, 0.0, c2, c1, 0.0]))[0]

    got = a0.tolist()
    _kernels.coordinate_sweep(got, (y + y.T).tolist())
    np.testing.assert_allclose(got, expect, rtol=1e-9, atol=1e-12)


def test_sweep_last_coordinate_minimizes_objective():
    """After one sweep, the last coordinate is the global minimizer of the
    brute-force ||y - v v^T||_F^2 in that coordinate, the others held at
    their final values. The oracle fits a quartic through samples of the
    objective and minimizes it by companion roots, so it shares no
    coefficient formula with the sweep."""
    # y = [2, 3] [2, 3]^T from [0, 3]: the first coordinate minimizes
    # x^4 + 10 x^2 - 72 x + 88, at 2, and the second then lands back on 3
    known = [0.0, 3.0]
    _kernels.coordinate_sweep(known, [[8.0, 12.0], [12.0, 18.0]])
    np.testing.assert_allclose(known, [2.0, 3.0], rtol=1e-12)

    rng = np.random.default_rng(103)
    for n in (1, 2, 3, 5, 8):
        for scale in (1e-2, 1.0, 1e2):
            y = scale**2 * rng.standard_normal((n, n))
            v = (scale * rng.standard_normal(n)).tolist()
            _kernels.coordinate_sweep(v, (y + y.T).tolist())

            def objective(s):
                z = np.array(v)
                z[-1] = s
                return float(np.sum((y - np.outer(z, z)) ** 2))

            width = max(max(map(abs, v)), float(np.sqrt(np.max(np.abs(y)))))
            samples = width * np.linspace(-2.0, 2.0, 9)
            fit = np.polyfit(samples, [objective(s) for s in samples], 4)
            best = objective(roots_oracle_quartic_min(fit)[0])
            assert objective(v[-1]) <= best + 1e-10 * (1.0 + best), (n, scale)


def _sweep_cases(rng):
    """(start, y, sweeps) inputs that reach every root case of the sweep."""
    for n, sweeps in ((1, 1), (2, 2), (6, 3), (17, 1)):
        yield rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4), rng.standard_normal((n, n)), sweeps
    # y = -3 I: every cross sum is zero and every cubic has the one root 0
    yield rng.standard_normal(5), -3.0 * np.eye(5), 2
    # y = 4 I from zero: three roots (+-2 and 0) for the first coordinate, then
    # c2 = c1 = 0 and a triple root for the next
    yield np.zeros(5), 4.0 * np.eye(5), 2
    # then three roots within 1e-8 of each other, merged into one
    yield np.zeros(2), np.diag([2.0 ** -20, 2.0 ** -20 * (1.0 + 2.0 ** -52)]), 1
    # a symmetric y far from rank one, from a small start: double wells
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    yield 1e-2 * rng.standard_normal(8), q @ np.diag([9.0, 8.0, 7.0, 6.0, -1.0, 0.5, 3.0, 5.0]) @ q.T, 3
    yield rng.standard_normal(60), rng.standard_normal((60, 60)), 1


def test_sweep_bitwise_equals_array_loop(monkeypatch):
    """The list sweep does the array loop's arithmetic in its order, bit for
    bit, in the inline one-root case and in the cases it hands to
    ``quartic_min`` (three distinct roots, and roots merged into fewer)."""
    from _oracles import sweep_array_loop

    plain_min, plain_roots = _kernels.quartic_min, _kernels.cubic_roots
    delegated, root_counts = [], []

    def counted_min(*c):
        delegated.append(c)
        return plain_min(*c)

    def counted_roots(p, q, r):
        out = plain_roots(p, q, r)
        root_counts.append(out[0])
        return out

    rng = np.random.default_rng(110)
    for a0, y, sweeps in _sweep_cases(rng):
        expect = sweep_array_loop(a0, y, sweeps)
        with monkeypatch.context() as m:
            m.setattr(_kernels, "quartic_min", counted_min)
            m.setattr(_kernels, "cubic_roots", counted_roots)
            got, t = a0.tolist(), (y + y.T).tolist()
            for _ in range(sweeps):
                _kernels.coordinate_sweep(got, t)
        assert np.array_equal(got, expect)
        assert np.array(got).tobytes() == expect.tobytes()  # signed zeros too
    assert len(delegated) == len(root_counts) > 0
    assert 3 in root_counts
    assert {1, 2} & set(root_counts)

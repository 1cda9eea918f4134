"""Independent brute-force reference implementations used by the tests.

Everything here is written from the definitions, element by element, with no
shared code with the package, so agreement is meaningful evidence. The two
sweep references at the end are the exception: they call the package's scalar
``quartic_min`` on purpose, because they pin the column sweep's arithmetic
and order bit for bit, not its root finding.
"""
import numpy as np

from symtensor._kernels import quartic_min


def unfold_oracle(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n unfolding by explicit index arithmetic.

    Element (i_0, ..., i_{N-1}) lands at row i_mode, column
    sum_{k != mode} i_k * stride_k with stride_k the product of the sizes of
    the earlier non-mode dimensions (first non-mode index fastest).
    """
    dims = t.shape
    n_cols = 1
    for k, d in enumerate(dims):
        if k != mode:
            n_cols *= d
    out = np.zeros((dims[mode], n_cols))
    for idx in np.ndindex(*dims):
        col = 0
        stride = 1
        for k in range(len(dims)):
            if k == mode:
                continue
            col += idx[k] * stride
            stride *= dims[k]
        out[idx[mode], col] = t[idx]
    return out


def square_matricize_oracle(x: np.ndarray) -> np.ndarray:
    """(i, k) x (j, l) flattening by explicit loops: row i*K + k, col j*L + l."""
    i_n, j_n, k_n, l_n = x.shape
    out = np.zeros((i_n * k_n, j_n * l_n))
    for i in range(i_n):
        for j in range(j_n):
            for k in range(k_n):
                for l in range(l_n):
                    out[i * k_n + k, j * l_n + l] = x[i, j, k, l]
    return out


def khatri_rao_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise Kronecker product via np.kron, one column at a time."""
    return np.column_stack([np.kron(a[:, r], b[:, r]) for r in range(a.shape[1])])


def reconstruct_oracle(factors: list[np.ndarray]) -> np.ndarray:
    """Sum of outer products, accumulated one rank-one term at a time."""
    r = factors[0].shape[1]
    dims = tuple(f.shape[0] for f in factors)
    out = np.zeros(dims)
    for s in range(r):
        term = factors[0][:, s]
        for f in factors[1:]:
            term = np.multiply.outer(term, f[:, s])
        out += term
    return out


def quartic_grid_min(coeffs, lo=-20.0, hi=20.0, step=1e-4):
    """Grid-search minimizer of a quartic over [lo, hi]."""
    xs = np.arange(lo, hi + step, step)
    vals = (((coeffs[0] * xs + coeffs[1]) * xs + coeffs[2]) * xs + coeffs[3]) * xs + coeffs[4]
    i = int(np.argmin(vals))
    return float(xs[i]), float(vals[i])


def cubic_discriminant(p: float, q: float, r: float) -> float:
    """Discriminant-like quantity for the depressed form of x^3+px^2+qx+r.

    Positive means one real root, negative means three distinct real roots,
    zero means a multiple root.
    """
    pp = q - p * p / 3.0
    qq = 2.0 * p ** 3 / 27.0 - p * q / 3.0 + r
    return (qq / 2.0) ** 2 + (pp / 3.0) ** 3


def sweep_array_loop(a0: np.ndarray, y: np.ndarray, sweeps: int) -> np.ndarray:
    """Cyclic coordinate minimization of ||y - a a^T||_F^2 from a0 over numpy
    arrays: each coordinate's sums skip j = i, and every coordinate goes
    through ``quartic_min``."""
    a = np.array(a0, dtype=np.float64)
    n = len(a)
    for _ in range(sweeps):
        for i in range(n):
            s2 = s1 = 0.0
            for j in range(n):
                if j != i:
                    s2 += a[j] * a[j]
                    s1 += (y[i, j] + y[j, i]) * a[j]
            a[i] = quartic_min(1.0, 0.0, 2.0 * s2 - 2.0 * y[i, i], -2.0 * s1, 0.0)[0]
    return a


def column_sweep_oracle(a: np.ndarray, g: np.ndarray, rng, dead_rel: float):
    """One pcls column sweep, column by column: returns the new factor and the
    number of redrawn columns.

    Column r is dead when its norm is at most dead_rel times g's norm; it is
    redrawn from ``rng.standard_normal(n)``. A live column runs one pass of
    ``sweep_array_loop`` against g[:, r] reshaped F-order to n x n.
    """
    n, rank = a.shape
    out = a.copy()
    floor = dead_rel * float(np.linalg.norm(g))
    redrawn = 0
    for r in range(rank):
        col = g[:, r]
        if float(np.linalg.norm(col)) <= floor:
            out[:, r] = rng.standard_normal(n)
            redrawn += 1
        else:
            out[:, r] = sweep_array_loop(out[:, r], col.reshape(n, n, order="F"), 1)
    return out, redrawn

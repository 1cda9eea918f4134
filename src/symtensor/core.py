"""Dense tensor primitives for symmetric outer product decomposition.

Tensors are plain float64 numpy arrays of order 3 or 4. The flat storage
convention throughout the package is generalized column-major (mode-1 index
fastest), i.e. numpy's ``order="F"`` ravel of the array.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "SUPPORTED_ORDERS",
    "SymmetryPattern",
    "FactorModel",
    "mode_n_matricize",
    "square_matricize",
    "khatri_rao",
    "reconstruct",
    "residual_sq",
    "symmetry_defect",
    "symmetry_check",
]

SUPPORTED_ORDERS = (3, 4)


class SymmetryPattern(Enum):
    """Index-symmetry classes of the supported decomposition models.

    The enum value is the canonical name used by the CLI and the model file
    format. Each pattern fixes the tensor order, which distinct factor matrix
    every mode reuses, and the index permutations the tensor is invariant
    under.
    """

    GENERAL3 = "general3"
    PSYM3 = "psym3"
    PSYM4_CASE1 = "psym4-case1"
    PSYM4_CASE2 = "psym4-case2"
    FSYM4 = "fsym4"
    GENERAL4 = "general4"

    @property
    def mode_factors(self) -> tuple[int, ...]:
        """For each tensor mode, the index of the distinct factor used there."""
        return _MODE_FACTORS[self]

    @property
    def order(self) -> int:
        return len(self.mode_factors)

    @property
    def n_factors(self) -> int:
        return max(self.mode_factors) + 1

    @property
    def permutations(self) -> tuple[tuple[int, ...], ...]:
        """Non-identity index permutations the pattern is invariant under:
        every p that maps each mode to one sharing its factor, in
        lexicographic order."""
        f, identity = self.mode_factors, tuple(range(self.order))
        return tuple(
            p for p in itertools.permutations(identity)
            if p != identity and tuple(f[m] for m in p) == f
        )

    def factor_rows(self, dims: tuple[int, ...]) -> tuple[int, ...]:
        """Row count of each distinct factor for a tensor of shape ``dims``.

        The package's one shape rule: ValueError on a wrong order, a size
        below 1, or unequal sizes in modes that share a factor.
        """
        if len(dims) != self.order:
            raise ValueError(f"pattern {self.value} needs order {self.order}, got dims {dims}")
        if min(dims) < 1:
            raise ValueError(f"pattern {self.value} needs positive dims, got {dims}")
        rows = [0] * self.n_factors
        for mode, f in enumerate(self.mode_factors):
            if rows[f] and rows[f] != dims[mode]:
                raise ValueError(
                    f"modes sharing a factor must have equal sizes for {self.value}: {dims}"
                )
            rows[f] = dims[mode]
        return tuple(rows)


_MODE_FACTORS = {
    SymmetryPattern.GENERAL3: (0, 1, 2),
    SymmetryPattern.PSYM3: (0, 0, 1),
    SymmetryPattern.PSYM4_CASE1: (0, 1, 0, 1),
    SymmetryPattern.PSYM4_CASE2: (0, 1, 0, 2),
    SymmetryPattern.FSYM4: (0, 0, 0, 0),
    SymmetryPattern.GENERAL4: (0, 1, 2, 3),
}

@dataclass
class FactorModel:
    """A symmetry pattern plus the distinct factor matrices of the model.

    ``factors[f]`` is reused in every tensor mode ``m`` with
    ``pattern.mode_factors[m] == f``. All factors share the column count R
    (the number of rank-one summands), and the dims they generate pass
    :meth:`SymmetryPattern.factor_rows`, so every factor has a row.
    """

    pattern: SymmetryPattern
    factors: list[np.ndarray]

    def __post_init__(self):
        self.factors = [np.asarray(f, dtype=np.float64) for f in self.factors]
        if len(self.factors) != self.pattern.n_factors:
            raise ValueError(
                f"{self.pattern.value} expects {self.pattern.n_factors} factors, "
                f"got {len(self.factors)}"
            )
        for f in self.factors:
            if f.ndim != 2:
                raise ValueError("factors must be 2-D matrices")
        ranks = {f.shape[1] for f in self.factors}
        if len(ranks) != 1:
            raise ValueError(f"factors disagree on column count: {sorted(ranks)}")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        self.pattern.factor_rows(self.dims)

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(self.factors[f].shape[0] for f in self.pattern.mode_factors)


def mode_n_matricize(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` matricization (unfolding) of a tensor.

    Returns the dims[mode] x prod(other dims) matrix whose columns are the
    mode fibers; column order runs through the remaining indices with the
    lowest-numbered mode varying fastest (column-major enumeration).

    Parameters
    ----------
    t : ndarray
        Input tensor of any order >= 1.
    mode : int
        Mode to bring to the rows, 0-based.
    """
    t = np.asarray(t)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], -1), order="F")


def square_matricize(x: np.ndarray) -> np.ndarray:
    """Flatten an I x J x K x L tensor to the IK x JL matrix pairing modes
    (1,3) on the rows and (2,4) on the columns.

    Entry (i*K + k, j*L + l) = x[i, j, k, l] (0-based).
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"square matricization needs an order-4 tensor, got order {x.ndim}")
    i, j, k, l = x.shape
    return x.transpose(0, 2, 1, 3).reshape(i * k, j * l)


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise Kronecker product: column r is kron(a[:, r], b[:, r])."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column counts differ: {a.shape[1]} vs {b.shape[1]}")
    return (a[:, None, :] * b[None, :, :]).reshape(a.shape[0] * b.shape[0], a.shape[1])


def _model_product(model: FactorModel) -> tuple[np.ndarray, tuple[int, ...]]:
    """The model's entries as one GEMM ``L @ R.T`` of two Khatri-Rao halves.

    Order 3 takes L = f0 (.) f1 and R = f2, so the product holds the tensor
    with modes (0, 1, 2). Order 4 pairs the modes that share a factor in the
    symmetric patterns, L = f0 (.) f2 and R = f1 (.) f3, so the product is
    the square matricization, with modes (0, 2, 1, 3). Returns the product
    and that mode order (a permutation that is its own inverse).
    """
    f = [model.factors[i] for i in model.pattern.mode_factors]
    if model.pattern.order == 3:
        return khatri_rao(f[0], f[1]) @ f[2].T, (0, 1, 2)
    return khatri_rao(f[0], f[2]) @ khatri_rao(f[1], f[3]).T, (0, 2, 1, 3)


def reconstruct(model: FactorModel, dims: tuple[int, ...] | None = None) -> np.ndarray:
    """Sum of rank-one outer products defined by the model.

    The symmetric mode pairs are multiplied first (one Khatri-Rao product
    per pair, then one GEMM), so the output is exactly (bitwise) invariant
    under the pattern's paired-mode swaps. :func:`residual_sq` uses the same
    product, so the residual of a model against its own reconstruction is
    exactly zero.

    Parameters
    ----------
    model : FactorModel
    dims : tuple, optional
        Expected tensor shape; validated against the model when given.
    """
    if dims is not None and tuple(dims) != model.dims:
        raise ValueError(f"model generates dims {model.dims}, requested {tuple(dims)}")
    p, perm = _model_product(model)
    shape = tuple(model.dims[m] for m in perm)
    return np.ascontiguousarray(p.reshape(shape).transpose(perm))


def residual_sq(x: np.ndarray, model: FactorModel) -> float:
    """Squared Frobenius norm of x minus the model reconstruction.

    The tensor is subtracted in place from the model's GEMM product, read
    through a transposed view of x, so no full-size temporary is made
    beyond that product, whatever x's memory order.
    """
    x = np.asarray(x)
    if x.shape != model.dims:
        raise ValueError(f"tensor shape {x.shape} does not match model dims {model.dims}")
    p, perm = _model_product(model)
    d = p.reshape(tuple(x.shape[m] for m in perm))
    np.subtract(d, x.transpose(perm), out=d)
    d = d.reshape(-1)
    return float(d @ d)


def symmetry_defect(x: np.ndarray, pattern: SymmetryPattern) -> float:
    """Max absolute entry difference over the pattern's index permutations.

    NaN anywhere in a difference (a NaN entry, or inf against inf) makes the
    defect NaN, so :func:`symmetry_check` rejects the tensor.
    """
    x = np.asarray(x)
    with np.errstate(invalid="ignore"):
        diffs = [np.max(np.abs(x.transpose(perm) - x)) for perm in pattern.permutations]
    return float(np.max(diffs, initial=0.0))


def symmetry_check(x: np.ndarray, pattern: SymmetryPattern, tol: float = 1e-12) -> bool:
    """True iff x is invariant under the pattern's permutations within tol.

    A shape that :meth:`SymmetryPattern.factor_rows` rejects gives False and a
    warning, not an error, so the check can gate solvers on arbitrary files.
    """
    x = np.asarray(x)
    try:
        pattern.factor_rows(x.shape)
    except ValueError as exc:
        warnings.warn(str(exc))
        return False
    return symmetry_defect(x, pattern) <= tol

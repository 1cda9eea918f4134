"""Plain-text serialization for tensors and factor models.

Tensor file layout::

    # optional comment lines anywhere
    3 4 4 5          <- order, then the dimensions
    1.5 0.25 ...     <- entries, whitespace separated, column-major order

Column-major means the first index varies fastest, matching the flat vector
convention used by the solvers. Values are written with 17 significant
digits so a write/read round trip is bit exact.

Model file layout::

    psym3 2          <- pattern name, rank
    4 2              <- rows and columns of the first distinct factor
    ...              <- its entries, column-major
    5 2              <- next factor, and so on
"""
from __future__ import annotations

import itertools
import os
from typing import IO, Iterable, Iterator

import numpy as np

from .core import SUPPORTED_ORDERS, FactorModel, SymmetryPattern

__all__ = [
    "read_tensor",
    "write_tensor",
    "read_model",
    "write_model",
]


def _tokens(lines: Iterable[str]) -> Iterator[str]:
    for line in lines:
        body = line.split("#", 1)[0]
        yield from body.split()


def _format(v: float) -> str:
    return "%.17g" % v


def _write_values(fh: IO[str], values: np.ndarray, per_line: int = 6) -> None:
    flat = values.ravel(order="F")
    for start in range(0, flat.size, per_line):
        fh.write(" ".join(_format(v) for v in flat[start : start + per_line]))
        fh.write("\n")


def _finite(flat: np.ndarray, where: str, what: str) -> np.ndarray:
    """Return ``flat``, or raise naming its first NaN or infinite entry."""
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"{where}: entry {k} (0-based, column-major) is {flat[k]}; "
            f"{what} entries must be finite"
        )
    return flat


def read_tensor(path: str | os.PathLike) -> np.ndarray:
    """Parse a tensor text file into a float64 array.

    Raises ValueError on a malformed header, a wrong value count, or a NaN
    or infinite entry (including tokens such as ``1e400`` that overflow).
    """
    with open(path, "r", encoding="utf-8") as fh:
        tok = _tokens(fh)
        try:
            order = int(next(tok))
        except StopIteration:
            raise ValueError(f"{path}: empty tensor file") from None
        if order not in SUPPORTED_ORDERS:
            raise ValueError(f"{path}: unsupported tensor order {order}")
        dims = tuple(int(t) for t in itertools.islice(tok, order))
        if len(dims) < order:
            raise ValueError(f"{path}: header ended before {order} dimensions")
        if any(d < 1 for d in dims):
            raise ValueError(f"{path}: dimensions must be positive, got {dims}")
        values = [float(t) for t in tok]
    count = int(np.prod(dims))
    if len(values) != count:
        raise ValueError(f"{path}: expected {count} values for dims {dims}, found {len(values)}")
    flat = _finite(np.array(values, dtype=np.float64), str(path), "tensor")
    return flat.reshape(dims, order="F")


def write_tensor(path: str | os.PathLike, t: np.ndarray) -> None:
    """Write a tensor text file (see module docstring for the layout)."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported tensor order {t.ndim}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{t.ndim} " + " ".join(str(d) for d in t.shape) + "\n")
        _write_values(fh, t)


def read_model(path: str | os.PathLike) -> FactorModel:
    """Parse a factor model text file; a NaN or infinite entry raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        tok = _tokens(fh)
        try:
            name = next(tok)
        except StopIteration:
            raise ValueError(f"{path}: empty model file") from None
        try:
            pattern = SymmetryPattern(name)
        except ValueError:
            known = ", ".join(p.value for p in SymmetryPattern)
            raise ValueError(f"{path}: unknown pattern {name!r} (known: {known})") from None
        try:
            rank = int(next(tok))
            factors = []
            for i in range(pattern.n_factors):
                rows, cols = int(next(tok)), int(next(tok))
                if rows < 1:
                    raise ValueError(f"{path}: factor {i} rows must be positive, got {rows}")
                if cols != rank:
                    raise ValueError(f"{path}: factor has {cols} columns, rank is {rank}")
                data = np.array([float(next(tok)) for _ in range(rows * cols)], dtype=np.float64)
                data = _finite(data, f"{path}: factor {i}", "factor")
                factors.append(data.reshape(rows, cols, order="F"))
        except StopIteration:
            raise ValueError(f"{path}: model file ended early") from None
        extra = next(tok, None)
    if extra is not None:
        raise ValueError(f"{path}: trailing data after the last factor")
    return FactorModel(pattern, factors)


def write_model(path: str | os.PathLike, model: FactorModel) -> None:
    """Write a factor model text file (see module docstring for the layout)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{model.pattern.value} {model.rank}\n")
        for f in model.factors:
            fh.write(f"{f.shape[0]} {f.shape[1]}\n")
            _write_values(fh, f)

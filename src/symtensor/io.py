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

_PER_LINE = 6  # values per line in written files
_CHUNK_LINES = 1024  # lines formatted by one % operation


def _tokens(lines: Iterable[str]) -> Iterator[str]:
    for line in lines:
        body = line.split("#", 1)[0]
        yield from body.split()


def _lines_template(count: int) -> str:
    """A %-template for ``count`` values, ``_PER_LINE`` per line, each
    written with 17 significant digits."""
    full, rest = divmod(count, _PER_LINE)
    line = " ".join(["%.17g"] * _PER_LINE) + "\n"
    return line * full + (" ".join(["%.17g"] * rest) + "\n" if rest else "")


def _write_values(fh: IO[str], values: np.ndarray) -> None:
    """Write ``values`` column-major, one % operation per chunk of
    ``_CHUNK_LINES`` lines, so memory stays bounded by the chunk."""
    flat = values.ravel(order="F")
    step = _PER_LINE * _CHUNK_LINES
    for start in range(0, flat.size, step):
        chunk = tuple(flat[start : start + step].tolist())
        fh.write(_lines_template(len(chunk)) % chunk)


def _int(token: str, path) -> int:
    """A header token (order, size, rank) as an int; ValueError naming the
    file when it is not one."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{path}: expected an integer, found {token!r}") from None


def _floats(tok: Iterable[str], where: str) -> list[float]:
    """Every token of ``tok`` as a float; ValueError naming ``where`` and the
    0-based entry of the first token that is not a number."""
    values: list[float] = []
    try:
        # list.extend keeps what it appended before the failing token, so
        # the list's length is that token's index.
        values.extend(map(float, tok))
    except ValueError as exc:
        raise ValueError(f"{where}: entry {len(values)} (0-based, column-major): {exc}") from None
    return values


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

    Raises ValueError on a malformed header, a token that is not a number,
    a wrong value count, or a NaN or infinite entry (including tokens such
    as ``1e400`` that overflow); the message names the file, and the 0-based
    entry of a bad value.
    """
    with open(path, "r", encoding="utf-8") as fh:
        tok = _tokens(fh)
        try:
            order = _int(next(tok), path)
        except StopIteration:
            raise ValueError(f"{path}: empty tensor file") from None
        if order not in SUPPORTED_ORDERS:
            raise ValueError(f"{path}: unsupported tensor order {order}")
        dims = tuple(_int(t, path) for t in itertools.islice(tok, order))
        if len(dims) < order:
            raise ValueError(f"{path}: header ended before {order} dimensions")
        if any(d < 1 for d in dims):
            raise ValueError(f"{path}: dimensions must be positive, got {dims}")
        values = _floats(tok, str(path))
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
    if min(t.shape) < 1:
        raise ValueError(f"dimensions must be positive, got {t.shape}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{t.ndim} " + " ".join(str(d) for d in t.shape) + "\n")
        _write_values(fh, t)


def read_model(path: str | os.PathLike) -> FactorModel:
    """Parse a factor model text file; a malformed file, or a factor entry
    that is not a number or not finite, raises a ValueError naming it."""
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
            rank = _int(next(tok), path)
            if rank < 1:
                raise ValueError(f"{path}: rank must be positive, got {rank}")
            factors = []
            for i in range(pattern.n_factors):
                rows, cols = _int(next(tok), path), _int(next(tok), path)
                if rows < 1:
                    raise ValueError(f"{path}: factor {i} rows must be positive, got {rows}")
                if cols != rank:
                    raise ValueError(f"{path}: factor has {cols} columns, rank is {rank}")
                where = f"{path}: factor {i}"
                data = np.array(_floats(itertools.islice(tok, rows * cols), where))
                if data.size < rows * cols:
                    raise ValueError(f"{path}: model file ended early")
                data = _finite(data, where, "factor")
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

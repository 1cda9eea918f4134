"""Plain-text serialization for tensors and factor models.

Tensor file layout::

    # optional comment lines anywhere
    3 4 4 5          <- order, then the dimensions
    1.5 0.25 ...     <- entries, whitespace separated, column-major order

Column-major means the first index varies fastest, matching the flat vector
convention used by the solvers. Values are written with 17 significant
digits so a write/read round trip is bit exact.

The readers take whole lines about ``_READ_BYTES`` characters at a time (a
longer line is one chunk). One pass over each chunk parses its values with
Python's ``float`` straight into a preallocated float64 array and checks
them for NaN and infinity, so reading needs about the output array plus one
chunk of memory, and the accepted numbers are exactly those ``float``
accepts.

Model file layout::

    psym3 2          <- pattern name, rank
    4 2              <- rows and columns of the first distinct factor
    ...              <- its entries, column-major
    5 2              <- next factor, and so on
"""
from __future__ import annotations

import itertools
import math
import os
import stat
from typing import IO

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
_READ_BYTES = 1 << 16  # about this many characters of whole lines read per chunk


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


def _float(token: str, entry: int, where: str) -> float:
    """``float(token)``; ValueError naming ``where`` and the 0-based
    ``entry`` when the token is not a number."""
    try:
        return float(token)
    except ValueError as exc:
        raise ValueError(f"{where}: entry {entry} (0-based, column-major): {exc}") from None


class _Tokens:
    """The whitespace-separated tokens of an open text file, comments
    stripped, read ``_READ_BYTES`` of whole lines at a time.

    Header tokens come one at a time from ``next``; a block of values comes
    from :meth:`floats` straight into a preallocated float64 array, so
    memory stays about the values plus one chunk.
    """

    def __init__(self, fh: IO[str]):
        self._fh = fh
        self._toks: list[str] = []
        self._pos = 0
        # A regular file of s bytes holds at most s // 2 + 1 tokens, so a
        # header that claims more values is refused by its count instead of
        # by a failed allocation.
        st = os.fstat(fh.fileno())
        self._cap = st.st_size // 2 + 1 if stat.S_ISREG(st.st_mode) else math.inf

    def _more(self) -> bool:
        """True once a token is ready, loading chunks as needed; False at the
        end of the file."""
        while self._pos == len(self._toks):
            self._toks, self._pos = [], 0
            lines = self._fh.readlines(_READ_BYTES)
            if not lines:
                return False
            text = "".join(lines)
            if "#" in text:
                text = "\n".join(line.split("#", 1)[0] for line in lines)
            del lines
            self._toks = text.split()
        return True

    def __iter__(self) -> "_Tokens":
        return self

    def __next__(self) -> str:
        if not self._more():
            raise StopIteration
        self._pos += 1
        return self._toks[self._pos - 1]

    def floats(self, count: int, where: str, what: str) -> tuple[np.ndarray, int]:
        """The next ``count`` tokens parsed by ``float`` into a float64 array,
        and how many there were: fewer than ``count`` when the file ends
        first, and the array's tail is then unset. A token that is not a
        number raises as :func:`_float` does, naming its entry in the block;
        once ``count`` are in, so does the first NaN or infinite value."""
        out = np.empty(min(count, self._cap))
        n, bad = 0, None
        while n < out.size and self._more():
            k = min(len(self._toks) - self._pos, out.size - n)
            try:
                # the slice dies with the map: no spent chunk outlives _more
                out[n : n + k] = np.fromiter(
                    map(float, self._toks[self._pos : self._pos + k]), np.float64, k
                )
            except ValueError:
                for j in range(k):
                    _float(self._toks[self._pos + j], n + j, where)
                raise
            if bad is None and not np.isfinite(out[n : n + k]).all():
                bad = n + int(np.isfinite(out[n : n + k]).argmin())
            n += k
            self._pos += k
        if bad is not None and n == count:
            raise ValueError(f"{where}: entry {bad} (0-based, column-major) is {out[bad]}; "
                             f"{what} entries must be finite")
        return out, n


def read_tensor(path: str | os.PathLike) -> np.ndarray:
    """Parse a tensor text file into a float64 array.

    Raises ValueError on a malformed header, a token that is not a number,
    a wrong value count, or a NaN or infinite entry (including tokens such
    as ``1e400`` that overflow); the message names the file, and the 0-based
    entry of a bad value.
    """
    with open(path, "r", encoding="utf-8") as fh:
        tok = _Tokens(fh)
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
        count = math.prod(dims)
        flat, found = tok.floats(count, str(path), "tensor")
        for t in tok:  # values beyond the count are parsed only to count them
            _float(t, found, str(path))
            found += 1
    if found != count:
        raise ValueError(f"{path}: expected {count} values for dims {dims}, found {found}")
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
        tok = _Tokens(fh)
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
                data, found = tok.floats(rows * cols, f"{path}: factor {i}", "factor")
                if found < rows * cols:
                    raise ValueError(f"{path}: model file ended early")
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

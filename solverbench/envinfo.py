"""BLAS thread pinning and the environment block every result carries.

pin_blas_threads() must run before numpy is imported anywhere in the
process: OpenBLAS and OpenMP read their thread counts once, when the
library loads. This module imports numpy only inside functions.
"""
from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

PIN_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class PinError(RuntimeError):
    pass


def pin_blas_threads() -> None:
    """Pin every BLAS/OpenMP pool to one thread and clear SYMTENSOR_THREADS."""
    if "numpy" in sys.modules:
        raise PinError("numpy was imported before the BLAS thread pin could be applied")
    for var in PIN_VARS:
        os.environ[var] = "1"
    os.environ.pop("SYMTENSOR_THREADS", None)


def openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def verify_pin() -> None:
    """Refuse to measure when the loaded BLAS runs more than one thread."""
    n = openblas_threads()
    if n is not None and n != 1:
        raise PinError(f"OpenBLAS runs {n} threads after pinning to 1")


def environment(numba_enabled: bool) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        for key in ("blas", "lapack"):
            info = deps.get(key, {})
            blas[key] = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, AttributeError):  # numpy < 1.25 has no dict mode
        blas = {"blas": "unknown", "lapack": "unknown"}
    return {
        "NUMBA_ENABLED": bool(numba_enabled),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas["blas"],
        "lapack": blas["lapack"],
        "blas_threads_env": {v: os.environ.get(v) for v in PIN_VARS},
        "openblas_threads": openblas_threads(),
        "SYMTENSOR_THREADS": os.environ.get("SYMTENSOR_THREADS"),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }

"""Symmetric outer product decomposition of third- and fourth-order tensors.

Two solver families over structured random or user-supplied tensors: a
column-wise least-squares method that exploits the index symmetries
(pcls3, pcls4_case1, pcls4_case2, pcls4_full) and the alternating
least-squares baselines it is compared against (als3, als3_sym, als4_sym).
Each public name is declared once, in its submodule's ``__all__``.
"""
from . import core, harness, io, solvers
from .core import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .io import *  # noqa: F401,F403
from .solvers import *  # noqa: F401,F403

__version__ = "0.1.0"

# solverbench/run.py records this flag; the kernels have no numba backend.
NUMBA_ENABLED = False

__all__ = [
    *core.__all__, *harness.__all__, *io.__all__, *solvers.__all__,
    "NUMBA_ENABLED", "__version__",
]

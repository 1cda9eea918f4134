"""Session set-up shared by the test modules.

BLAS runs one thread per process. The acceptance fixtures run their solver
jobs on worker processes, and threaded BLAS pools in several processes spin
against each other on a small core count. No result depends on the BLAS
thread count. The variables take effect only if they are set before numpy
is first imported, which is why they live here.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

"""The benchmark itself, once per workload, as the test suite runs it.

``solverbench/run.py --seconds 0 --trace 1`` makes one untraced and one
traced round over the workload's problems. A solver exception, a solver
output that fails the benchmark's checks, a repeat that changed, or a layer
the tracer can no longer read all show as a non-zero exit, ``correct:
false`` or a failed run in the last line of standard output.
"""
import importlib
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import symtensor
from symtensor import solvers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Solver runs in the two rounds: 2 rounds x problems per workload x 2 solvers.
ATTEMPTED = {"psym3-ex1": 20, "fsym4-ex4": 16, "psym3-n60": 4}


@pytest.mark.parametrize("workload", sorted(ATTEMPTED))
def test_benchmark_runs_clean(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("solverbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] == ATTEMPTED[workload]


def test_tracer_targets_resolve(monkeypatch):
    """The tracer skips a name the package no longer has, and that layer then
    reads 0. Every name it wraps must resolve (``symmetric_psd_factor`` left
    the package and is the one expected gap), ``run.py`` reads
    ``NUMBA_ENABLED``, and ``pcls4_full`` calls ``qr_orthogonal_factor``
    through the module global that the tracer rebinds."""
    path = os.path.join(ROOT, "solverbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_solverbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (mod, attr) for mod, attr, _ in tracing.TARGETS
        if not hasattr(importlib.import_module(mod), attr)
    ]
    assert missing == [("symtensor.solvers", "symmetric_psd_factor")]
    assert symtensor.NUMBA_ENABLED is False

    calls = []
    qr = solvers.qr_orthogonal_factor
    monkeypatch.setattr(solvers, "qr_orthogonal_factor", lambda p: calls.append(1) or qr(p))
    x, truth = symtensor.generate_problem("fsym4", (4, 4, 4, 4), 2, np.random.default_rng(5))
    start = truth.factors[0] + 0.1 * np.random.default_rng(6).standard_normal((4, 2))
    _, trace = solvers.pcls4_full(x, 2, start, symtensor.SolverConfig(max_iters=5))
    assert len(calls) == trace.iterations + 1

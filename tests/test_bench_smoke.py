"""The benchmark itself, once per workload, as the test suite runs it.

``solverbench/run.py --seconds 0 --trace 1`` makes one untraced and one
traced round over the workload's problems. A solver exception, a solver
output that fails the benchmark's checks, a repeat that changed, or a layer
the tracer can no longer read all show as a non-zero exit, ``correct:
false`` or a failed run in the last line of standard output.
"""
import json
import os
import subprocess
import sys

import pytest

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

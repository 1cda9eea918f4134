"""End-to-end command-line runs in subprocesses.

Most cases set SYMTENSOR_NO_NUMBA to skip compiler startup; one decompose
run keeps the default environment, so it goes through the compiled kernels
where numba is installed and through the pure-Python kernels otherwise.

Each child runs ``python -m symtensor`` from a scratch working directory and
imports the same package this test process imported, whether that package is
installed or found through PYTHONPATH.
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import symtensor
from symtensor import read_model, read_tensor, residual_sq, symmetry_check, write_tensor
from symtensor.core import SymmetryPattern


# The directory that holds the imported package, as an absolute path, so a
# child started in another working directory resolves the same code.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(symtensor.__file__)))


def run_cli(*args, cwd, numba=False):
    env = dict(os.environ)
    if numba:
        env.pop("SYMTENSOR_NO_NUMBA", None)
    else:
        env["SYMTENSOR_NO_NUMBA"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p
    )
    res = subprocess.run(
        [sys.executable, "-m", "symtensor", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=str(cwd),
        env=env,
    )
    if "No module named symtensor" in res.stderr:
        pytest.fail(f"child process could not import symtensor: {res.stderr.strip()}")
    return res


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    res = run_cli(
        "generate", "--kind", "psym3", "--dims", "6,6,5", "--rank", "2",
        "--seed", "3", "--output", "x.txt", "--emit-model", "truth.txt",
        cwd=d,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["x.txt", "truth.txt"]
    return d


# --------------------------------------------------------------------- #
# generate                                                                #
# --------------------------------------------------------------------- #


def test_generate_output_is_symmetric_and_consistent(workdir):
    x = read_tensor(str(workdir / "x.txt"))
    model = read_model(str(workdir / "truth.txt"))
    assert x.shape == (6, 6, 5)
    assert symmetry_check(x, SymmetryPattern.PSYM3, 1e-12)
    assert residual_sq(x, model) <= 1e-18


def test_generate_same_flags_same_bytes(workdir, tmp_path):
    res = run_cli(
        "generate", "--kind", "psym3", "--dims", "6,6,5", "--rank", "2",
        "--seed", "3", "--output", "again.txt", cwd=tmp_path,
    )
    assert res.returncode == 0
    assert (tmp_path / "again.txt").read_bytes() == (workdir / "x.txt").read_bytes()


def test_generate_rejects_nonpositive_rank(tmp_path):
    res = run_cli(
        "generate", "--kind", "psym3", "--dims", "4,4,3", "--rank", "0",
        "--output", "x.txt", cwd=tmp_path,
    )
    assert res.returncode == 2
    assert "positive" in res.stderr


def test_generate_rejects_wrong_dim_count(tmp_path):
    res = run_cli(
        "generate", "--kind", "psym3", "--dims", "4,4", "--rank", "2",
        "--output", "x.txt", cwd=tmp_path,
    )
    assert res.returncode == 2
    assert "needs 3 dims" in res.stderr


def test_generate_rejects_mismatched_symmetric_dims(tmp_path):
    res = run_cli(
        "generate", "--kind", "psym3", "--dims", "4,5,3", "--rank", "2",
        "--output", "x.txt", cwd=tmp_path,
    )
    assert res.returncode == 1
    assert "error:" in res.stderr


# --------------------------------------------------------------------- #
# decompose                                                               #
# --------------------------------------------------------------------- #


def test_decompose_truth_start_converges_numba_path(workdir):
    """Runs with the default backend: compiled where numba is installed,
    pure Python otherwise."""
    res = run_cli(
        "decompose", "--input", "x.txt", "--solver", "pcls", "--pattern", "psym3",
        "--rank", "2", "--init-model", "truth.txt",
        "--output-model", "out.txt", "--trace", "tr.csv",
        cwd=workdir, numba=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["out.txt", "tr.csv"]
    assert "pcls: Converged after 1 iterations" in res.stderr

    fit = read_model(str(workdir / "out.txt"))
    x = read_tensor(str(workdir / "x.txt"))
    assert residual_sq(x, fit) <= 1e-10
    rows = (workdir / "tr.csv").read_text().splitlines()
    assert rows[0] == "iteration,residual_sq,elapsed_s"
    assert len(rows) == 2


def test_decompose_als_runs_too(workdir):
    res = run_cli(
        "decompose", "--input", "x.txt", "--solver", "als", "--pattern", "psym3",
        "--rank", "2", "--init-model", "truth.txt", "--init-sigma", "0.05",
        "--output-model", "als_out.txt", "--trace", "als_tr.csv",
        cwd=workdir,
    )
    assert res.returncode == 0, res.stderr
    assert "als: Converged" in res.stderr


def test_decompose_hits_iteration_cap(workdir):
    res = run_cli(
        "decompose", "--input", "x.txt", "--solver", "pcls", "--pattern", "psym3",
        "--rank", "2", "--max-iters", "2", "--seed", "1",
        "--output-model", "cap.txt", "--trace", "cap.csv",
        cwd=workdir,
    )
    assert res.returncode == 3
    assert "MaxIters after 2 iterations" in res.stderr


def test_decompose_stalls_on_noise(tmp_path):
    rng = np.random.default_rng(60)
    write_tensor(str(tmp_path / "noise.txt"), rng.standard_normal((6, 6, 5)))
    res = run_cli(
        "decompose", "--input", "noise.txt", "--solver", "als", "--pattern", "psym3",
        "--rank", "1", "--seed", "0", cwd=tmp_path,
    )
    assert res.returncode == 4
    assert "Stalled" in res.stderr


def test_decompose_rejects_asymmetric_input_for_pcls(tmp_path):
    rng = np.random.default_rng(61)
    write_tensor(str(tmp_path / "noise.txt"), rng.standard_normal((6, 6, 5)))
    res = run_cli(
        "decompose", "--input", "noise.txt", "--solver", "pcls", "--pattern", "psym3",
        "--rank", "1", cwd=tmp_path,
    )
    assert res.returncode == 1
    assert "not psym3-symmetric" in res.stderr


def test_decompose_rejects_overflowing_input(tmp_path):
    x, _ = symtensor.generate_problem("psym3", (4, 4, 5), 2, np.random.default_rng(62))
    x[0, 0, 0] = 1e308
    write_tensor(str(tmp_path / "big.txt"), x)
    res = run_cli(
        "decompose", "--input", "big.txt", "--solver", "pcls", "--pattern", "psym3",
        "--rank", "2", cwd=tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.splitlines() == [res.stderr.strip()]
    assert res.stderr.startswith("error:") and "overflows" in res.stderr
    assert not (tmp_path / "model.txt").exists()
    assert not (tmp_path / "trace.csv").exists()


def test_decompose_unavailable_solver_is_usage_error(tmp_path):
    res = run_cli(
        "decompose", "--input", "whatever.txt", "--solver", "als",
        "--pattern", "psym4-case1", "--rank", "2", cwd=tmp_path,
    )
    assert res.returncode == 2
    assert "not available" in res.stderr


def test_decompose_missing_input_is_runtime_error(tmp_path):
    res = run_cli(
        "decompose", "--input", "absent.txt", "--solver", "pcls",
        "--pattern", "psym3", "--rank", "2", cwd=tmp_path,
    )
    assert res.returncode == 1
    assert "error:" in res.stderr


def test_decompose_loose_tolerance_stops_early(workdir):
    res = run_cli(
        "decompose", "--input", "x.txt", "--solver", "pcls", "--pattern", "psym3",
        "--rank", "2", "--init-model", "truth.txt", "--init-sigma", "0.2",
        "--tol", "1e-2", "--seed", "5",
        "--output-model", "loose.txt", "--trace", "loose.csv",
        cwd=workdir,
    )
    assert res.returncode == 0, res.stderr
    rows = (workdir / "loose.csv").read_text().splitlines()[1:]
    assert float(rows[-1].split(",")[1]) <= 1e-2


# --------------------------------------------------------------------- #
# benchmark                                                               #
# --------------------------------------------------------------------- #


def test_benchmark_preset_scaled_smoke(tmp_path):
    res = run_cli(
        "benchmark", "--preset", "example1", "--scale", "0.25", "--seeds", "2",
        "--max-iters", "500", "--out-dir", "bench", cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == os.path.join("bench", "summary.json")
    with open(tmp_path / "bench" / "summary.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["experiment"]["kind"] == "psym3"
    assert doc["experiment"]["n_seeds"] == 2
    assert set(doc["aggregates"]) == {"pcls", "als"}
    assert "pcls: converged" in res.stderr


def test_benchmark_size_sweep(tmp_path):
    res = run_cli(
        "benchmark", "--kind", "psym3", "--sizes", "4,5", "--seeds", "1",
        "--init", "perturbed", "--max-iters", "300", "--out-dir", "sweep",
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == os.path.join("sweep", "sweep.json")
    with open(tmp_path / "sweep" / "sweep.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["kind"] == "psym3"
    assert [entry["size"] for entry in doc["results"]] == [4, 5]
    for entry in doc["results"]:
        assert os.path.exists(tmp_path / entry["summary"])


def test_benchmark_sizes_need_psym3(tmp_path):
    res = run_cli(
        "benchmark", "--kind", "fsym4", "--sizes", "4", "--seeds", "1", cwd=tmp_path
    )
    assert res.returncode == 2
    assert "psym3" in res.stderr


def test_benchmark_usage_errors(tmp_path):
    assert run_cli("benchmark", "--preset", "nope", cwd=tmp_path).returncode == 2
    assert run_cli("benchmark", "--seeds", "0", "--preset", "example1", cwd=tmp_path).returncode == 2
    res = run_cli("benchmark", cwd=tmp_path)
    assert res.returncode == 2
    assert "provide --preset" in res.stderr


def test_no_subcommand_is_usage_error(tmp_path):
    assert run_cli(cwd=tmp_path).returncode == 2

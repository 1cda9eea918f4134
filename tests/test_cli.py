"""End-to-end command-line runs in subprocesses.

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
from symtensor import (
    FactorModel,
    read_model,
    read_tensor,
    residual_sq,
    symmetry_check,
    write_model,
    write_tensor,
)
from symtensor.cli import _PRESETS
from symtensor.core import SymmetryPattern


# The directory that holds the imported package, as an absolute path, so a
# child started in another working directory resolves the same code.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(symtensor.__file__)))


def run_cli(*args, cwd):
    env = dict(os.environ)
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
    """Runs in the default environment. The name is older than the single
    pure-Python kernel backend and is kept so the test id stays stable."""
    res = run_cli(
        "decompose", "--input", "x.txt", "--solver", "pcls", "--pattern", "psym3",
        "--rank", "2", "--init-model", "truth.txt",
        "--output-model", "out.txt", "--trace", "tr.csv",
        cwd=workdir,
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


def test_decompose_rejects_non_finite_file_at_read(tmp_path):
    (tmp_path / "bad.txt").write_text("3 2 2 1\n1 1 nan 1\n")
    res = run_cli(
        "decompose", "--input", "bad.txt", "--solver", "als", "--pattern", "psym3",
        "--rank", "1", cwd=tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.splitlines() == [res.stderr.strip()]
    assert res.stderr.startswith("error:") and "bad.txt: entry 2 " in res.stderr
    assert not (tmp_path / "model.txt").exists()
    assert not (tmp_path / "trace.csv").exists()


def test_decompose_rejects_non_finite_model_at_read(tmp_path):
    x, truth = symtensor.generate_problem("psym3", (4, 4, 5), 2, np.random.default_rng(63))
    truth.factors[0][1, 1] = np.nan
    write_tensor(str(tmp_path / "x.txt"), x)
    write_model(str(tmp_path / "nan.txt"), truth)
    res = run_cli(
        "decompose", "--input", "x.txt", "--solver", "als", "--pattern", "psym3",
        "--rank", "2", "--init-model", "nan.txt", cwd=tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.splitlines() == [res.stderr.strip()]
    assert res.stderr.startswith("error:") and "nan.txt: factor 0: entry 5 " in res.stderr
    assert "DLASCL" not in res.stdout + res.stderr
    assert not (tmp_path / "model.txt").exists()
    assert not (tmp_path / "trace.csv").exists()


def test_decompose_rejects_starting_model_beyond_scale_guard(tmp_path):
    x, truth = symtensor.generate_problem("fsym4", (5, 5, 5, 5), 2, np.random.default_rng(65))
    truth.factors[0][:] *= 1e100
    write_tensor(str(tmp_path / "x.txt"), x)
    write_model(str(tmp_path / "huge.txt"), truth)
    res = run_cli(
        "decompose", "--input", "x.txt", "--solver", "pcls", "--pattern", "fsym4",
        "--rank", "2", "--init-model", "huge.txt", cwd=tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.splitlines() == [res.stderr.strip()]
    assert res.stderr.startswith("error: starting factor A has an entry of magnitude")
    assert "DLASCL" not in res.stdout + res.stderr
    assert not (tmp_path / "model.txt").exists()
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("init_model", [False, True], ids=["random-start", "init-model"])
@pytest.mark.parametrize("sigma", ["-1", "nan"])
def test_decompose_rejects_bad_init_sigma(tmp_path, sigma, init_model):
    x, truth = symtensor.generate_problem("psym3", (4, 4, 5), 2, np.random.default_rng(64))
    write_tensor(str(tmp_path / "x.txt"), x)
    write_model(str(tmp_path / "truth.txt"), truth)
    start = ("--init-model", "truth.txt") if init_model else ()
    res = run_cli(
        "decompose", "--input", "x.txt", "--solver", "pcls", "--pattern", "psym3",
        "--rank", "2", *start, "--init-sigma", sigma, cwd=tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.splitlines() == [res.stderr.strip()]
    assert res.stderr.startswith("error:") and "sigma" in res.stderr
    assert not (tmp_path / "model.txt").exists()
    assert not (tmp_path / "trace.csv").exists()


def test_decompose_summary_names_scale_guard_and_workarounds(tmp_path):
    rng = np.random.default_rng(40)
    x, truth = symtensor.generate_problem("psym3", (6, 6, 5), 2, rng)
    write_tensor(str(tmp_path / "x.txt"), x)
    a, c = truth.factors
    # deep in the scale-split gauge: the factor-scale guard stops the run
    tiny_c = FactorModel(SymmetryPattern.PSYM3, [a, 1e-70 * c])
    # a dead column: rank-deficient solves and a redrawn column
    dead = FactorModel(SymmetryPattern.PSYM3, [a * [1.0, 0.0], c * [1.0, 0.0]])
    write_model(str(tmp_path / "tiny.txt"), tiny_c)
    write_model(str(tmp_path / "dead.txt"), dead)

    res = run_cli(
        "decompose", "--input", "x.txt", "--solver", "pcls", "--pattern", "psym3",
        "--rank", "2", "--init-model", "tiny.txt", "--tol", "1e-300", cwd=tmp_path,
    )
    assert res.returncode == 4, res.stderr
    (line,) = res.stderr.splitlines()
    iters = int(line.split(" after ")[1].split()[0])
    assert line.startswith("pcls: Stalled after ")
    assert f", scale guard at iteration {iters}" in line

    res = run_cli(
        "decompose", "--input", "x.txt", "--solver", "pcls", "--pattern", "psym3",
        "--rank", "2", "--init-model", "dead.txt", "--tol", "1e-300",
        "--max-iters", "3", cwd=tmp_path,
    )
    assert res.returncode == 3, res.stderr
    (line,) = res.stderr.splitlines()
    assert "scale guard" not in line
    assert ", rank_deficient_solves " in line and ", redrawn_columns " in line
    assert "clipped_count" not in line


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
    """Explicit flags override the preset's fields; the rest come from it."""
    res = run_cli(
        "benchmark", "--preset", "example1", "--scale", "0.25", "--seeds", "2",
        "--init", "random", "--collinearity", "0.5", "--init-sigma", "0.2",
        "--max-iters", "500", "--out-dir", "bench", cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == os.path.join("bench", "summary.json")
    with open(tmp_path / "bench" / "summary.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    exp = doc["experiment"]
    assert (exp["kind"], exp["dims"], exp["rank"]) == ("psym3", [4, 4, 4], 4)
    assert (exp["n_seeds"], exp["init"], exp["init_sigma"], exp["collinearity"]) == (
        2, "random", 0.2, 0.5
    )
    assert set(doc["aggregates"]) == {"pcls", "als"}
    assert "pcls: converged" in res.stderr


def test_benchmark_solver_limits_reach_every_run(tmp_path):
    """--max-iters and --tol are ExperimentSpec fields like the other flags:
    every run stops at the cap, and the summary echoes both limits and no
    solver seed."""
    res = run_cli(
        "benchmark", "--kind", "psym3", "--dims", "4,4,3", "--rank", "2", "--seeds", "2",
        "--max-iters", "1", "--tol", "1e-3", "--out-dir", "bench", cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "bench" / "summary.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert len(doc["runs"]) == 4 and all(r["iterations"] == 1 for r in doc["runs"])
    exp = doc["experiment"]
    assert (exp["max_iters"], exp["tol"]) == (1, 0.001)
    assert "config" not in exp and "seed" not in exp


@pytest.mark.parametrize("preset", sorted(_PRESETS))
def test_every_preset_runs_scaled_down(tmp_path, preset):
    res = run_cli(
        "benchmark", "--preset", preset, "--scale", "0.1", "--seeds", "1",
        "--max-iters", "20", "--out-dir", "out", cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    name = "sweep.json" if "sizes" in _PRESETS[preset] else "summary.json"
    assert res.stdout.strip() == os.path.join("out", name)
    assert os.path.exists(tmp_path / "out" / name)


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


def test_benchmark_scaled_sweep_runs_each_size_once(tmp_path):
    """--scale 0.02 maps example3's nine sizes onto 1 and 2."""
    res = run_cli(
        "benchmark", "--preset", "example3", "--scale", "0.02", "--seeds", "1",
        "--max-iters", "5", "--out-dir", "sweep", cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "sweep" / "sweep.json", encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    assert [entry["size"] for entry in results] == [1, 2]
    assert sorted(os.listdir(tmp_path / "sweep")) == ["size001", "size002", "sweep.json"]
    for entry in results:
        assert os.path.exists(tmp_path / entry["summary"])


@pytest.mark.parametrize(
    "flags",
    [("--preset", "example3", "--scale", "0.02", "--dims", "3,3,2", "--rank", "2"),
     ("--kind", "psym3", "--sizes", "4,5", "--rank", "2")],
    ids=["preset", "sizes"],
)
def test_benchmark_sweep_rejects_dims_and_rank(tmp_path, flags):
    res = run_cli("benchmark", *flags, "--seeds", "1", "--max-iters", "5",
                  "--out-dir", "out", cwd=tmp_path)
    assert res.returncode == 2
    assert "--dims/--rank" in res.stderr
    assert os.listdir(tmp_path) == []


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


@pytest.mark.parametrize(
    "flags,message",
    [(("--preset", "example1", "--collinearity", "1.5"), "collinearity"),
     (("--preset", "example3", "--scale", "0.1", "--init", "perturbed",
       "--init-sigma", "-1"), "init_sigma"),
     (("--preset", "example1", "--tol", "0"), "tol must be positive")],
    ids=["collinearity", "init-sigma", "tol"],
)
def test_benchmark_bad_flags_write_nothing(tmp_path, flags, message):
    res = run_cli("benchmark", *flags, "--out-dir", "out", cwd=tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and message in res.stderr
    assert os.listdir(tmp_path) == []


def test_no_subcommand_is_usage_error(tmp_path):
    assert run_cli(cwd=tmp_path).returncode == 2

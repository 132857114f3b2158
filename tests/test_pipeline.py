"""Every subcommand runs the same set-up stages on one distance oracle."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import krigamg
from krigamg import coarsen, metric, pipeline, smoother
from krigamg.cli import main
from krigamg.pipeline import RunConfig

SPH = ["--case", "s-iso", "--grid-m", "12", "--model", "sph", "--K", "1", "--seed", "2"]
EMP = ["--case", "c-aniso", "--rings", "8", "--model", "emp", "--K", "10", "--seed", "3"]


def run_cli(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


@pytest.mark.parametrize("flags, stem", [(SPH, "s-iso_sph-1"), (EMP, "c-aniso_emp-10")])
def test_coarsen_and_solve_write_the_same_splitting(tmp_path, flags, stem):
    for command in ("coarsen", "solve"):
        assert run_cli([command, *flags, "--out", str(tmp_path / command)]) == 0
    name = f"{stem}_splitting.csv"
    assert (tmp_path / "coarsen" / name).read_bytes() == (tmp_path / "solve" / name).read_bytes()


def test_variogram_fit_csv_is_the_setup_model(tmp_path):
    assert run_cli(["variogram", *SPH, "--out", str(tmp_path)]) == 0
    run = pipeline.setup(RunConfig(case="s-iso", grid_m=12, model="sph", K=1, seed=2))
    lines = (tmp_path / "s-iso_sph-1_fit.csv").read_text().splitlines()
    assert lines[0] == "h,gamma_model,fit_warning"
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(rows[:, 0], run.emp.centers)
    np.testing.assert_array_equal(rows[:, 1], run.model.gamma(run.emp.centers))
    assert np.all(rows[:, 2] == int(bool(run.model.fit_warning)))


def test_run_solve_builds_one_distance_oracle(monkeypatch):
    built = []
    init = metric.GraphDistanceOracle.__post_init__

    def counting_init(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(metric.GraphDistanceOracle, "__post_init__", counting_init)
    pipeline.run_solve(RunConfig(case="s-iso", grid_m=10, model="sph", K=1, seed=1))
    assert len(built) == 1


def test_run_solve_builds_one_sweeper(monkeypatch):
    """The test vectors and the two-grid cycle relax with the same sweeper."""
    built = []
    init = smoother.ColoredSweeper.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(smoother.ColoredSweeper, "__init__", counting_init)
    op = pipeline.run_solve(RunConfig(case="s-iso", grid_m=10, model="sph", K=1, seed=1))[3]
    assert len(built) == 1 and built[0] is op.sweeper


def test_run_solve_runs_no_graph_metric_diagnostic(monkeypatch):
    """On the empirical path a run asks for no pair distance at all."""
    calls = []

    def counting(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for owner, name in ((pipeline, "embeddability_failure_fraction"),
                        (metric.GraphDistanceOracle, "pairwise")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    pipeline.run_solve(RunConfig(case="c-aniso", rings=8, model="emp", K=10, seed=3))
    assert calls == []


@pytest.mark.parametrize("external", [False, True])
def test_coarsen_prints_the_graph_metric_diagnostics(tmp_path, capsys, external):
    config = RunConfig(case="c-aniso", rings=8, model="emp", K=10, seed=3)
    flags = EMP
    if external:
        assert run_cli(["generate", "--case", "c-aniso", "--rings", "8",
                        "--out", str(tmp_path)]) == 0
        config = RunConfig(matrix=str(tmp_path / "c-aniso.mtx"),
                           coords=str(tmp_path / "c-aniso.coords"), model="emp", K=10, seed=3)
        flags = ["--matrix", config.matrix, "--coords", config.coords,
                 "--model", "emp", "--K", "10", "--seed", "3"]
    capsys.readouterr()
    assert run_cli(["coarsen", *flags, "--out", str(tmp_path / "coarsen")]) == 0
    out = capsys.readouterr().out
    run = pipeline.setup(config)
    state, _ = pipeline.coarsen_run(config, run)
    fraction = coarsen.embeddability_failure_fraction(state, run.oracle)
    corr = metric.distance_correlation(run.problem, seed=config.seed)
    assert 0.0 < fraction < 1.0
    assert f"graph/coordinate distance correlation: {corr:.4f}\n" in out
    assert f"embeddability failures={fraction:.3f}\n" in out


def test_solve_prints_no_graph_metric_diagnostic(tmp_path, capsys):
    assert run_cli(["solve", *EMP, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "diagnostics: negative variances=" in out
    assert "correlation" not in out and "embeddability" not in out


def test_setup_paths():
    emp = pipeline.setup(RunConfig(case="s-iso", grid_m=8, model="emp", K=4))
    assert emp.emp is None and emp.model is None
    sph = pipeline.setup(RunConfig(case="s-iso", grid_m=8, model="sph"))
    assert sph.source.oracle is sph.oracle
    assert sph.model.family == "spherical" and len(sph.emp) >= 2


def test_long_cloud_builds_the_ball_matrix_once(monkeypatch):
    """A variogram cloud beyond twice the radius: one search, at the cloud's
    distance, on the parametric path only."""
    searches = []
    search = metric.graph_distances_from

    def counting_search(matrix, sources, radius):
        searches.append(radius)
        return search(matrix, sources, radius)

    monkeypatch.setattr(metric, "graph_distances_from", counting_search)
    config = RunConfig(case="s-iso", grid_m=20, model="sph", K=1, vario_max_distance=12.0)
    run = pipeline.setup(config)
    emp = pipeline.setup(dataclasses.replace(config, model="emp"))
    monkeypatch.undo()
    assert searches == [12.0, 8.0]
    assert run.oracle.reach == 12.0 and emp.oracle.reach == 8.0
    expected = metric.graph_distances_from(run.problem.matrix, np.arange(run.problem.n), 12.0)
    got = (run.oracle.indptr, run.oracle.indices, run.oracle.distances)
    for mine, theirs in zip(got, expected, strict=True):
        assert mine.tobytes() == theirs.tobytes()


def test_a_kept_ball_gives_the_bits_of_a_new_one(monkeypatch):
    """emp-10 then sph-1 on one matrix: the second run builds no ball, and its
    outputs equal those of a sph-1 run whose ball was built afresh."""
    searches = []
    search = metric.graph_distances_from

    def counting_search(*args):
        searches.append(1)
        return search(*args)

    config = RunConfig(case="s-iso", grid_m=20, model="emp", K=10, seed=4)
    pipeline.run_solve(config)
    monkeypatch.setattr(metric, "graph_distances_from", counting_search)
    kept = pipeline.run_solve(dataclasses.replace(config, model="sph", K=1))
    assert searches == []
    metric.GraphDistanceOracle(pipeline.build_problem(RunConfig(case="c-iso", rings=4)).matrix,
                               4.0)  # replaces the kept ball
    fresh = pipeline.run_solve(dataclasses.replace(config, model="sph", K=1))
    assert len(searches) == 2
    assert kept[0] == fresh[0]
    assert kept[1].coarse_order == fresh[1].coarse_order
    p, q = kept[2].to_csr(), fresh[2].to_csr()
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(p, part), getattr(q, part))


LOADED_SCIPY = """
import sys
from krigamg import pipeline
for model in ("sph", "emp"):
    pipeline.run_solve(pipeline.RunConfig(case="s-iso", grid_m=8, model=model))
print(" ".join(sorted(name for name in sys.modules if name.startswith("scipy."))))
"""


def test_a_run_imports_neither_scipy_optimize_nor_scipy_io():
    """The fit's range search runs in-module, and scipy.io loads only when a
    .mtx file is read or written."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(krigamg.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", LOADED_SCIPY], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "scipy.sparse.linalg" in out  # the run did load scipy
    assert not [name for name in out if name.split(".")[1] in ("optimize", "io")]

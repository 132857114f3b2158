"""Every subcommand runs the same set-up stages on one distance oracle."""

import numpy as np
import pytest

from krigamg import metric, pipeline
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
    assert np.all(rows[:, 2] == int(run.model.fit_warning))


def test_run_solve_builds_one_distance_oracle(monkeypatch):
    built = []
    init = metric.GraphDistanceOracle.__post_init__

    def counting_init(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(metric.GraphDistanceOracle, "__post_init__", counting_init)
    pipeline.run_solve(RunConfig(case="s-iso", grid_m=10, model="sph", K=1, seed=1))
    assert len(built) == 1


def test_setup_paths():
    emp = pipeline.setup(RunConfig(case="s-iso", grid_m=8, model="emp", K=4))
    assert emp.emp is None and emp.model is None
    sph = pipeline.setup(RunConfig(case="s-iso", grid_m=8, model="sph"))
    assert sph.source.oracle is sph.oracle
    assert sph.model.family == "spherical" and len(sph.emp) >= 2

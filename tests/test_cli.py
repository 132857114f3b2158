import csv
import re

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from krigamg.cli import main
from krigamg.pipeline import RunConfig, parse_config_file
from krigamg.problems import generate_fd_square

from conftest import isolate, tridiagonal_mtx


def run_cli(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


class TestGenerate:
    def test_s_iso_files(self, tmp_path, capsys):
        code = run_cli(["generate", "--case", "s-iso", "--out", str(tmp_path)])
        assert code == 0
        mtx = tmp_path / "s-iso.mtx"
        coords = tmp_path / "s-iso.coords"
        assert mtx.exists() and coords.exists()
        assert len(coords.read_text().strip().splitlines()) == 2025
        header = mtx.read_text().splitlines()[0]
        assert "symmetric" in header

    def test_s_aniso_values_differ(self, tmp_path):
        assert run_cli(["generate", "--case", "s-aniso", "--grid-m", "6",
                        "--out", str(tmp_path)]) == 0
        from krigamg.problems import load_matrix_market

        back = load_matrix_market(tmp_path / "s-aniso.mtx")
        vals = set(np.round(back.matrix.data, 12))
        assert -0.01 in vals and -1.0 in vals

    def test_invalid_case_usage_error(self, tmp_path):
        assert run_cli(["generate", "--case", "bogus", "--out", str(tmp_path)]) == 1

    def test_generate_needs_case(self, tmp_path):
        assert run_cli(["generate", "--out", str(tmp_path)]) == 1


class TestVariogram:
    def test_writes_matching_grids(self, tmp_path):
        code = run_cli([
            "variogram", "--case", "s-iso", "--grid-m", "15", "--model", "exp",
            "--K", "1", "--seed", "3", "--out", str(tmp_path),
        ])
        assert code == 0
        emp = tmp_path / "s-iso_exp-1_empirical.csv"
        fit = tmp_path / "s-iso_exp-1_fit.csv"
        assert emp.exists() and fit.exists()
        h_emp = [line.split(",")[0] for line in emp.read_text().splitlines()[1:]]
        h_fit = [line.split(",")[0] for line in fit.read_text().splitlines()[1:]]
        assert h_emp == h_fit

    def test_empty_bins_numerical_error(self, tmp_path):
        code = run_cli([
            "variogram", "--case", "s-iso", "--grid-m", "8", "--model", "sph",
            "--vario-max-distance", "0.4", "--out", str(tmp_path),
        ])
        assert code == 2

    def test_emp_model_rejected(self, tmp_path):
        code = run_cli(["variogram", "--case", "s-iso", "--model", "emp",
                        "--out", str(tmp_path)])
        assert code == 1


class TestSolveAndCoarsen:
    def test_solve_writes_report_and_splitting(self, tmp_path):
        code = run_cli([
            "solve", "--case", "s-iso", "--grid-m", "12", "--model", "sph",
            "--K", "1", "--seed", "2", "--out", str(tmp_path),
        ])
        assert code == 0
        report = (tmp_path / "s-iso_sph-1_report.csv").read_text().splitlines()
        assert report[0] == "case,model,K,n_c,q_max,radius,rho,k"
        fields = report[1].split(",")
        assert fields[0] == "s-iso" and fields[1] == "sph-1"
        assert int(fields[3]) == 36  # floor(144/4)
        split = (tmp_path / "s-iso_sph-1_splitting.csv").read_text().splitlines()
        assert len(split) == 145

    def test_byte_identical_outputs_for_same_seed(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli([
                "solve", "--case", "s-iso", "--grid-m", "15", "--model", "exp",
                "--K", "2", "--seed", "11", "--out", str(out),
            ]) == 0
        for name in ("s-iso_exp-2_report.csv", "s-iso_exp-2_splitting.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_coarsen_writes_splitting_and_p(self, tmp_path):
        code = run_cli([
            "coarsen", "--case", "s-aniso", "--grid-m", "10", "--model", "sph",
            "--seed", "4", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "s-aniso_sph-1_splitting.csv").exists()
        assert (tmp_path / "s-aniso_sph-1_interpolation.mtx").exists()

    def test_external_matrix_roundtrip(self, tmp_path):
        assert run_cli(["generate", "--case", "s-iso", "--grid-m", "10",
                        "--out", str(tmp_path)]) == 0
        code = run_cli([
            "solve", "--matrix", str(tmp_path / "s-iso.mtx"),
            "--coords", str(tmp_path / "s-iso.coords"),
            "--model", "sph", "--seed", "5", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "external_sph-1_report.csv").exists()

    @pytest.mark.parametrize("diagonal", ["2 2 -1.0\n", ""])
    def test_external_matrix_without_positive_diagonal_rejected(self, tmp_path, diagonal):
        path = tridiagonal_mtx(tmp_path / "bad.mtx", diagonal)
        assert run_cli(["solve", "--matrix", str(path), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("entries", ["2 2 nan\n", "2 2 inf\n"])
    def test_external_matrix_with_non_finite_entry_rejected(self, tmp_path, capsys, entries):
        path = tridiagonal_mtx(tmp_path / "bad.mtx", entries)
        assert run_cli(["solve", "--matrix", str(path), "--out", str(tmp_path)]) == 1
        assert f"{path}: matrix has a non-finite entry" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["2 0.5x 0.25", "2.0 0.5 0.25"])
    def test_malformed_coords_line_rejected(self, tmp_path, capsys, line):
        assert run_cli(["generate", "--case", "s-iso", "--grid-m", "3",
                        "--out", str(tmp_path)]) == 0
        coords = tmp_path / "s-iso.coords"
        lines = coords.read_text().splitlines()
        lines[1] = line
        coords.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli(["coarsen", "--matrix", str(tmp_path / "s-iso.mtx"),
                        "--coords", str(coords), "--out", str(tmp_path)])
        assert code == 1
        assert f"{coords}:2: expected 'i x y' with an integer i" in capsys.readouterr().err

    def test_coords_without_matrix_rejected(self, tmp_path, capsys):
        coords = tmp_path / "s-iso.coords"
        coords.write_text("1 0.5 0.5\n")
        code = run_cli(["solve", "--case", "s-iso", "--grid-m", "10", "--coords", str(coords),
                        "--out", str(tmp_path)])
        assert code == 1
        assert "coords needs matrix" in capsys.readouterr().err

    def test_mutually_exclusive_targets(self, tmp_path):
        code = run_cli([
            "solve", "--case", "s-iso", "--grid-m", "10",
            "--nc-fraction", "0.25", "--tolerance", "0.5", "--out", str(tmp_path),
        ])
        assert code == 1


class TestUnusualInput:
    """Matrices that pass the input checks and how the pipeline ends on them."""

    LAPLACIAN = generate_fd_square(12, (1.0, 1.0, 0.0)).matrix

    @pytest.mark.parametrize("name, matrix, code", [
        ("disconnected", sp.block_diag([LAPLACIAN, LAPLACIAN]), 0),
        ("isolated-row", isolate(LAPLACIAN, 5), 0),
        ("indefinite", LAPLACIAN - 3.0 * sp.eye(LAPLACIAN.shape[0]), 2),
    ])
    def test_external_matrix_exit_code(self, tmp_path, capsys, name, matrix, code):
        path = tmp_path / f"{name}.mtx"
        scipy.io.mmwrite(str(path), sp.csr_matrix(matrix), symmetry="symmetric")
        assert run_cli(["solve", "--matrix", str(path), "--model", "emp", "--K", "10",
                        "--out", str(tmp_path)]) == code
        if code == 2:
            assert ("numerical failure: Galerkin coarse matrix is not positive definite"
                    in capsys.readouterr().err)

    def test_qmax_beyond_the_ball(self, tmp_path):
        assert run_cli(["solve", "--case", "s-iso", "--grid-m", "12", "--qmax", "40",
                        "--out", str(tmp_path)]) == 0


class TestConfigFile:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("case=s-iso\ngrid_m=10\nmodel=sph\nseed=6\nK=2\n")
        values = parse_config_file(cfg)
        assert values == {"case": "s-iso", "grid_m": 10, "model": "sph",
                          "seed": 6, "K": 2}
        out = tmp_path / "out"
        code = run_cli(["solve", "--config", str(cfg), "--model", "exp",
                        "--out", str(out)])
        assert code == 0
        assert (out / "s-iso_exp-2_report.csv").exists()

    @pytest.mark.parametrize("line", ["turbo=yes", "batch=true", "min_separation=9"])
    def test_unknown_key_rejected(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"case=s-iso\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(cfg))}:2: unknown config key"):
            parse_config_file(cfg)
        assert run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_coords_key_without_matrix_rejected(self, tmp_path, capsys):
        coords = tmp_path / "s-iso.coords"
        coords.write_text("1 0.5 0.5\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"case=s-iso\ngrid_m=10\ncoords={coords}\n")
        assert run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "coords needs matrix" in capsys.readouterr().err

    def test_removed_batch_flag_rejected(self, tmp_path):
        assert run_cli(["solve", "--case", "s-iso", "--grid-m", "10", "--batch",
                        "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("line", [
        "K=two", "K=none", "radius=far", "pair_budget=1.5",
    ])
    def test_bad_value_names_file_and_line(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"case=s-iso\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(cfg))}:2: {line.split('=')[0]}: "):
            parse_config_file(cfg)
        assert run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("text, value", [
        ("q_max=none", None), ("q_max=", None), ("nc-fraction=0.3", 0.3),
    ])
    def test_value_spellings(self, tmp_path, text, value):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(text + "\n")
        assert list(parse_config_file(cfg).values()) == [value]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("name", ["radius", "tolerance", "vario_max_distance", "bin_width"])
    def test_non_finite_value_rejected(self, tmp_path, capsys, name, value):
        out = tmp_path / "out"
        code = run_cli(["solve", "--case", "s-iso", "--grid-m", "12",
                        "--" + name.replace("_", "-"), value, "--out", str(out)])
        assert code == 1
        assert f"{name} must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("case=s-iso\ngrid_m=12\nradius=nan\n")
        out = tmp_path / "out"
        assert run_cli(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert "radius must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_value_rejected(self, tmp_path):
        code = run_cli(["solve", "--case", "s-iso", "--grid-m", "10",
                        "--nc-fraction", "1.5", "--out", str(tmp_path)])
        assert code == 1


class TestTable:
    def test_single_cell(self, tmp_path):
        code = run_cli([
            "table", "--which", "iso", "--cases", "s-iso", "--models", "sph-1",
            "--seed", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "table_iso.csv").read_text().strip().splitlines()
        assert lines[0] == "case,model,K,n_c,q_max,radius,rho,k,error"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "s-iso" and fields[1] == "sph-1"
        assert float(fields[6]) < 1.0
        assert fields[8] == ""

    def test_failing_cell_error_is_one_field(self, tmp_path):
        code = run_cli([
            "table", "--which", "aniso", "--cases", "s-aniso,no-such-case",
            "--models", "emp-10", "--out", str(tmp_path),
        ])
        assert code == 0
        with open(tmp_path / "table_aniso.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert [len(row) for row in rows] == [9, 9, 9]
        assert rows[1][8] == ""
        assert rows[2][0] == "no-such-case" and "'c-aniso')" in rows[2][8]

    def test_malformed_models_entry_runs_no_cell(self, tmp_path, capsys):
        code = run_cli([
            "table", "--which", "iso", "--cases", "s-iso", "--models", "sph-1,sph-x",
            "--out", str(tmp_path),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "--models" in captured.err and "sph-x" in captured.err
        assert "rho=" not in captured.out
        assert not (tmp_path / "table_iso.csv").exists()


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig().validate()  # neither case nor matrix
    with pytest.raises(ValueError):
        RunConfig(case="s-iso", matrix="x.mtx").validate()
    with pytest.raises(ValueError):
        RunConfig(case="s-iso", K=0).validate()
    with pytest.raises(ValueError):
        RunConfig(case="s-iso", model="gauss").validate()
    for name in ("radius", "tolerance", "vario_max_distance", "bin_width"):
        for value in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                RunConfig(case="s-iso", **{name: value}).validate()
    RunConfig(case="s-iso").validate()

"""`tools/pin_outputs.py --compare`: which differences between two pins pass."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pin_outputs", Path(__file__).resolve().parents[1] / "tools" / "pin_outputs.py")
pin_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pin_outputs)

REPORT = "case,model,K,n_c,q_max,radius,rho,k\ns-iso,sph-1,1,506,4,4.0,{rho},{k}\n"
STDOUT = "rho={rho:.4f}, pcg k={k}\nwrote <OUT>/out/s-iso_sph-1_report.csv\n"


def write_pin(root: Path, rho=0.22784303951475166, k=10, extra=None):
    record = root / "solve-s-iso-sph-1"
    (record / "out").mkdir(parents=True)
    (record / "out" / "s-iso_sph-1_report.csv").write_text(REPORT.format(rho=repr(rho), k=k))
    (record / "stdout.txt").write_text(STDOUT.format(rho=rho, k=k))
    (record / "exit.txt").write_text("0\n")
    if extra is not None:
        (record / extra).write_text("")
    return root


@pytest.mark.parametrize("change, rtol, ok, reported", [
    (dict(), 0.0, True, []),
    (dict(rho=0.22784303951475160), 0.0, False, ["column rho"]),
    (dict(rho=0.22784303951475160), 1e-12, True, ["column rho"]),
    (dict(rho=0.2279), 1e-12, False, ["column rho", "stdout.txt: line 1"]),
    (dict(k=11), 1e-12, False, ["column k", "stdout.txt: line 1"]),
    (dict(extra="stderr.txt"), 1e-12, False, ["stderr.txt: only in"]),
])
def test_compare_reports_and_judges(tmp_path, capsys, change, rtol, ok, reported):
    parent = write_pin(tmp_path / "parent")
    assert pin_outputs.compare(parent, write_pin(tmp_path / "change", **change), rtol) is ok
    out = capsys.readouterr().out
    for where in reported:
        assert where in out


@pytest.mark.parametrize("name, parent, change", [
    ("out/report.csv", "a,b\n1,x\n", "a,b\n1,y\n"),
    ("out/report.csv", "a,b\n1,2\n", "a,c\n1,2\n"),
    ("out/report.csv", "a,b\n1,2\n", "a,b\n1,2\n3,4\n"),
    ("stderr.txt", "error: bad input\n", "error: bad value\n"),
    ("stderr.txt", "warning at 3\n", "warning at 3\nwarning at 4\n"),
])
def test_non_numeric_difference_fails_at_any_rtol(tmp_path, capsys, name, parent, change):
    for root, text in ((tmp_path / "a", parent), (tmp_path / "b", change)):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    assert not pin_outputs.compare(tmp_path / "a", tmp_path / "b", rtol=1.0)
    assert "not a numeric difference" in capsys.readouterr().out


def test_main_exit_codes(tmp_path):
    parent = write_pin(tmp_path / "parent")
    change = write_pin(tmp_path / "change", rho=0.22784303951475160)
    assert pin_outputs.main(["--compare", str(parent), str(change), "--rtol", "1e-12"]) == 0
    assert pin_outputs.main(["--compare", str(parent), str(change)]) == 1


def test_unquoted_commas_in_an_equal_row_are_left_alone(tmp_path):
    header = "case,model,K,n_c,q_max,radius,rho,k,error\n"
    failed = "x,emp-10,10,0,4,4.0,nan,-1,unknown case 'x'; expected one of ('s-iso', 'c-iso')\n"
    for root, rho in ((tmp_path / "a", "0.41802299565311285"), (tmp_path / "b", "0.41802299565311246")):
        root.mkdir()
        (root / "table.csv").write_text(header + f"s-aniso,emp-10,10,1012,2,4.0,{rho},11,\n" + failed)
    assert pin_outputs.compare(tmp_path / "a", tmp_path / "b", rtol=1e-12)


def test_pin_records_the_blas_build(tmp_path, monkeypatch):
    monkeypatch.setattr(pin_outputs, "calls", lambda: [])
    pin_outputs.pin(tmp_path)
    lines = (tmp_path / "blas.txt").read_text().splitlines()
    assert lines
    for line in lines:
        lib, _, build = line.partition(": ")
        assert "openblas" in lib.lower() and build


def test_kernel_mismatch_is_a_named_text_difference(tmp_path, capsys):
    build = "libscipy_openblas.so: OpenBLAS 0.3.30 DYNAMIC_ARCH NO_AFFINITY {} MAX_THREADS=64\n"
    for root, core in ((tmp_path / "parent", "SkylakeX"), (tmp_path / "change", "Haswell")):
        (write_pin(root) / "blas.txt").write_text(build.format(core))
    assert not pin_outputs.compare(tmp_path / "parent", tmp_path / "change", rtol=1.0)
    out = capsys.readouterr().out
    assert "blas.txt: not a numeric difference" in out and "Haswell" in out

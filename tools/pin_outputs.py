"""Pin the observable outputs of the krigamg CLI and compare two pins.

Usage:
    PYTHONPATH=src python tools/pin_outputs.py OUTDIR
    python tools/pin_outputs.py --compare PARENT CHANGE [--rtol RTOL]

Runs a fixed list of CLI calls, each in its own process as
`python -m krigamg.cli` (which calls `krigamg.cli.main`), with the
krigamg found on PYTHONPATH.  For every call
OUTDIR/<name>/ receives the files the call wrote (out/), its argv,
stdout, stderr and exit code.  OUTDIR/blas.txt names each OpenBLAS that
numpy and scipy load, with its build string: that names the kernel set
the calls run on (e.g. SkylakeX), so --compare shows a kernel mismatch
as a named text difference.  Every occurrence of OUTDIR in argv, stdout
and stderr reads `<OUT>`, and a Python warning is written as
`Category: message`, without the file, line and source text of the call
that raised it, so two pins taken in different directories, or of code
whose lines moved, compare directly.  To check that a change alters no
output, pin the parent and the change and compare:

    PYTHONPATH=<parent>/src python tools/pin_outputs.py /tmp/pin-parent
    PYTHONPATH=src python tools/pin_outputs.py /tmp/pin-change
    python tools/pin_outputs.py --compare /tmp/pin-parent /tmp/pin-change

The stencils, the splitting and the variogram fit make no BLAS call.  To
check that an output does not depend on the kernel set, pin the same
code again under another one; OPENBLAS_CORETYPE reaches every call:

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tools/pin_outputs.py /tmp/pin-haswell
    python tools/pin_outputs.py --compare /tmp/pin-change /tmp/pin-haswell

blas.txt then names the kernel set each pin ran on.  A full pin takes
about a minute on a 2-core machine.

--compare reports every file present on one side only and every file
whose bytes differ.  In a CSV file it reports, per column, the largest
relative difference |a - b| / max(|a|, |b|) over the cells that differ;
in any other file, per line.  It exits 1 when a file is missing on one
side, when two files differ in anything but the numbers they hold (the
text between numbers, a header, a row or line count), or when a
relative difference exceeds --rtol (default 0: numbers must be equal).
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import subprocess
import sys
from pathlib import Path

CASES = ("s-iso", "s-aniso", "c-iso", "c-aniso")
OUT = "<OUT>"
# `python -m krigamg.cli`, with warnings printed without their source location
RUN_CLI = ("import runpy, warnings\n"
           "warnings.formatwarning = lambda message, category, *_, **__: "
           "f'{category.__name__}: {message}\\n'\n"
           "runpy.run_module('krigamg.cli', run_name='__main__', alter_sys=True)\n")


def calls() -> list[tuple[str, list[str]]]:
    """(name, argv) of every pinned call; argv paths are relative to OUT."""
    out = []
    for case in CASES:
        out.append((f"generate-{case}", ["generate", "--case", case]))
    # assembly beyond the default sizes
    out.append(("generate-s-aniso-m90", ["generate", "--case", "s-aniso", "--grid-m", "90"]))
    out.append(("generate-c-aniso-rings60", ["generate", "--case", "c-aniso", "--rings", "60"]))
    for case in CASES:
        for model, k in (("sph", 1), ("exp", 100), ("emp", 10)):
            out.append((f"solve-{case}-{model}-{k}",
                        ["solve", "--case", case, "--model", model, "--K", str(k)]))
    # rank-1 local covariances: regularization, condition-number warnings and
    # stacks in which most blocks need eps*I, on the grid and on the FEM mesh;
    # on the anisotropic meshes inside coarsening rounds of many additions
    for case in CASES:
        out.append((f"solve-{case}-emp-1", ["solve", "--case", case, "--model", "emp", "--K", "1"]))
    # test vectors of two sweeps each, and raw noise (no sweep)
    for nu in (2, 0):
        out.append((f"solve-c-aniso-emp-10-nu{nu}",
                    ["solve", "--case", "c-aniso", "--model", "emp", "--K", "10", "--nu", str(nu)]))
    for case in CASES:
        out.append((f"variogram-{case}", ["variogram", "--case", case, "--model", "sph"]))
    # distances beyond twice the radius: a ball matrix grown for a long variogram cloud,
    # then a full coarsening and solve on it
    out.append(("solve-long-cloud",
                ["solve", "--case", "c-iso", "--model", "sph", "--vario-max-distance", "12"]))
    out.append(("variogram-long",
                ["variogram", "--case", "s-aniso", "--model", "exp", "--K", "100",
                 "--vario-max-distance", "12"]))
    # a cloud cut inside the ball matrix's reach, drawn at an explicit pair budget
    out.append(("variogram-short-cloud-budget",
                ["variogram", "--case", "c-iso", "--model", "exp", "--K", "10",
                 "--vario-max-distance", "6", "--pair-budget", "5000"]))
    # radii other than the default 4: the ball matrix, the balls, the lens and the
    # variogram cloud scale with it; the last cloud reaches past twice the radius
    out.append(("solve-s-iso-sph-1-radius3",
                ["solve", "--case", "s-iso", "--model", "sph", "--radius", "3"]))
    out.append(("coarsen-c-aniso-emp-10-radius6",
                ["coarsen", "--case", "c-aniso", "--model", "emp", "--K", "10",
                 "--radius", "6"]))
    out.append(("solve-c-iso-exp-10-radius3-long-cloud",
                ["solve", "--case", "c-iso", "--model", "exp", "--K", "10", "--radius", "3",
                 "--vario-max-distance", "9"]))
    # a profile with two local minima, and a range the cloud does not identify
    out.append(("variogram-c-iso-sph-1-seed3",
                ["variogram", "--case", "c-iso", "--model", "sph", "--K", "1", "--seed", "3"]))
    out.append(("variogram-s-aniso-exp-1-seed2",
                ["variogram", "--case", "s-aniso", "--model", "exp", "--K", "1", "--seed", "2"]))
    # interpolatory sets of 1 to 8 members refreshed side by side
    out.append(("coarsen-qmax8", ["coarsen", "--case", "s-iso", "--model", "sph", "--qmax", "8"]))
    out.append(("coarsen-tolerance",
                ["coarsen", "--case", "c-iso", "--model", "emp", "--K", "10",
                 "--tolerance", "0.05"]))
    # a variance target on the parametric path, about 30 % of the fitted sill: rounds
    # there take many picks with overlapping balls, and one stops at the target
    out.append(("coarsen-tolerance-exp",
                ["coarsen", "--case", "s-aniso", "--model", "exp", "--K", "10",
                 "--tolerance", "0.7"]))
    gen = f"{OUT}/generate-c-aniso/out"
    out.append(("solve-external",
                ["solve", "--matrix", f"{gen}/c-aniso.mtx", "--coords", f"{gen}/c-aniso.coords",
                 "--model", "exp", "--K", "10"]))
    # the graph-metric diagnostics of an external matrix with coordinates
    out.append(("coarsen-external",
                ["coarsen", "--matrix", f"{gen}/c-aniso.mtx", "--coords", f"{gen}/c-aniso.coords",
                 "--model", "emp", "--K", "10"]))
    # fewer variables (36) than the correlation's sources: every variable is one
    out.append(("coarsen-s-iso-m6", ["coarsen", "--case", "s-iso", "--grid-m", "6"]))
    # an unknown case: refused before any cell runs
    out.append(("table-failing-cell",
                ["table", "--which", "aniso", "--cases", "s-aniso,no-such-case",
                 "--models", "emp-10"]))
    out.append(("table-malformed-models",
                ["table", "--which", "iso", "--models", "sph-1,sph-x"]))
    # three cells in one process on one matrix: the later two read the ball matrix
    # the first one built
    out.append(("table-shared-ball",
                ["table", "--which", "iso", "--cases", "s-iso", "--models", "emp-10,sph-1,exp-10"]))
    return out


def blas_build() -> str:
    """One line per OpenBLAS loaded with numpy and scipy: library and build
    string, as perfbench/harness.py reads them, without the thread count."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import harness  # imports numpy, scipy and krigamg, as the CLI does

    return "".join(f"{blas['lib']}: {blas.get('config', '(no build string)')}\n"
                   for blas in harness.blas_libraries())


def pin(outdir: Path) -> None:
    outdir = outdir.resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "blas.txt").write_text(blas_build())
    for name, argv in calls():
        record = outdir / name
        files = record / "out"
        files.mkdir(parents=True, exist_ok=True)
        args = [a.replace(OUT, str(outdir)) for a in argv] + ["--out", str(files)]
        proc = subprocess.run([sys.executable, "-c", RUN_CLI, *args],
                              capture_output=True, text=True)
        (record / "argv.txt").write_text(" ".join(argv) + "\n")
        for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            (record / f"{stream}.txt").write_text(text.replace(str(outdir), OUT))
        (record / "exit.txt").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}", flush=True)


# a decimal or scientific literal, or inf/nan; the capture group keeps the
# numbers in re.split's output, at the odd positions
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)\b)")


def relative_difference(a: str, b: str) -> float | None:
    """|a - b| / max(|a|, |b|) of two numeric strings; None if either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _csv_differences(text_a: str, text_b: str) -> tuple[dict[str, list[float]], str | None]:
    """Relative differences per column of two CSV files, or the first
    difference that is not numeric.  Only lines that differ are parsed: an
    error message in the last column may hold unquoted commas."""
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    if not lines_a or not lines_b or lines_a[0] != lines_b[0]:
        return {}, "headers differ"
    if len(lines_a) != len(lines_b):
        return {}, f"{len(lines_a) - 1} rows against {len(lines_b) - 1}"
    header = next(csv.reader([lines_a[0]]))
    diffs: dict[str, list[float]] = {}
    for lineno, (line_a, line_b) in enumerate(zip(lines_a, lines_b), start=1):
        if line_a == line_b:
            continue
        row_a, row_b = next(csv.reader([line_a])), next(csv.reader([line_b]))
        if len(row_a) != len(row_b):
            return diffs, f"line {lineno}: field counts differ"
        for j, (a, b) in enumerate(zip(row_a, row_b)):
            if a != b:
                column = header[min(j, len(header) - 1)]
                rel = relative_difference(a, b)
                if rel is None:
                    return diffs, f"line {lineno}, column {column}: {a!r} against {b!r}"
                diffs.setdefault(f"column {column}", []).append(rel)
    return diffs, None


def _text_differences(text_a: str, text_b: str) -> tuple[dict[str, list[float]], str | None]:
    """Relative differences per line between numbers in the same places of
    two texts, or the first difference that is not numeric."""
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    if len(lines_a) != len(lines_b):
        return {}, f"{len(lines_a)} lines against {len(lines_b)}"
    diffs: dict[str, list[float]] = {}
    for lineno, (line_a, line_b) in enumerate(zip(lines_a, lines_b), start=1):
        if line_a == line_b:
            continue
        parts_a, parts_b = NUMBER.split(line_a), NUMBER.split(line_b)
        if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
            return diffs, f"line {lineno}: {line_a!r} against {line_b!r}"
        for a, b in zip(parts_a[1::2], parts_b[1::2]):
            if a != b:
                diffs.setdefault(f"line {lineno}", []).append(relative_difference(a, b))
    return diffs, None


def compare(dir_a: Path, dir_b: Path, rtol: float) -> bool:
    """Print every difference between two pins; True if all are numbers within rtol."""
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    ok = True
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only in {dir_a if rel in files_a else dir_b}")
        ok = False
    differing = 0
    for rel in sorted(files_a & files_b):
        bytes_a, bytes_b = (dir_a / rel).read_bytes(), (dir_b / rel).read_bytes()
        if bytes_a == bytes_b:
            continue
        differing += 1
        try:
            text_a, text_b = bytes_a.decode(), bytes_b.decode()
        except UnicodeDecodeError:
            print(f"{rel}: binary files differ")
            ok = False
            continue
        differences = _csv_differences if rel.suffix == ".csv" else _text_differences
        diffs, failure = differences(text_a, text_b)
        for where, rels in diffs.items():
            worst = max(rels)
            print(f"{rel}: {where}: largest relative difference {worst:.3g} "
                  f"({len(rels)} differing)")
            ok &= worst <= rtol
        if failure is not None:
            print(f"{rel}: not a numeric difference: {failure}")
            ok = False
    print(f"{differing} of {len(files_a & files_b)} common files differ; "
          f"{'every difference is' if ok else 'not every difference is'} "
          f"a number within rtol {rtol:g}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Pin the outputs of the krigamg CLI in OUTDIR, or compare two pins.")
    parser.add_argument("outdir", nargs="?", type=Path, help="directory to write a pin to")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
                        help="compare two pin directories instead of pinning")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative difference --compare accepts (default 0)")
    args = parser.parse_args(argv)
    if (args.outdir is None) == (args.compare is None):
        parser.error("give either OUTDIR or --compare PARENT CHANGE")
    if args.compare is None:
        pin(args.outdir)
        return 0
    return 0 if compare(*args.compare, args.rtol) else 1


if __name__ == "__main__":
    sys.exit(main())

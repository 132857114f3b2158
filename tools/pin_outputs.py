"""Pin the observable outputs of the krigamg CLI for a byte-identity check.

Usage:
    PYTHONPATH=src python tools/pin_outputs.py OUTDIR

Runs a fixed list of CLI calls, each in its own process as
`python -m krigamg.cli` (which calls `krigamg.cli.main`), with the
krigamg found on PYTHONPATH.  For every call
OUTDIR/<name>/ receives the files the call wrote (out/), its argv,
stdout, stderr and exit code.  Every occurrence of OUTDIR in argv, stdout
and stderr reads `<OUT>`, so two pins taken in different directories
compare directly.  To check that a change alters no output, pin the
parent and the change and compare:

    PYTHONPATH=<parent>/src python tools/pin_outputs.py /tmp/pin-parent
    PYTHONPATH=src python tools/pin_outputs.py /tmp/pin-change
    diff -r /tmp/pin-parent /tmp/pin-change

A full pin takes a few minutes on a 2-core machine.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

CASES = ("s-iso", "s-aniso", "c-iso", "c-aniso")
OUT = "<OUT>"


def calls() -> list[tuple[str, list[str]]]:
    """(name, argv) of every pinned call; argv paths are relative to OUT."""
    out = []
    for case in CASES:
        out.append((f"generate-{case}", ["generate", "--case", case]))
    for case in CASES:
        for model, k in (("sph", 1), ("exp", 100), ("emp", 10)):
            out.append((f"solve-{case}-{model}-{k}",
                        ["solve", "--case", case, "--model", model, "--K", str(k)]))
    for case in CASES:
        out.append((f"variogram-{case}", ["variogram", "--case", case, "--model", "sph"]))
    out.append(("coarsen-batch", ["coarsen", "--case", "s-iso", "--model", "sph", "--batch"]))
    out.append(("coarsen-tolerance",
                ["coarsen", "--case", "c-iso", "--model", "emp", "--K", "10",
                 "--tolerance", "0.05"]))
    gen = f"{OUT}/generate-c-aniso/out"
    out.append(("solve-external",
                ["solve", "--matrix", f"{gen}/c-aniso.mtx", "--coords", f"{gen}/c-aniso.coords",
                 "--model", "exp", "--K", "10"]))
    out.append(("table-failing-cell",
                ["table", "--which", "aniso", "--cases", "s-aniso,no-such-case",
                 "--models", "emp-10"]))
    out.append(("table-malformed-models",
                ["table", "--which", "iso", "--models", "sph-1,sph-x"]))
    return out


def pin(outdir: Path) -> None:
    outdir = outdir.resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    for name, argv in calls():
        record = outdir / name
        files = record / "out"
        files.mkdir(parents=True, exist_ok=True)
        args = [a.replace(OUT, str(outdir)) for a in argv] + ["--out", str(files)]
        proc = subprocess.run([sys.executable, "-m", "krigamg.cli", *args],
                              capture_output=True, text=True)
        (record / "argv.txt").write_text(" ".join(argv) + "\n")
        for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            (record / f"{stream}.txt").write_text(text.replace(str(outdir), OUT))
        (record / "exit.txt").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}", flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    pin(Path(sys.argv[1]))

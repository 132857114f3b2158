"""The splitting does not depend on the OpenBLAS kernel set.

OPENBLAS_CORETYPE picks the kernels of every OpenBLAS a process loads.
The coarsenings below run in one subprocess per kernel set, at the
default sizes, and must give the coarse order and P of the default
kernels, byte for byte.  The problems are built once and handed to each
subprocess: the FEM disc's element matrices are stacked BLAS products,
so its matrix itself moves by rounding under some kernels.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import krigamg
from krigamg import pipeline

ROOT = Path(__file__).resolve().parents[1]
KERNELS = ("Haswell", "Sandybridge")
CASES = [(case, model, K) for case in ("s-iso", "s-aniso", "c-iso", "c-aniso")
         for model, K in (("sph", 1), ("emp", 10))] + [("s-iso", "emp", 1)]

RUN = """
import hashlib, importlib.util, json, pickle, sys, warnings
import numpy as np
from krigamg import pipeline

spec = importlib.util.spec_from_file_location("pin_outputs", sys.argv[1])
pin_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pin_outputs)


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()[:16]


out = {"blas": pin_outputs.blas_build()}
warnings.simplefilter("ignore")
with open(sys.argv[2], "rb") as handle:
    problems = pickle.load(handle)
for case, model, K in json.loads(sys.argv[3]):
    cfg = pipeline.RunConfig(case=case, model=model, K=K)
    state, interp = pipeline.coarsen_run(cfg, pipeline.setup(cfg, problems[case]))
    p = interp.to_csr()
    out[f"{case} {model}-{K}"] = {"order": digest(np.asarray(state.coarse_order, dtype=np.int64)),
                                  "P": digest(p.indptr, p.indices, p.data)}
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The coarsenings under the default kernels and under each of KERNELS,
    the three processes started together."""
    problems = tmp_path_factory.mktemp("kernels") / "problems.pickle"
    with open(problems, "wb") as handle:
        pickle.dump({case: pipeline.build_problem(pipeline.RunConfig(case=case))
                     for case in {case for case, _, _ in CASES}}, handle)
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(krigamg.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    env["OPENBLAS_NUM_THREADS"] = "1"
    argv = [sys.executable, "-c", RUN, str(ROOT / "tools" / "pin_outputs.py"), str(problems),
            json.dumps(CASES)]
    procs = {kernel: subprocess.Popen(argv, env=env if kernel is None
                                      else {**env, "OPENBLAS_CORETYPE": kernel},
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for kernel in (None, *KERNELS)}
    results = {}
    for kernel, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        results[kernel] = json.loads(stdout)
    return results


@pytest.mark.parametrize("kernel", KERNELS)
def test_splitting_independent_of_blas_kernel(runs, kernel):
    run, default = runs[kernel], runs[None]
    lines = run["blas"].splitlines()
    if not lines or not all(kernel in line.split(":", 1)[-1].split() for line in lines):
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} does not run: {lines}")
    for case, model, K in CASES:
        key = f"{case} {model}-{K}"
        assert run[key]["order"] == default[key]["order"], f"{key}: coarse order under {kernel}"
        assert run[key]["P"] == default[key]["P"], f"{key}: P under {kernel}"

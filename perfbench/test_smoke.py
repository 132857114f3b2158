"""Smoke test of the benchmark itself, on tiny grids (about half a minute).

    python3 -m pytest -q perfbench/test_smoke.py

Runs the command exactly as BENCHMARK.json states it, checks the result
line against the declared metrics, the trace against the program's own
state, and the behaviour of the command outside a checkout.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ("smoke-sph", "smoke-emp")


def bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@functools.cache
def result(workload: str, trace: int) -> dict:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", SMOKE)
def test_result_line_carries_every_declared_metric(workload, trace):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


@pytest.mark.parametrize("workload", SMOKE)
def test_layer_self_times_cover_the_run(workload):
    metrics = {k: v["value"] for k, v in result(workload, 1)["metrics"].items()}
    assert abs(metrics["pipeline.cover_ratio"] - 1.0) <= 0.05
    if workload == "smoke-emp":  # the empirical source builds no variogram
        assert metrics["covariance.cloud_pairs"] == 0


@pytest.mark.parametrize("workload", SMOKE)
def test_trace_agrees_with_program_state(workload):
    result(workload, 1)
    record = json.loads((HERE / "out" / f"{workload}-seed1-trace1.json").read_text())
    assert record["cross_checks"]
    for checked in record["cross_checks"]:
        for name, (from_trace, from_program) in checked.items():
            assert from_trace == from_program, name


def test_seed_changes_the_inputs():
    sys.path.insert(0, str(HERE))
    import harness

    def first(seed):
        inputs = harness.Inputs(harness.WORKLOADS["smoke-sph"], seed)
        return inputs.next_config().seed, inputs.next_rhs(4)

    (s1, b1), (s1_again, b1_again), (s2, b2) = first(1), first(1), first(2)
    assert s1 == s1_again and (b1 == b1_again).all()
    assert s1 != s2 and not (b1 == b2).any()


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("smoke-sph", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

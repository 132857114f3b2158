"""The benchmark in perfbench/ times the program by wrapping its functions by
name, from outside.  A renamed or removed target would only log "spans not
placed" there; here it fails."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import harness  # noqa: E402
import spans  # noqa: E402
import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.sparse as sp  # noqa: E402

from krigamg import covariance, pipeline, smoother, twogrid  # noqa: E402


def test_every_span_target_exists():
    original = pipeline.run_solve
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert tracer.missing == []
    finally:
        tracer.remove()
    assert pipeline.run_solve is original


def test_untraced_probe_targets_exist():
    assert callable(pipeline.estimate_asymptotic_rate)
    assert callable(covariance.build_variogram_cloud)
    probe = harness.make_probe()
    try:
        assert probe.missing == []
    finally:
        probe.remove()


def test_cycle_sweeps_and_preconditioner_path(monkeypatch):
    """The benchmark reads the coarse correction as vcycle time minus the
    time of the sweeps called inside it, and reaches the preconditioner's
    cycles through the wrapped `twogrid.vcycle_apply`."""
    a = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(6, 6), format="csr")
    sweeper = smoother.ColoredSweeper(a, smoother.greedy_coloring(a))
    op = twogrid.build_twogrid(a, sp.csr_matrix(np.kron(np.eye(3), [[1.0], [1.0]])), sweeper)
    calls = {"sweep": 0, "vcycle": 0}
    sweep, vcycle = smoother.ColoredSweeper.sweep, twogrid.vcycle_apply

    def counted_sweep(*args, **kwargs):
        calls["sweep"] += 1
        return sweep(*args, **kwargs)

    def counted_vcycle(*args, **kwargs):
        calls["vcycle"] += 1
        return vcycle(*args, **kwargs)

    monkeypatch.setattr(smoother.ColoredSweeper, "sweep", counted_sweep)
    monkeypatch.setattr(twogrid, "vcycle_apply", counted_vcycle)
    b = np.arange(6.0)
    twogrid.vcycle_apply(op, b, np.zeros(6))
    assert calls == {"sweep": 2, "vcycle": 1}
    twogrid.precondition_apply(op, b)
    assert calls == {"sweep": 4, "vcycle": 2}


@pytest.mark.parametrize("name", ["smoke-sph", "smoke-emp"])
def test_harness_calls_into_the_program(name):
    """What the benchmark calls directly, on its smoke workloads: `run_solve`
    with the fields `check_cell` and the span hooks read, and `pcg_solve`
    with a reduction on the cell's operator."""
    inputs = harness.Inputs(harness.WORKLOADS[name], seed=1)
    probe = harness.make_probe()
    try:
        cell, outputs = harness.run_cell(inputs.next_config(), probe)
        assert cell.failures == []
        stream = harness.Stream()
        harness.run_stream(outputs[3], inputs, 3, stream)
        assert stream.failures == [] and len(stream.times) == 3
        traced = harness.traced_cell(spans.Tracer(), inputs.next_config(), probe)
        assert traced[0].failures == [] and traced[2]
    finally:
        probe.remove()

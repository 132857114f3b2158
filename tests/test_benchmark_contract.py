"""The benchmark in perfbench/ times the program by wrapping its functions by
name, from outside.  A renamed or removed target would only log "spans not
placed" there; here it fails."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import harness  # noqa: E402
import spans  # noqa: E402
from krigamg import covariance, pipeline  # noqa: E402


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

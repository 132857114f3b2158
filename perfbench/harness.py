"""Workloads, output checks and metrics of the krigamg benchmark.

run.py imports this module only after it has fixed the BLAS thread count
in the environment, because OpenBLAS reads it once, when numpy and scipy
load.  The program under test is the ``src/`` tree of the checkout that
holds this directory; nothing in it is modified.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import krigamg  # noqa: E402
from krigamg import covariance, pipeline, twogrid  # noqa: E402
from krigamg.errors import NumericalError  # noqa: E402

import spans  # noqa: E402
from run import THREAD_VARS  # noqa: E402

REDUCTION = 1e-8          # PCG residual reduction, as in run_solve
STREAM_SOLVES = 200       # at least; p95 of 200 solves leaves 10 samples beyond it
STREAM_BURST = 20         # solves after each cell
TRACE_STREAM_SOLVES = 20
ROW_SUM_TOL = 1e-12
RHO_BAND = {"s-iso": 0.35, "c-aniso": 0.75}  # acceptance bands of the cases
LAYERS = ("problems", "smoother", "metric", "covariance", "kriging", "coarsen", "twogrid")


@dataclass(frozen=True)
class Workload:
    case: str
    model: str
    K: int
    why: str
    grid_m: int = 45
    rings: int = 29

    def config(self, seed: int) -> pipeline.RunConfig:
        return pipeline.RunConfig(case=self.case, model=self.model, K=self.K,
                                  grid_m=self.grid_m, rings=self.rings, seed=seed)


WORKLOADS = {
    "siso-sph1": Workload(
        "s-iso", "sph", 1, grid_m=45,
        why="paper headline cell, n=2025: parametric path, >90% of the run in "
            "metric/covariance/kriging/coarsen, twogrid under 2%"),
    "caniso-emp10-solve": Workload(
        "c-aniso", "emp", 10, rings=29,
        why="FEM disc, n=2437, empirical covariance: set-up builds no variogram and asks "
            "no pair distances; twogrid does the work in the stream of solves"),
    "siso-sph1-m90": Workload(
        "s-iso", "sph", 1, grid_m=90,
        why="headline cell at n=8100: per-step selection, the distance cache and "
            "the dense n_c^2 coarse factor grow here"),
    # tiny grids for the benchmark's own smoke test, one per covariance path
    "smoke-sph": Workload("s-iso", "sph", 1, grid_m=10, why="smoke test, parametric path"),
    "smoke-emp": Workload("c-aniso", "emp", 10, rings=6, why="smoke test, empirical path"),
}

END_TO_END = {
    "setup_s": "s", "run_s": "s", "solve_ms_p50": "ms", "solve_ms_p95": "ms",
    "rho": "1", "pcg_iters": "count", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "problems.build_s": "s", "problems.n": "count", "problems.nnz": "count",
    "smoother.coloring_s": "s", "smoother.testvec_s": "s",
    "smoother.sweep_calls": "count", "smoother.sweep_s": "s",
    "metric.search_calls": "count", "metric.search_s": "s",
    "metric.nearest_coarse_calls": "count", "metric.nearest_coarse_s": "s",
    "metric.pairwise_calls": "count", "metric.pairwise_s": "s",
    "covariance.source_s": "s", "covariance.cloud_pairs": "count",
    "covariance.local_matrix_calls": "count", "covariance.local_matrix_s": "s",
    "kriging.assemble_calls": "count", "kriging.assemble_s": "s",
    "kriging.solve_calls": "count", "kriging.solve_s": "s",
    "kriging.regularized": "count", "kriging.qmax_reductions": "count",
    "coarsen.total_s": "s", "coarsen.select_s": "s", "coarsen.update_s": "s",
    "coarsen.interp_s": "s", "coarsen.stencils_per_add": "count",
    "coarsen.stencil_useful_ratio": "ratio", "coarsen.embed_diag_s": "s",
    "coarsen.n_c": "count", "coarsen.nnz_p": "count",
    "twogrid.galerkin_s": "s", "twogrid.coarse_factor_s": "s",
    "twogrid.coarse_factor_bytes": "B", "twogrid.nnz_ac": "count",
    "twogrid.rate_s": "s", "twogrid.rate_cycles": "count",
    "twogrid.vcycle_calls": "count", "twogrid.vcycle_ms": "ms",
    "twogrid.coarse_correction_ms": "ms", "twogrid.pcg_iters_total": "count",
    "twogrid.coarse_factor_s_default_blas": "s",
    "pipeline.run_s": "s", "pipeline.cover_ratio": "ratio", "pipeline.trace_overhead": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


class Inputs:
    """Everything the program receives, generated from the workload seed."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        cells, stream = np.random.SeedSequence(seed).spawn(2)
        self._cells = np.random.default_rng(cells)
        self._stream = np.random.default_rng(stream)

    def next_config(self) -> pipeline.RunConfig:
        return self.workload.config(int(self._cells.integers(1, 2**31)))

    def next_rhs(self, n: int) -> np.ndarray:
        return self._stream.standard_normal(n)


def make_probe() -> spans.Tracer:
    """The two spans kept in untraced runs too, one call each per cell:
    the rate estimate, whose entry ends set-up, and the variogram cloud,
    whose size is recorded.  ``remove()`` takes them out."""
    probe = spans.Tracer()
    probe.patch(pipeline, "estimate_asymptotic_rate", "rate")
    probe.patch(covariance, "build_variogram_cloud", "cloud",
                hook=lambda r, a: probe.captured["cloud_pairs"].append(int(r.distances.size)))
    return probe


@dataclass
class Cell:
    """One timed ``run_solve`` call and what its outputs showed."""

    seed: int
    failures: list[str]
    setup_s: float = 0.0
    run_s: float = 0.0
    rho: float = 0.0
    pcg_iters: int = 0
    sizes: dict = field(default_factory=dict)
    digest: str = ""


def pcg_failure(converged: bool, residuals, iterations: int) -> list[str]:
    if converged and residuals[-1] <= REDUCTION * residuals[0]:
        return []
    return [f"PCG did not reach {REDUCTION:g} in {iterations} iterations"]


def check_cell(config, report, state, interp, op, problem) -> list[str]:
    """Output checks of one run; each failed check is one message."""
    bad = pcg_failure(report.converged, report.residuals, report.pcg_iterations)
    target = config.resolved_target(problem.n)["n_coarse"]
    if interp.n_c != target:
        bad.append(f"n_c={interp.n_c}, target {target}")
    p = op.p.tocsr()
    order = np.asarray(state.coarse_order)
    rows = p[order]
    if not (np.array_equal(rows.indptr, np.arange(order.size + 1))
            and np.array_equal(rows.indices, np.arange(order.size))
            and np.all(rows.data == 1.0)):
        bad.append("coarse rows of P are not unit rows")
    fine = p[np.flatnonzero(~state.is_coarse)]
    nonempty = np.diff(fine.indptr) > 0
    worst = float(np.max(np.abs(np.asarray(fine.sum(axis=1)).ravel()[nonempty] - 1.0),
                         initial=0.0))
    if worst > ROW_SUM_TOL:
        bad.append(f"fine row sum off by {worst:.3g}")
    if report.diverged:
        bad.append(f"rate estimate diverged, rho={report.rho:.4f}")
    return bad


def band_check(cells, case: str, log) -> list[str]:
    """The case's acceptance band on the run's rho, the median over its cells.

    Single seeds can land above it (c-aniso emp-10 does on about one seed
    in ten), which is logged with the count, not hidden."""
    band = RHO_BAND[case]
    rhos = [c.rho for c in cells if not c.failures]
    above = sum(r > band for r in rhos)
    log(f"rho above the {case} band {band} in {above} of {len(rhos)} cells")
    rho = statistics.median(rhos)
    return [] if rho <= band else [f"median rho={rho:.4f} outside band <= {band}"]


def digest(state, p) -> str:
    """Hash of the coarse order and of P, to compare outputs across commits."""
    h = hashlib.sha256(np.asarray(state.coarse_order, dtype=np.int64).tobytes())
    for part in (p.indptr.astype(np.int64), p.indices.astype(np.int64), p.data):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()[:16]


def run_cell(config, probe: spans.Tracer):
    """Time one ``run_solve`` call; return the Cell and the program's outputs."""
    probe.captured.clear()
    t0 = time.perf_counter()
    try:
        outputs = pipeline.run_solve(config)
    except (NumericalError, ValueError) as exc:
        return Cell(config.seed, [f"{type(exc).__name__}: {exc}"]), None
    t1 = time.perf_counter()
    report, state, interp, op, problem = outputs
    cell = Cell(
        seed=config.seed,
        failures=check_cell(config, report, state, interp, op, problem),
        setup_s=probe.last_start("rate") - t0,
        run_s=t1 - t0,
        rho=report.rho,
        pcg_iters=report.pcg_iterations,
        sizes={"n": problem.n, "n_c": interp.n_c, "nnz_a": int(problem.matrix.nnz),
               "nnz_p": int(op.p.nnz), "nnz_ac": int(op.a_c.nnz),
               "cloud_pairs": sum(probe.captured["cloud_pairs"])},
        digest=digest(state, op.p),
    )
    return cell, outputs


@dataclass
class Stream:
    """Right-hand sides solved so far: time and iterations of each good solve."""

    times: list[float] = field(default_factory=list)
    iters: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.times) + len(self.failures)


def run_stream(op, inputs: Inputs, count: int, stream: Stream) -> None:
    """Closed loop of `count` PCG solves on one operator."""
    for _ in range(count):
        b = inputs.next_rhs(op.n)
        t0 = time.perf_counter()
        try:
            res = twogrid.pcg_solve(op, b, reduction=REDUCTION)
        except (NumericalError, ValueError) as exc:
            stream.failures.append(f"{type(exc).__name__}: {exc}")
            continue
        dt = time.perf_counter() - t0
        failed = pcg_failure(res.converged, res.residuals, res.iterations)
        if failed:
            stream.failures += failed
            continue
        stream.times.append(dt)
        stream.iters.append(res.iterations)


def run_cells(inputs: Inputs, probe: spans.Tracer, seconds: float, log):
    """Cells, each followed by a burst of solves on its operator, until
    `seconds` have passed; at least one cell and STREAM_SOLVES solves.

    Spreading the solves over the run keeps a slow spell of the machine
    from owning every latency sample."""
    cells, stream, op, in_a_row = [], Stream(), None, 0
    t_start = time.perf_counter()
    while op is None or time.perf_counter() - t_start < seconds:
        # drop the last cell's outputs, so peak memory is one cell's
        op = outputs = None
        cell, outputs = run_cell(inputs.next_config(), probe)
        cells.append(cell)
        log_cell(log, len(cells) - 1, cell)
        if not cell.failures:
            op, in_a_row = outputs[3], 0
            run_stream(op, inputs, STREAM_BURST, stream)
        elif (in_a_row := in_a_row + 1) >= 3:
            raise SystemExit("three cells in a row failed")
    run_stream(op, inputs, max(0, STREAM_SOLVES - stream.attempted), stream)
    return cells, stream


def log_cell(log, k, cell: Cell) -> None:
    status = "ok" if not cell.failures else "FAIL " + "; ".join(cell.failures)
    sizes = " ".join(f"{key}={v}" for key, v in cell.sizes.items())
    log(f"cell {k} seed={cell.seed} {sizes} setup_s={cell.setup_s:.4f} "
        f"run_s={cell.run_s:.4f} rho={cell.rho:.6f} pcg_iters={cell.pcg_iters} "
        f"digest={cell.digest} {status}")


def openblas() -> list[tuple[str, ctypes.CDLL, str | None]]:
    """Every OpenBLAS loaded in this process: file name, handle and the
    suffix of its ``scipy_openblas_*`` symbols (None if it has none)."""
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        suffix = next((s for s in ("64_", "")
                       if hasattr(lib, f"scipy_openblas_get_num_threads{s}")), None)
        found.append((Path(path).name, lib, suffix))
    return found


def blas_libraries() -> list[dict]:
    """Every OpenBLAS loaded in this process, its build string and thread count."""
    found = []
    for name, lib, suffix in openblas():
        info = {"lib": name}
        if suffix is not None:
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            info.update(threads=get_threads(), config=get_config().decode())
        found.append(info)
    return found


def set_blas_threads(count: int) -> None:
    for _, lib, suffix in openblas():
        if suffix is not None:
            getattr(lib, f"scipy_openblas_set_num_threads{suffix}")(ctypes.c_int(count))


def environment() -> dict:
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "krigamg": krigamg.__version__,
        "blas": blas_libraries(), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def end_to_end_metrics(cells, stream: Stream) -> dict:
    good = [c for c in cells if not c.failures]
    ms = np.asarray(stream.times) * 1e3
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(c.setup_s for c in good),
        "run_s": statistics.median(c.run_s for c in good),
        "solve_ms_p50": float(np.percentile(ms, 50)),
        "solve_ms_p95": float(np.percentile(ms, 95)),
        "rho": statistics.median(c.rho for c in good),
        "pcg_iters": float(np.mean(stream.iters)),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def traced_cell(tracer: spans.Tracer, config, probe: spans.Tracer):
    """One cell under spans: (Cell, outputs, per-layer metrics, summary)."""
    tracer.captured.clear()
    lo = len(tracer)
    spans.install(tracer)
    try:
        cell, outputs = run_cell(config, probe)
    finally:
        tracer.remove()
    if outputs is None:
        return cell, None, {}, None
    summary = tracer.summarize(lo, len(tracer))
    return cell, outputs, cell_layer_metrics(summary, tracer.captured, outputs, cell), summary


def cell_layer_metrics(s: spans.SpanSummary, cap, outputs, cell: Cell) -> dict:
    report, state, interp, op, problem = outputs
    refreshed = sum(cap["refreshed"])
    n_c = interp.n_c
    m = {
        "problems.build_s": s.total("problems.generate_case"),
        "problems.n": problem.n,
        "problems.nnz": int(problem.matrix.nnz),
        "smoother.coloring_s": s.total("smoother.greedy_coloring"),
        "smoother.testvec_s": s.total("smoother.generate_test_vectors"),
        # the empirical path has no cloud or fit, so its source time is the
        # centering of the test vectors, which the parametric path skips
        "covariance.source_s": sum(s.total(f"covariance.{step}") for step in
                                   ("cloud", "bin", "fit", "empirical_init")),
        "covariance.cloud_pairs": cell.sizes["cloud_pairs"],
        "kriging.solve_calls": s.calls("kriging.ordinary_kriging"),
        "kriging.solve_s": s.total("kriging.ordinary_kriging"),
        "kriging.regularized": state.diagnostics.regularized_events,
        "kriging.qmax_reductions": state.diagnostics.qmax_reductions,
        "coarsen.total_s": s.total("coarsen.coarsen"),
        "coarsen.select_s": s.total("coarsen.select"),
        "coarsen.update_s": s.total("coarsen.update"),
        "coarsen.interp_s": s.total("coarsen.to_csr"),
        "coarsen.stencils_per_add": refreshed / n_c,
        "coarsen.stencil_useful_ratio": (problem.n - n_c) / refreshed,
        "coarsen.embed_diag_s": s.total("coarsen.embeddability"),
        "coarsen.n_c": n_c,
        "coarsen.nnz_p": int(op.p.nnz),
        "twogrid.galerkin_s": s.total("twogrid.galerkin"),
        "twogrid.coarse_factor_s": s.total("twogrid.coarse_factor"),
        "twogrid.coarse_factor_bytes": 8 * n_c * n_c,  # computed: dense n_c x n_c float64
        "twogrid.nnz_ac": int(op.a_c.nnz),
        "twogrid.rate_s": s.total("twogrid.rate"),
        "twogrid.rate_cycles": cap["rate_cycles"][0],
        "pipeline.run_s": cell.run_s,
        "pipeline.cover_ratio": sum(s.layer_self(layer) for layer in LAYERS) / cell.run_s,
    }
    for key, span in (("metric.search", "metric.search"),
                      ("metric.nearest_coarse", "metric.nearest_coarse"),
                      ("metric.pairwise", "metric.pairwise"),
                      ("covariance.local_matrix", "covariance.local_matrix"),
                      ("kriging.assemble", "kriging.assemble_local_cov")):
        m[f"{key}_calls"] = s.calls(span)
        m[f"{key}_s"] = s.total(span)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = s.layer_self(layer)
    return m


def cross_check(s: spans.SpanSummary, cap, outputs) -> dict:
    """Trace counts next to the program's own state; each pair must agree."""
    _, _, interp, _, _ = outputs
    refreshed = sum(cap["refreshed"])
    fallbacks, _ = s.under("kriging.prior_stencil", "coarsen.update")
    oracles = cap["oracles"]
    # None once the oracle keeps no cache; the smoke test then flags the check
    cached = (sum(len(o._cache) for o in oracles)
              if all(hasattr(o, "_cache") for o in oracles) else None)
    return {
        "n_c": (sum(cap["added"]), interp.n_c),
        "nearest_coarse_vs_refreshes": (s.calls("metric.nearest_coarse"), refreshed),
        "stencils_vs_refreshes": (len(cap["kriging_ok"]) + fallbacks, refreshed),
        "searches_vs_cached_keys": (s.calls("metric.search"), cached),
    }


def stream_layer_metrics(s: spans.SpanSummary, iters) -> dict:
    calls = s.calls("twogrid.vcycle")
    _, sweeps_in_vcycle = s.under("smoother.sweep", "twogrid.vcycle")
    return {
        "smoother.sweep_calls": s.calls("smoother.sweep"),
        "smoother.sweep_s": s.total("smoother.sweep"),
        "twogrid.vcycle_calls": calls,
        "twogrid.vcycle_ms": 1e3 * s.total("twogrid.vcycle") / calls,
        "twogrid.coarse_correction_ms":
            1e3 * (s.total("twogrid.vcycle") - sweeps_in_vcycle) / calls,
        "twogrid.pcg_iters_total": int(sum(iters)),
    }


def default_blas_cell(config, probe: spans.Tracer):
    """One traced cell at the library's default BLAS threads, one per CPU,
    then back to one thread; returns (Cell, per-layer metrics, BLAS state).

    The first BLAS calls after the switch pay the start-up of OpenBLAS's
    threads, which is what the finding is about."""
    set_blas_threads(len(os.sched_getaffinity(0)))
    try:
        cell, _, metrics, _ = traced_cell(spans.Tracer(), config, probe)
        blas = blas_libraries()
    finally:
        set_blas_threads(1)
    return cell, metrics, blas


def warm_up(workload: Workload, probe: spans.Tracer) -> None:
    """Load every code path once on a tiny grid, outside all timing."""
    tiny = Workload(workload.case, workload.model, workload.K, "", grid_m=8, rings=4)
    run_cell(tiny.config(1), probe)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    lines: list[str] = []

    def log(line: str) -> None:
        lines.append(line)
        print(line, flush=True)

    env = environment()
    log(f"workload {name} seed={seed} seconds={seconds:g} trace={int(trace)}: {workload}")
    log("environment " + json.dumps(env))
    inputs = Inputs(workload, seed)
    probe = make_probe()
    warm_up(workload, probe)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env}
    if trace:
        metrics, attempted, failures = run_traced(name, inputs, probe, seconds, log, record)
    else:
        metrics, attempted, failures = run_untraced(inputs, probe, seconds, log, record)
    probe.remove()
    units = PER_LAYER if trace else END_TO_END
    for key, value in metrics.items():
        log(f"{key} = {value:.6g} {units[key]}")
    log(f"fail_frac = {len(failures)}/{attempted} = {len(failures) / attempted:.4g}")
    for f in failures:
        log(f"failure: {f}")
    result = {
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record["result"] = result
    record["log"] = lines
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result


def run_untraced(inputs, probe, seconds, log, record):
    """Cells and solve bursts for `seconds`; end-to-end metrics.

    Returns (metrics, attempted, failures) with one failure message per
    failed operation (cell or solve)."""
    cells, stream = run_cells(inputs, probe, seconds, log)
    good = sum(not c.failures for c in cells)
    log(f"samples: {good} cells for setup_s, run_s and rho (median); "
        f"{len(stream.times)} solves for solve_ms_p50/p95 and pcg_iters (mean)")
    record["cells"] = [c.__dict__ for c in cells]
    failures = ["; ".join(c.failures) for c in cells if c.failures] + stream.failures
    failures += band_check(cells, inputs.workload.case, log)
    return (end_to_end_metrics(cells, stream), len(cells) + stream.attempted, failures)


def run_traced(name, inputs, probe, seconds, log, record):
    """Pairs of untraced and traced cells on one config, a traced stream, and
    one traced cell at default BLAS threads; per-layer metrics."""
    tracer = spans.Tracer()
    untraced, traced_cells, per_cell, failures = [], [], [], []
    t0 = time.perf_counter()
    op, in_a_row = None, 0
    while op is None or time.perf_counter() - t0 < seconds:
        # drop the last cell's outputs and oracles before the next set-up
        op = outputs = summary = None
        tracer.captured.clear()
        config = inputs.next_config()
        cell = run_cell(config, probe)[0]
        log_cell(log, 2 * len(traced_cells), cell)
        if cell.failures:
            failures.append("; ".join(cell.failures))
        else:
            untraced.append(cell.run_s)
        cell, outputs, metrics, summary = traced_cell(tracer, config, probe)
        traced_cells.append(cell)
        log_cell(log, 2 * len(traced_cells) - 1, cell)
        if cell.failures:
            failures.append("; ".join(cell.failures))
            if (in_a_row := in_a_row + 1) >= 3:
                raise SystemExit("three traced cells in a row failed")
            continue
        op, in_a_row = outputs[3], 0
        per_cell.append(metrics)
        checked = cross_check(summary, tracer.captured, outputs)
        record.setdefault("cross_checks", []).append(checked)
        log("cross-check (trace, program): " + json.dumps(checked))
    outputs = summary = None
    tracer.captured.clear()
    attempted = 2 * len(traced_cells)
    failures += band_check(traced_cells, inputs.workload.case, log)
    metrics = {k: statistics.median(m[k] for m in per_cell) for k in per_cell[0]}
    metrics["pipeline.trace_overhead"] = (
        metrics["pipeline.run_s"] / statistics.median(untraced) - 1.0)

    lo = len(tracer)
    spans.install(tracer)
    stream = Stream()
    try:
        run_stream(op, inputs, TRACE_STREAM_SOLVES, stream)
    finally:
        tracer.remove()
    op = None
    attempted += stream.attempted
    failures += stream.failures
    metrics.update(stream_layer_metrics(tracer.summarize(lo, len(tracer)), stream.iters))

    cell, default, blas = default_blas_cell(config, probe)
    attempted += 1
    if cell.failures:
        failures.append("default BLAS cell: " + "; ".join(cell.failures))
    metrics["twogrid.coarse_factor_s_default_blas"] = default.get("twogrid.coarse_factor_s",
                                                                  0.0)
    log(f"default BLAS threads {json.dumps(blas)}: coarse_factor_s "
        f"{metrics['twogrid.coarse_factor_s_default_blas']:.4f} vs "
        f"{metrics['twogrid.coarse_factor_s']:.4f} pinned, rate_s "
        f"{default.get('twogrid.rate_s', 0.0):.4f} vs {metrics['twogrid.rate_s']:.4f} pinned "
        "(a finding, not gated)")
    if tracer.missing:
        log("spans not placed, names gone from the program: "
            + ", ".join(sorted(set(tracer.missing))))
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{name}-seed{record['seed']}-spans.npz")
    record["per_cell"] = per_cell
    return {k: metrics[k] for k in PER_LAYER}, attempted, failures

"""In-memory spans around krigamg's public functions, installed from outside.

Each wrapper is placed at the name the caller looks up at call time: a
module global (``krigamg.coarsen.ordinary_kriging`` is what ``coarsen``
calls, ``krigamg.pipeline.coarsen`` is what ``run_solve`` calls) or a
class attribute (``ColoredSweeper.sweep``).  Nothing under ``src/`` is
edited; ``install`` sets the wrappers and ``Tracer.remove`` puts the
original objects back, so untraced runs execute the unmodified code.

A span is (name, parent, start, end), appended to flat arrays as the
call happens.  Self time is a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """Collects spans from installed wrappers; summarizes slices of them."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # span targets the program no longer has
        # values handed to hooks by wrapped calls, reset by the caller
        self.captured: dict[str, list] = defaultdict(list)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, hook=None):
        """Return fn wrapped in a span; hook(result, args) runs on normal return."""
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(result, args)
            return result

        return traced

    def replace(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        if attr not in owner.__dict__:  # renamed or removed by the program
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, hook))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.name_id)

    def last_start(self, name: str) -> float:
        """Entry time of the latest span called `name`."""
        nid = self._ids[name]
        return next(self.start[i] for i in reversed(range(len(self)))
                    if self.name_id[i] == nid)

    def summarize(self, lo: int, hi: int) -> "SpanSummary":
        """Per-name calls, inclusive and self time over spans [lo, hi)."""
        # slicing copies, so no numpy view pins the arrays against growth
        ids = np.asarray(self.name_id[lo:hi])
        par = np.asarray(self.parent[lo:hi])
        dur = np.asarray(self.end[lo:hi]) - np.asarray(self.start[lo:hi])
        inner = par >= lo  # parents outside the slice do not subtract
        child = np.zeros(hi - lo)
        np.add.at(child, par[inner] - lo, dur[inner])
        k = len(self.names)
        parent_name = np.full(hi - lo, -1)
        parent_name[inner] = ids[par[inner] - lo]
        return SpanSummary(
            names=list(self.names),
            calls=np.bincount(ids, minlength=k),
            total=np.bincount(ids, weights=dur, minlength=k),
            self_time=np.bincount(ids, weights=dur - child, minlength=k),
            ids=ids, parent_name=parent_name, dur=dur,
        )

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent), start=np.asarray(self.start),
            end=np.asarray(self.end),
        )


class SpanSummary:
    def __init__(self, names, calls, total, self_time, ids, parent_name, dur):
        self._index = {n: i for i, n in enumerate(names)}
        self._calls, self._total, self._self = calls, total, self_time
        self._ids, self._parent_name, self._dur = ids, parent_name, dur

    def calls(self, name: str) -> int:
        i = self._index.get(name)
        return 0 if i is None else int(self._calls[i])

    def total(self, name: str) -> float:
        i = self._index.get(name)
        return 0.0 if i is None else float(self._total[i])

    def layer_self(self, layer: str) -> float:
        return float(sum(self._self[i] for n, i in self._index.items()
                         if n.split(".", 1)[0] == layer))

    def under(self, name: str, parent: str) -> tuple[int, float]:
        """Calls and time of `name` spans whose direct parent is `parent`."""
        i, p = self._index.get(name), self._index.get(parent)
        if i is None or p is None:
            return 0, 0.0
        mask = (self._ids == i) & (self._parent_name == p)
        return int(mask.sum()), float(self._dur[mask].sum())


class _LinalgProxy:
    """Stands in for ``scipy.linalg`` inside one module, with some functions traced."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def install(tracer: Tracer) -> None:
    """Place a span at every public entry point the pipeline calls.

    Span names are ``<layer>.<function>``; the layer is the module that
    implements the function, whichever module calls it.
    """
    # import_module: the package re-exports a function named ``coarsen``,
    # which hides the submodule of that name as a package attribute
    pipeline, coarsen, metric, cov, twogrid, smoother = (
        importlib.import_module(f"krigamg.{name}") for name in
        ("pipeline", "coarsen", "metric", "covariance", "twogrid", "smoother"))
    cap = tracer.captured
    p = tracer.patch

    p(pipeline, "run_solve", "pipeline.run_solve")
    p(pipeline, "generate_case", "problems.generate_case")
    p(pipeline, "greedy_coloring", "smoother.greedy_coloring")
    p(pipeline, "generate_test_vectors", "smoother.generate_test_vectors")
    p(smoother.ColoredSweeper, "sweep", "smoother.sweep")

    p(metric.GraphDistanceOracle, "__post_init__", "metric.oracle_init",
      hook=lambda r, a: cap["oracles"].append(a[0]))
    p(metric, "graph_distances_from", "metric.search")
    p(metric.GraphDistanceOracle, "pairwise", "metric.pairwise")
    p(coarsen, "nearest_coarse", "metric.nearest_coarse")
    p(coarsen, "check_local_embeddability", "metric.check_local_embeddability")
    p(pipeline, "median_neighbor_distance", "metric.median_neighbor_distance")

    p(cov, "build_variogram_cloud", "covariance.cloud")
    p(cov, "bin_semivariogram", "covariance.bin")
    p(cov, "fit_semivariogram", "covariance.fit")
    p(cov.EmpiricalCovariance, "__post_init__", "covariance.empirical_init")
    p(cov.EmpiricalCovariance, "local_matrix", "covariance.local_matrix")
    p(cov.ParametricCovariance, "local_matrix", "covariance.local_matrix")

    p(coarsen, "assemble_local_cov", "kriging.assemble_local_cov")
    p(coarsen, "ordinary_kriging", "kriging.ordinary_kriging",
      hook=lambda r, a: cap["kriging_ok"].append(1))
    p(coarsen, "prior_stencil", "kriging.prior_stencil")

    p(pipeline, "coarsen", "coarsen.coarsen")
    p(coarsen, "init_variances", "coarsen.init_variances")
    p(coarsen, "select_next", "coarsen.select")
    p(coarsen, "select_batch", "coarsen.select")
    p(coarsen, "update_after_add", "coarsen.update",
      hook=lambda r, a: (cap["added"].append(len(a[1])),
                         cap["refreshed"].append(len(r.last_affected))))
    p(coarsen, "build_interpolation", "coarsen.build_interpolation")
    p(coarsen.InterpolationOperator, "to_csr", "coarsen.to_csr")
    p(pipeline, "embeddability_failure_fraction", "coarsen.embeddability")

    p(pipeline, "build_twogrid", "twogrid.build")
    p(twogrid, "galerkin", "twogrid.galerkin")
    real = twogrid.scipy.linalg
    linalg = _LinalgProxy(
        real, cho_factor=tracer.wrap(real.cho_factor, "twogrid.coarse_factor"),
        cho_solve=tracer.wrap(real.cho_solve, "twogrid.coarse_solve"))
    tracer.replace(twogrid, "scipy", types.SimpleNamespace(linalg=linalg))
    p(pipeline, "estimate_asymptotic_rate", "twogrid.rate",
      hook=lambda r, a: cap["rate_cycles"].append(r.cycles))
    p(twogrid, "vcycle_apply", "twogrid.vcycle")
    p(pipeline, "pcg_solve", "twogrid.pcg")
    p(twogrid, "pcg_solve", "twogrid.pcg")

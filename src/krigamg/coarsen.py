"""Greedy maximum-variance coarsening and interpolation assembly.

Starting from an all-fine splitting, the coarse set grows one variable
at a time (or in well-separated batches): always the fine variable whose
predictive variance is currently largest, ties broken by smallest index.
Each addition zeroes the new coarse variable's variance and refreshes
the Kriging stencil of every fine variable within the localization
radius; points outside that ball are untouched, so the cost per step is
local.  The loop stops at a target coarse count or once the largest
remaining variance drops below a tolerance.

The final interpolation keeps coarse variables identical (unit rows) and
maps each fine variable from its interpolatory set with the ordinary
Kriging weights, so every nonempty fine row sums to one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import NumericalError
from .kriging import KrigingStencil, assemble_local_cov, ordinary_kriging, prior_stencil
from .metric import (
    GraphDistanceOracle,
    check_local_embeddability,
    median_neighbor_distance,
    nearest_coarse,
)

__all__ = [
    "PartitionState",
    "InterpolationOperator",
    "CoarseningDiagnostics",
    "init_variances",
    "select_next",
    "select_batch",
    "update_after_add",
    "coarsen",
    "build_interpolation",
    "embeddability_failure_fraction",
    "write_splitting_csv",
    "write_interpolation_mtx",
]


@dataclass
class CoarseningDiagnostics:
    """Event counters accumulated over one coarsening run."""

    negative_variance_events: int = 0
    regularized_events: int = 0
    qmax_reductions: int = 0
    empty_stencils: int = 0


@dataclass
class PartitionState:
    """Current C/F splitting with per-variable stencils and variances."""

    n: int
    coarse_order: list[int]
    is_coarse: np.ndarray
    variance: np.ndarray
    stencils: list[KrigingStencil | None]
    diagnostics: CoarseningDiagnostics = field(default_factory=CoarseningDiagnostics)
    last_affected: list[int] = field(default_factory=list)

    @property
    def num_coarse(self) -> int:
        return len(self.coarse_order)

    def fine_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.is_coarse)


def init_variances(problem, cov_source) -> PartitionState:
    """All-fine initial state: every variance is the prior C_ii, no stencils."""
    n = problem.n
    variance = np.array([cov_source.prior_variance(i) for i in range(n)])
    stencils: list[KrigingStencil | None] = [prior_stencil(i, variance[i]) for i in range(n)]
    return PartitionState(
        n=n,
        coarse_order=[],
        is_coarse=np.zeros(n, dtype=bool),
        variance=variance,
        stencils=stencils,
    )


def select_next(state: PartitionState) -> int:
    """Fine variable of largest variance; ties break at the smallest index."""
    masked = np.where(state.is_coarse, -np.inf, state.variance)
    if np.all(np.isneginf(masked)):
        raise ValueError("no fine variables left to select")
    return int(np.argmax(masked))


def select_batch(state: PartitionState, oracle, min_separation: float) -> list[int]:
    """Greedy sweep of F in descending variance, keeping mutually far candidates.

    A candidate joins the batch only if its graph distance to every
    already-accepted candidate exceeds min_separation, so the accepted
    points have disjoint update balls when min_separation >= 2*radius.
    """
    fine = state.fine_indices()
    if fine.size == 0:
        raise ValueError("no fine variables left to select")
    order = fine[np.lexsort((fine, -state.variance[fine]))]
    accepted: list[int] = []
    excluded = np.zeros(state.n, dtype=bool)
    for cand in order:
        if excluded[cand]:
            continue
        accepted.append(int(cand))
        for j in oracle.distances_from(int(cand), min_separation):
            excluded[j] = True
    return accepted


def _compute_stencil(
    j: int, state: PartitionState, oracle, cov_source, q_max: int, radius: float
) -> KrigingStencil:
    """Kriging stencil of fine variable j, shrinking the set on PD failures."""
    members, _ = nearest_coarse(j, state.is_coarse, oracle, q_max, radius)
    diag = state.diagnostics
    while members:
        local = assemble_local_cov(j, members, cov_source)
        if local.regularized:
            diag.regularized_events += 1
        if local.positive_definite:
            try:
                stencil = ordinary_kriging(j, members, local)
            except NumericalError:
                stencil = None
            if stencil is not None:
                if stencil.variance < 0.0 or stencil.simple_variance < 0.0:
                    diag.negative_variance_events += 1
                return stencil
        # drop the farthest candidate and retry with a smaller local graph
        members = members[:-1]
        diag.qmax_reductions += 1
    return prior_stencil(j, cov_source.prior_variance(j))


def update_after_add(
    state: PartitionState,
    added,
    oracle,
    cov_source,
    q_max: int,
    radius: float,
) -> PartitionState:
    """Move `added` into C and refresh every fine stencil within the radius."""
    added = [int(a) for a in added]
    for a in added:
        if state.is_coarse[a]:
            raise ValueError(f"variable {a} is already coarse")
    affected: set[int] = set()
    for a in added:
        state.is_coarse[a] = True
        state.coarse_order.append(a)
        state.variance[a] = 0.0
        state.stencils[a] = None
        affected.update(oracle.distances_from(a, radius))
    affected_fine = sorted(j for j in affected if not state.is_coarse[j])
    for j in affected_fine:
        stencil = _compute_stencil(j, state, oracle, cov_source, q_max, radius)
        state.stencils[j] = stencil
        state.variance[j] = stencil.selection_variance
    state.last_affected = affected_fine
    return state


@dataclass
class InterpolationOperator:
    """Interpolation in canonical form: unit rows on C, Kriging rows on F."""

    n: int
    n_c: int
    coarse_index: np.ndarray  # variable -> coarse column, -1 for fine
    stencils: list[KrigingStencil | None]

    def to_csr(self) -> sp.csr_matrix:
        rows, cols, vals = [], [], []
        for i in range(self.n):
            ci = self.coarse_index[i]
            if ci >= 0:
                rows.append(i)
                cols.append(ci)
                vals.append(1.0)
                continue
            stencil = self.stencils[i]
            for j, w in zip(stencil.members, stencil.weights):
                rows.append(i)
                cols.append(self.coarse_index[j])
                vals.append(float(w))
        p = sp.coo_matrix((vals, (rows, cols)), shape=(self.n, self.n_c)).tocsr()
        p.sort_indices()
        return p


def build_interpolation(state: PartitionState) -> InterpolationOperator:
    coarse_index = np.full(state.n, -1, dtype=np.int64)
    for k, c in enumerate(state.coarse_order):
        coarse_index[c] = k
    empty = sum(
        1
        for i in range(state.n)
        if not state.is_coarse[i] and not state.stencils[i].members
    )
    state.diagnostics.empty_stencils = empty
    return InterpolationOperator(
        n=state.n,
        n_c=state.num_coarse,
        coarse_index=coarse_index,
        stencils=state.stencils,
    )


def coarsen(
    problem,
    cov_source,
    *,
    n_coarse: int | None = None,
    tolerance: float | None = None,
    q_max: int = 4,
    radius: float = 4.0,
    batch: bool = False,
    min_separation: float | None = None,
    oracle=None,
) -> tuple[PartitionState, InterpolationOperator]:
    """Run greedy variance coarsening to a coarse-count or variance target.

    Exactly one of n_coarse / tolerance must be given.  With batching
    enabled, well-separated variables are added together per round;
    min_separation defaults to 2*radius plus one typical edge and must
    be at least 2*radius.
    """
    if (n_coarse is None) == (tolerance is None):
        raise ValueError("specify exactly one of n_coarse or tolerance")
    if n_coarse is not None and not (1 <= n_coarse <= problem.n):
        raise ValueError(f"n_coarse must be in 1..{problem.n}")
    if tolerance is not None and tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    if oracle is None:
        oracle = GraphDistanceOracle(problem.matrix, radius)
    if batch:
        if min_separation is None:
            min_separation = 2.0 * radius + median_neighbor_distance(problem.matrix)
        if min_separation < 2.0 * radius:
            raise ValueError("min_separation must be at least twice the radius")

    state = init_variances(problem, cov_source)
    while True:
        if n_coarse is not None:
            remaining = n_coarse - state.num_coarse
            if remaining <= 0:
                break
        else:
            fine = state.fine_indices()
            if fine.size == 0:
                break
            if state.variance[fine].max() <= tolerance:
                break
            remaining = None
        if batch:
            added = select_batch(state, oracle, min_separation)
            if remaining is not None:
                added = added[:remaining]
        else:
            added = [select_next(state)]
        update_after_add(state, added, oracle, cov_source, q_max, radius)
    return state, build_interpolation(state)


def embeddability_failure_fraction(state: PartitionState, oracle) -> float:
    """Fraction of fine variables whose local distance matrix is not embeddable.

    Only fine variables with at least two interpolatory members are
    diagnosed (smaller sets always embed).
    """
    checked = failed = 0
    for i in range(state.n):
        if state.is_coarse[i]:
            continue
        stencil = state.stencils[i]
        if stencil is None or len(stencil.members) < 2:
            continue
        d = oracle.pairwise(list(stencil.members) + [i])
        ok, _ = check_local_embeddability(d)
        checked += 1
        failed += 0 if ok else 1
    return failed / checked if checked else 0.0


def write_splitting_csv(problem, state: PartitionState, path) -> None:
    """Dump the splitting as "index,x,y,role" with role C or F."""
    coords = problem.coords
    with open(path, "w") as handle:
        handle.write("index,x,y,role\n")
        for i in range(state.n):
            x, y = (coords[i] if coords is not None else (float("nan"), float("nan")))
            role = "C" if state.is_coarse[i] else "F"
            handle.write(f"{i},{float(x)!r},{float(y)!r},{role}\n")


def write_interpolation_mtx(op: InterpolationOperator, path) -> None:
    scipy.io.mmwrite(str(path), op.to_csr().tocoo(), precision=17)

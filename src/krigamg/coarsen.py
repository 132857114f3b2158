"""Greedy maximum-variance coarsening and interpolation assembly.

Starting from an all-fine splitting, the coarse set grows one variable
at a time (or in well-separated batches): always the fine variable whose
predictive variance is currently largest, ties broken by smallest index.
Each addition zeroes the new coarse variable's variance and refreshes
the Kriging stencil of every fine variable within the localization
radius; points outside that ball are untouched, so the cost per step is
local.  The refreshed stencils depend only on the splitting, so those
with equally many interpolatory members are solved as one stack.  A
stencil whose local covariance cannot be solved drops its farthest
member and joins the stack of its new size in the next round; the other
stencils of its stack keep their solution.  The loop stops at a target
coarse count or once the largest remaining variance drops below a
tolerance.

The final interpolation keeps coarse variables identical (unit rows) and
maps each fine variable from its interpolatory set with the ordinary
Kriging weights, so every nonempty fine row sums to one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.sparse as sp

from .kriging import (COND_WARN_THRESHOLD, KrigingStencil, assemble_local_cov, ordinary_kriging,
                      prior_stencil)
from .metric import check_local_embeddability, median_neighbor_distance, nearest_coarse

__all__ = [
    "PartitionState",
    "InterpolationOperator",
    "CoarseningDiagnostics",
    "init_variances",
    "select_next",
    "select_batch",
    "update_after_add",
    "refresh_stencils",
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
        excluded[oracle.distances_from(cand, min_separation)[1]] = True
    return accepted


def refresh_stencils(fine, member_sets, cov_source, diag: CoarseningDiagnostics):
    """Kriging stencils of the variables `fine` from their interpolatory sets.

    Each round solves the pending sets of each size as one stack.  A block
    that cannot be solved drops its farthest member and waits for the next
    round; an empty set takes the prior.  Ill-conditioned blocks warn once
    the refresh is done, in ascending variable order.
    """
    stencils: dict[int, KrigingStencil] = {}
    ill: list[int] = []  # the variable of each ill-conditioned block
    pending = dict(zip(fine, member_sets))
    while pending:
        by_size: dict[int, list[int]] = {}
        for j, members in pending.items():
            by_size.setdefault(len(members), []).append(j)
        retry = {}
        for q, js in by_size.items():
            if q == 0:
                stencils.update((j, prior_stencil(j, cov_source.prior_variance(j))) for j in js)
                continue
            sets = [pending[j] for j in js]
            local = assemble_local_cov(js, sets, cov_source)
            diag.regularized_events += int(local.regularized.sum())
            ill += [js[k] for k in np.flatnonzero(local.ill_conditioned)]
            for j, members, stencil in zip(js, sets, ordinary_kriging(js, sets, local)):
                if stencil is None:
                    retry[j] = members[:-1]  # drop the farthest, retry on a smaller local graph
                    diag.qmax_reductions += 1
                else:
                    stencils[j] = stencil
                    diag.negative_variance_events += (stencil.variance < 0.0
                                                      or stencil.simple_variance < 0.0)
        pending = retry
    for j in sorted(ill):
        warnings.warn(f"local covariance at variable {j} has condition number above "
                      f"{COND_WARN_THRESHOLD:.0e}", stacklevel=2)
    return [stencils[j] for j in fine]


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
    for a in added:
        state.is_coarse[a] = True
        state.coarse_order.append(a)
        state.variance[a] = 0.0
        state.stencils[a] = None
    _, ball, _ = oracle.distances_from(added, radius)
    affected_fine = np.unique(ball[~state.is_coarse[ball]]).tolist()
    member_sets, _ = nearest_coarse(affected_fine, state.is_coarse, oracle, q_max, radius)
    stencils = refresh_stencils(affected_fine, member_sets, cov_source, state.diagnostics)
    for j, stencil in zip(affected_fine, stencils):
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
    oracle,
    n_coarse: int | None = None,
    tolerance: float | None = None,
    q_max: int = 4,
    radius: float = 4.0,
    batch: bool = False,
    min_separation: float | None = None,
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
    diagnosed (smaller sets always embed).  The sets of each size are
    looked up as one stack.
    """
    by_size: dict[int, list[list[int]]] = {}
    for i in state.fine_indices().tolist():
        members = state.stencils[i].members
        if len(members) >= 2:
            by_size.setdefault(len(members), []).append([*members, i])
    embeds = [check_local_embeddability(d)[0]
              for sets in by_size.values() for d in oracle.pairwise(sets)]
    return embeds.count(False) / len(embeds) if embeds else 0.0


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

"""Greedy maximum-variance coarsening and interpolation assembly.

Starting from an all-fine splitting, the greedy adds, one at a time, the
fine variable whose predictive variance is currently largest, ties
broken by smallest index, until a target coarse count or until no
variance exceeds a tolerance.  Each addition zeroes the new coarse
variable's variance and refreshes the Kriging stencil of every fine
variable within the localization radius; points outside that ball are
untouched, so the cost per step is local.

The additions run in speculative rounds.  A stencil depends only
on the coarse set, and additions more than the radius apart do not lie
in each other's balls.  So each round pops the next picks off a max-heap
of variances while they stay that far apart, and refreshes all their
balls together, each against the coarse set as the greedy sees it right
after that pick.  Balls of picks within twice the radius overlap; a
variable in the overlap (the lens) is refreshed once per ball.  The
round commits the longest prefix in which every pick beats the variances
refreshed by the picks before it: the greedy's additions, stencils,
counters and warnings (Blelloch, Fineman & Shun, SPAA 2012).  A lens
budget, one more after a round committed whole and cut back to the lens
picks committed after a rejection, bounds the lens picks of a round.
The other picks go back on the heap, and the refresh of each one's ball,
unless it counted a rejected pick as coarse, is kept for when it is
picked again, until an addition lands within twice the radius of it.

The stencils are arrays over all variables: row i holds the
interpolatory set of variable i nearest first, padded with -1, and its
weights, zero-padded.  The refreshed stencils with equally many
interpolatory members are solved as one stack, from the largest size
down.  A stencil whose local covariance cannot be solved drops its
farthest member and joins the stack of its new size; the other stencils
of its stack keep their solution.

The final interpolation keeps coarse variables identical (unit rows) and
maps each fine variable from its interpolatory set with the ordinary
Kriging weights, so every nonempty fine row sums to one.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.sparse as sp

from .kriging import COND_WARN_THRESHOLD, assemble_local_cov, ordinary_kriging, prior_stencil
from .metric import check_local_embeddability, nearest_coarse

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

    def add(self, other: CoarseningDiagnostics) -> None:
        """Add the counts of `other` to these."""
        for name, count in vars(other).items():
            setattr(self, name, getattr(self, name) + count)


@dataclass
class PartitionState:
    """Current C/F splitting with the stencil and variances of every variable.

    Row i of `members` (n, q_max) is the interpolatory set of variable i,
    nearest first and padded with -1; row i of `weights` holds its
    ordinary Kriging weights, zero-padded.  A row is all -1 on C and where
    a fine variable has no coarse point in reach (the prior).  `variance`
    is the selection variance, `blup_variance` the predictive (BLUP)
    variance of the stencil; both are 0 on C and the prior C_ii where the
    stencil is empty.
    """

    n: int
    coarse_order: list[int]
    is_coarse: np.ndarray
    variance: np.ndarray
    blup_variance: np.ndarray
    members: np.ndarray
    weights: np.ndarray
    diagnostics: CoarseningDiagnostics = field(default_factory=CoarseningDiagnostics)
    last_affected: list[int] = field(default_factory=list)
    # the ball refreshes of rejected speculative picks, by pick (update_after_add)
    speculated: dict[int, _Ball] = field(default_factory=dict)

    @property
    def num_coarse(self) -> int:
        return len(self.coarse_order)


def init_variances(problem, cov_source, q_max: int) -> PartitionState:
    """All-fine initial state: every variance is the prior C_ii, every
    stencil of width q_max empty."""
    n = problem.n
    variance = prior_stencil(np.arange(n), cov_source)
    return PartitionState(
        n=n,
        coarse_order=[],
        is_coarse=np.zeros(n, dtype=bool),
        variance=variance,
        blup_variance=variance.copy(),
        members=np.full((n, q_max), -1, dtype=np.int64),
        weights=np.zeros((n, q_max)),
    )


def select_next(state: PartitionState) -> int:
    """Fine variable of largest variance; ties break at the smallest index."""
    masked = np.where(state.is_coarse, -np.inf, state.variance)
    if np.all(np.isneginf(masked)):
        raise ValueError("no fine variables left to select")
    return int(np.argmax(masked))


def refresh_stencils(fine, member_sets, cov_source):
    """Kriging stencils of the variables `fine`, which may repeat, from their
    (m, q_max) interpolatory sets, each nearest first and padded with -1.

    The pending sets of each size are solved as one stack, from the
    largest size down.  A block that cannot be solved drops its farthest
    member (writes -1 there) and joins the stack of its new size; an
    empty set takes the prior.  Returns the members, weights, BLUP and
    simple-Kriging variances, and per stencil the counts of its negative
    variances, regularized blocks, dropped members (the first three
    fields of CoarseningDiagnostics) and ill-conditioned blocks, as the
    columns of an (m, 4) array.
    """
    fine = np.asarray(fine, dtype=np.int64)
    members = np.array(member_sets, dtype=np.int64)
    weights = np.zeros(members.shape)
    variance, simple = np.zeros(len(fine)), np.zeros(len(fine))
    events = np.zeros((len(fine), 4), dtype=np.int64)
    sizes = (members >= 0).sum(axis=1)
    for q in range(members.shape[1], 0, -1):
        ks = np.flatnonzero(sizes == q)
        if ks.size == 0:
            continue
        local = assemble_local_cov(fine[ks], members[ks, :q], cov_source)
        events[ks, 1] += local.regularized
        events[ks, 3] += local.ill_conditioned
        w, var, simple_var, solved = ordinary_kriging(members[ks, :q], local)
        done, failed = ks[solved], ks[~solved]
        weights[done, :q] = w[solved]
        variance[done], simple[done] = var[solved], simple_var[solved]
        events[done, 0] += simple_var[solved] < 0.0
        members[failed, q - 1] = -1  # drop the farthest, retry on a smaller local graph
        sizes[failed] -= 1
        events[failed, 2] += 1
    empty = np.flatnonzero(sizes == 0)
    variance[empty] = simple[empty] = prior_stencil(fine[empty], cov_source)
    return members, weights, variance, simple, events


@dataclass
class _Ball:
    """The refreshed stencils of the fine variables within the radius of one
    addition: the variables (ascending) and their rows of the refresh,
    with selection variances in place of the simple-Kriging ones."""

    fine: np.ndarray
    members: np.ndarray
    weights: np.ndarray
    blup_variance: np.ndarray
    variance: np.ndarray
    events: np.ndarray


def _refresh_balls(state: PartitionState, picks, owner, ball, rank, oracle, cov_source,
                   q_max: int) -> list[_Ball]:
    """The balls of `picks`, their rows (owner, ball) within the radius, all
    refreshed in one stack.  Each takes its interpolatory sets from the coarse
    variables of rank (rank > 0 is coarse) at most its pick's."""
    fine = ~state.is_coarse[ball]
    owner, affected = np.divmod(np.unique(owner[fine] * state.n + ball[fine]), state.n)
    member_sets = nearest_coarse(affected, rank, rank[picks][owner], oracle, q_max)
    members, weights, variance, simple, events = refresh_stencils(affected, member_sets,
                                                                  cov_source)
    # Selection ranks by the simple-Kriging (known-mean) variance, clamped
    # at zero: the mean-estimation term of the BLUP variance exceeds the
    # prior near the localization edge, which would steer selection to ball
    # peripheries instead of the least-informed points.  np.maximum would
    # turn -0.0 into 0.0.
    selection = np.where(0.0 > simple, 0.0, simple)
    bounds = np.searchsorted(owner, np.arange(len(picks) + 1))
    return [_Ball(affected[a:b], members[a:b], weights[a:b], variance[a:b], selection[a:b],
                  events[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def update_after_add(
    state: PartitionState,
    added,
    oracle,
    cov_source,
    q_max: int,
) -> PartitionState:
    """Move `added`, a round of the greedy's picks, into C as far as the
    one-at-a-time greedy takes them, and refresh every fine stencil within
    the oracle's truncation radius of each addition.

    The picks are in the order the greedy would pick them and pairwise
    farther apart than the radius, so that no pick lies in another's
    ball; a single pick is a round of one.  The ball of each pick is
    refreshed against the coarse set as the one-at-a-time greedy sees it
    right after that addition: the picks after it stay fine there.  A
    variable within the radius of several picks (in the lens of their
    balls) is refreshed once per ball.  Only the longest prefix that the
    greedy picks in turn is committed: each pick must beat, by (variance,
    -index), every variance refreshed in the balls of the picks before
    it.  The committed balls are applied in order, so the last one sets a
    lens variable.  The rest stay fine, their balls unchanged.  A rejected
    pick's refresh is kept in state.speculated, unless a rejected pick
    before it lies within twice the radius, until it is picked again or an
    addition lands within twice the radius of it; it is reused if no
    earlier pick of that round lies within twice the radius.
    state.last_affected lists the variables whose stencils were set, once
    per committed ball.  One fetch of the picks' rows within twice the
    radius serves the round; the balls are their prefixes within the radius.
    """
    added = [int(a) for a in added]
    for a in added:
        if state.is_coarse[a]:
            raise ValueError(f"variable {a} is already coarse")
    picked = state.variance[added].tolist()
    state.is_coarse[added] = True
    rank = state.is_coarse.astype(np.int64)
    rank[added] = np.arange(2, len(added) + 2)  # pick k is coarse from its own ball on
    latest = np.full(len(added), -1)  # the last earlier pick within twice the radius
    radius = oracle.truncation_radius
    owner, near, d = oracle.distances_from(added, 2.0 * radius)
    earlier = rank[near] - 2
    hit = (earlier >= 0) & (earlier < owner)
    np.maximum.at(latest, owner[hit], earlier[hit])
    balls = [state.speculated.pop(a, None) for a in added]
    missing = [k for k, ball in enumerate(balls) if ball is None or latest[k] >= 0]
    inside = (d <= radius) & np.isin(owner, missing)  # the balls to refresh: row prefixes
    fresh = _refresh_balls(state, added, owner[inside], near[inside], rank, oracle, cov_source,
                           q_max)
    balls = [fresh[k] if k in missing else ball for k, ball in enumerate(balls)]
    kept = _greedy_prefix(added, picked, balls)

    done = added[:kept]
    state.is_coarse[added[kept:]] = False
    state.coarse_order += done
    state.members[done] = -1
    state.variance[done] = state.blup_variance[done] = state.weights[done] = 0.0
    committed = balls[:kept]
    for ball in committed:  # in order, so the last ball of a lens variable sets it
        state.variance[ball.fine] = ball.variance
        state.blup_variance[ball.fine] = ball.blup_variance
        state.members[ball.fine] = ball.members
        state.weights[ball.fine] = ball.weights
        state.diagnostics.add(CoarseningDiagnostics(*ball.events[:, :3].sum(axis=0).tolist()))
        for j in np.repeat(ball.fine, ball.events[:, 3]).tolist():  # once per ill block
            warnings.warn(f"local covariance at variable {j} has condition number above "
                          f"{COND_WARN_THRESHOLD:.0e}")
    for a in state.speculated.keys() & set(near[owner < kept].tolist()):
        del state.speculated[a]
    state.speculated.update((added[k], balls[k]) for k in range(kept, len(added))
                            if latest[k] < kept)
    state.last_affected = [j for ball in committed for j in ball.fine.tolist()]
    return state


def _greedy_prefix(added, picked, balls) -> int:
    """How many leading picks of `added` (variances `picked`) the one-at-a-time
    greedy takes in turn: each beats, by (variance, -index), every refreshed
    variance in the balls of the picks before it."""
    bar = (-np.inf, -np.inf)
    for k, (a, v, ball) in enumerate(zip(added, picked, balls)):
        if (v, -a) < bar:
            return k
        if ball.fine.size:  # fine ascends, so argmax finds the smallest index of the maximum
            top = int(np.argmax(ball.variance))
            bar = max(bar, (float(ball.variance[top]), -int(ball.fine[top])))
    return len(added)


def select_batch(heap: list, state: PartitionState, oracle, limit: int,
                 tolerance: float | None, budget: int) -> tuple[list[int], list[int], list[bool]]:
    """Pop the picks of the next round off the max-heap of (-variance, index).

    Takes up to `limit` fine variables above the tolerance in heap order,
    each farther than the oracle's radius from the picks before it.  A
    variable within the radius of a pick is passed over, since that pick
    refreshes its variance.  One beyond the radius but within twice the
    radius of a pick is a lens pick, whose ball overlaps that pick's: a
    round takes at most `budget` of them, and the next one ends the round,
    left on the heap.  Stale entries are dropped.  Returns the picks, every
    current entry popped (the picks included) and whether each is a lens pick.
    """
    radius = oracle.truncation_radius
    near = np.full(state.n, np.inf)  # distance to the nearest pick, up to twice the radius
    picks, popped, lens = [], [], []
    while heap and len(picks) < limit:
        key, j = heap[0]
        if state.is_coarse[j] or -key != state.variance[j]:
            heapq.heappop(heap)
            continue
        in_lens = radius < near[j] <= 2.0 * radius
        if (tolerance is not None and -key <= tolerance) or (in_lens and sum(lens) == budget):
            break
        heapq.heappop(heap)
        popped.append(j)
        if near[j] > radius:
            picks.append(j)
            lens.append(in_lens)
            _, reach, d = oracle.distances_from(j, 2.0 * radius)
            near[reach] = np.minimum(near[reach], d)
    return picks, popped, lens


@dataclass
class InterpolationOperator:
    """Interpolation in canonical form: unit rows on C, Kriging rows on F."""

    n: int
    n_c: int
    coarse_index: np.ndarray  # variable -> coarse column, -1 for fine
    members: np.ndarray  # (n, q_max) stencil rows, padded with -1
    weights: np.ndarray  # (n, q_max), zero-padded

    def to_csr(self) -> sp.csr_matrix:
        coarse = np.flatnonzero(self.coarse_index >= 0)
        # by members, not weights: a weight of exactly 0.0 stays an explicit entry
        fine, slots = np.nonzero(self.members >= 0)
        rows = np.concatenate([coarse, fine])
        cols = self.coarse_index[np.concatenate([coarse, self.members[fine, slots]])]
        vals = np.concatenate([np.ones(coarse.size), self.weights[fine, slots]])
        p = sp.coo_matrix((vals, (rows, cols)), shape=(self.n, self.n_c)).tocsr()
        p.sort_indices()
        return p


def build_interpolation(state: PartitionState) -> InterpolationOperator:
    coarse_index = np.full(state.n, -1, dtype=np.int64)
    coarse_index[np.asarray(state.coarse_order, dtype=np.int64)] = np.arange(state.num_coarse)
    empty = ~state.is_coarse & np.all(state.members < 0, axis=1)
    state.diagnostics.empty_stencils = int(empty.sum())
    return InterpolationOperator(
        n=state.n,
        n_c=state.num_coarse,
        coarse_index=coarse_index,
        members=state.members,
        weights=state.weights,
    )


def coarsen(
    problem,
    cov_source,
    *,
    oracle,
    n_coarse: int | None = None,
    tolerance: float | None = None,
    q_max: int = 4,
) -> tuple[PartitionState, InterpolationOperator]:
    """Run greedy variance coarsening to a coarse-count or variance target.

    Exactly one of n_coarse / tolerance must be given.  The result is the
    one-addition-at-a-time greedy's, with balls of the oracle's radius,
    computed in speculative rounds.
    """
    if (n_coarse is None) == (tolerance is None):
        raise ValueError("specify exactly one of n_coarse or tolerance")
    if n_coarse is not None and not (1 <= n_coarse <= problem.n):
        raise ValueError(f"n_coarse must be in 1..{problem.n}")
    if tolerance is not None and tolerance <= 0.0:
        raise ValueError("tolerance must be positive")

    state = init_variances(problem, cov_source, q_max)
    heap = [(-v, i) for i, v in enumerate(state.variance.tolist())]
    heapq.heapify(heap)
    budget = 0  # lens picks a round may take: one more after a round committed whole
    while True:
        limit = problem.n if n_coarse is None else n_coarse - state.num_coarse
        picks, popped, lens = select_batch(heap, state, oracle, limit, tolerance, budget)
        if not picks:
            break
        before = state.num_coarse
        update_after_add(state, picks, oracle, cov_source, q_max)
        kept = state.num_coarse - before
        budget = budget + 1 if kept == len(picks) else sum(lens[:kept])
        variance = state.variance
        for j in dict.fromkeys(state.last_affected + popped):  # lens variables repeat
            if not state.is_coarse[j]:
                heapq.heappush(heap, (-float(variance[j]), j))
    return state, build_interpolation(state)


def embeddability_failure_fraction(state: PartitionState, oracle) -> float:
    """Fraction of fine variables whose local distance matrix is not embeddable.

    Only fine variables with at least two interpolatory members are
    diagnosed (smaller sets always embed).  The sets of each size are
    looked up as one stack.
    """
    sizes = (state.members >= 0).sum(axis=1)  # 0 on C
    embeds = []
    for q in np.unique(sizes[sizes >= 2]).tolist():
        rows = np.flatnonzero(sizes == q)
        sets = np.column_stack([state.members[rows, :q], rows])
        embeds.append(check_local_embeddability(oracle.pairwise(sets))[0])
    total = sum(ok.size for ok in embeds)
    return sum(int((~ok).sum()) for ok in embeds) / total if total else 0.0


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

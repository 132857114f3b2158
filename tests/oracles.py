"""Reference quantities the tests compare the package against.

Zero-mean (simple) Kriging, one-stencil ordinary Kriging with its Cholesky
factor and solves in Python floats, least-squares
interpolation from raw test vectors, single empirical covariance
entries, truncated shortest-path rows searched on the whole graph,
local distance matrices from full shortest-path rows, and the variogram
cloud from whole fetched rows.  None
of them is used by the coarsening itself, which runs ordinary Kriging
on stacks of local covariances.  A dense Cholesky coarse solve stands
in for the two-grid method's sparse coarse factor, the paper's
one-addition-at-a-time greedy for the coarsening's speculative rounds,
and one stack per interpolatory-set size for the padded stack of mixed
sizes that solves a round's stencils.
The colored sweep, the V(1,1) cycle, the rate estimate and PCG are also
kept in their plain forms (per-color fancy indexing in natural
numbering, P^T rebuilt per cycle, an explicit zero guess, an iterate
carried along, every sparse product through `@`), which the package's
versions must match bit for bit.
"""

import dataclasses
import math
import warnings

import numpy as np
import scipy.linalg
import scipy.sparse.csgraph

from krigamg.coarsen import PartitionState, init_variances, refresh_stencils
from krigamg.covariance import VariogramCloud
from krigamg.errors import NumericalError
from krigamg.kriging import (COND_WARN_THRESHOLD, LocalCovariance, assemble_local_cov,
                             ordinary_kriging, prior_stencil)
from krigamg.metric import adjacency_lengths, nearest_coarse
from krigamg.smoother import greedy_coloring
from krigamg.twogrid import PCGResult, RateEstimate, TwoGridOperator


@dataclasses.dataclass
class Stencil:
    """Weights and variances of one reference predictor."""

    weights: np.ndarray
    variance: float
    simple_variance: float


def local_from_dense(mats, cho=None) -> LocalCovariance:
    """A stack of local covariances (one 2-D matrix is a stack of one) with
    the given lower factors of its coarse blocks, None for a block that is
    not positive definite, by default those of `cholesky_reference`."""
    mats = np.asarray(mats, dtype=float).reshape(-1, *np.shape(mats)[-2:])
    if cho is None:
        cho = [cholesky_reference(mat[:-1, :-1]) for mat in mats]
    q = mats.shape[-1] - 1
    cho = np.array([np.full((q, q), np.nan) if c is None else c for c in cho], dtype=float)
    flags = np.zeros(len(mats), dtype=bool)
    return LocalCovariance(matrix=mats, cho=cho, regularized=flags, ill_conditioned=flags)


def cholesky_reference(block):
    """Lower Cholesky factor of one block in Python floats, None if the block
    is not positive definite: L_ij = (A_ij - L_i0 L_j0 - ... - L_i,j-1 L_j,j-1)
    / L_jj, the products subtracted in index order, and L_jj the square root
    of that remainder at i = j."""
    a = np.asarray(block, dtype=float).tolist()
    q = len(a)
    low = [[0.0] * q for _ in range(q)]
    for j in range(q):
        for i in range(j, q):
            rest = a[i][j]
            for k in range(j):
                rest -= low[i][k] * low[j][k]
            if i > j:
                low[i][j] = rest / low[j][j]
            elif rest > 0.0:
                low[j][j] = math.sqrt(rest)
            else:
                return None
    return np.array(low)


def _cho_solve_reference(low, rhs) -> list[float]:
    """x with L L^T x = rhs in Python floats: forward substitution
    y_i = (b_i - L_i0 y_0 - ... - L_i,i-1 y_i-1) / L_ii, then back substitution
    x_i = (y_i - L_q-1,i x_q-1 - ... - L_i+1,i x_i+1) / L_ii, each product
    subtracted in the order written."""
    x = list(rhs)
    for i in range(len(x)):
        for k in range(i):
            x[i] -= low[i][k] * x[k]
        x[i] /= low[i][i]
    for i in reversed(range(len(x))):
        for k in reversed(range(i + 1, len(x))):
            x[i] -= low[k][i] * x[k]
        x[i] /= low[i][i]
    return x


def _sum_reference(terms) -> float:
    """The terms added one at a time, in index order."""
    total = terms[0]
    for term in terms[1:]:
        total += term
    return total


def _single(i: int, local: LocalCovariance):
    """Matrix and lower factor of a stack of one local covariance."""
    if np.isnan(local.cho[0]).any():
        raise NumericalError(f"local covariance at variable {i} is not positive definite")
    return local.matrix[0], local.cho[0]


def simple_kriging(i: int, local: LocalCovariance) -> Stencil:
    """Zero-mean predictor: w = C_{i,C} C_C^{-1}, var = C_ii - C_{i,C} C_C^{-1} C_{C,i}."""
    matrix, cho = _single(i, local)
    cross = matrix[:-1, -1]
    w = scipy.linalg.cho_solve((cho, True), cross)
    variance = float(matrix[-1, -1]) - float(cross @ w)
    return Stencil(weights=w, variance=variance, simple_variance=variance)


def ordinary_kriging_reference(i: int, members, local: LocalCovariance) -> Stencil:
    """Ordinary Kriging of one stencil in Python floats, term by term.

    `local` is a stack of one.  The stacked
    `krigamg.kriging.ordinary_kriging` must reproduce it bit for bit:
    s_c = C_C^{-1} c and s_1 = C_C^{-1} 1 by `_cho_solve_reference` on the
    lower factor `local.cho[0]`, every sum in index order, the weights in
    closed form w = s_c + ((1 - 1^T s_c) / (1^T s_1)) s_1 and the variance
    with the mean term (1 - 1^T s_c)^2 / (1^T s_1).
    """
    matrix, factor = _single(i, local)
    q = len(members)
    if q == 0:
        raise ValueError("ordinary Kriging needs a nonempty interpolatory set")
    low, cross = factor.tolist(), matrix[:-1, -1].tolist()
    s_c = _cho_solve_reference(low, cross)
    s_1 = _cho_solve_reference(low, [1.0] * q)
    simple_var = float(matrix[-1, -1]) - _sum_reference([c * s for c, s in zip(cross, s_c)])
    gap, denom = 1.0 - _sum_reference(s_c), _sum_reference(s_1)
    if denom <= 0.0 or not math.isfinite(denom):
        raise NumericalError(f"degenerate mean-estimation term at variable {i}")
    w = np.array([sc + gap / denom * s1 for sc, s1 in zip(s_c, s_1)])
    if not np.all(np.isfinite(w)):
        raise NumericalError(f"non-finite Kriging weights at variable {i}")
    return Stencil(weights=w, variance=simple_var + gap * gap / denom,
                   simple_variance=simple_var)


def graph_distances_reference(matrix, sources, radius: float):
    """`krigamg.metric.graph_distances_from` searched on the whole graph: the
    dense Dijkstra rows of 2**18 // n sources at a time, each cut at the
    radius (at inf, every node, unreachable ones at inf) and sorted by
    (source, distance, index)."""
    lengths = adjacency_lengths(matrix)
    sources = np.atleast_1d(sources)
    step = max(1, 2 ** 18 // matrix.shape[0])
    counts, indices, distances = [[0]], [], []
    for lo in range(0, sources.size, step):
        block = scipy.sparse.csgraph.dijkstra(lengths, indices=sources[lo:lo + step],
                                              limit=radius)
        row, col = np.nonzero(block <= radius)
        order = np.lexsort((col, block[row, col], row))
        counts.append(np.bincount(row, minlength=block.shape[0]))
        indices.append(col[order].astype(np.int32))
        distances.append(block[row[order], col[order]])
    return np.cumsum(np.concatenate(counts)), np.concatenate(indices), np.concatenate(distances)


def variogram_cloud_reference(vectors, oracle, max_distance, pair_budget=None, seed=0):
    """`krigamg.covariance.build_variogram_cloud` from whole rows fetched with
    `distances_from`: every variable's (owner, member, distance) within
    max_distance, the pairs owner < member kept in row order, then a uniform
    subset of pair_budget drawn by seed."""
    src, dst, dist = oracle.distances_from(np.arange(vectors.shape[0]), max_distance)
    later = dst > src
    src, dst, dist = src[later], dst[later], dist[later]
    if pair_budget is not None and src.size > pair_budget:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(src.size, size=pair_budget, replace=False))
        src, dst, dist = src[keep], dst[keep], dist[keep]
    diffs = vectors[src] - vectors[dst]
    return VariogramCloud(distances=dist, sq_diffs=diffs * diffs)


def pairwise_reference(matrix, truncation_radius: float, nodes) -> np.ndarray:
    """`GraphDistanceOracle.pairwise` from a dense matrix of full
    `graph_distances_reference` rows: the shorter direction of a pair serves
    both, and a pair more than twice the truncation radius apart reads inf."""
    n = matrix.shape[0]
    indptr, indices, distances = graph_distances_reference(matrix, np.arange(n), np.inf)
    full = np.full((n, n), np.inf)
    full[np.repeat(np.arange(n), np.diff(indptr)), indices] = distances
    full = np.minimum(full, full.T)
    full[full > 2.0 * truncation_radius] = np.inf
    nodes = np.asarray(nodes)
    return full[nodes[..., :, None], nodes[..., None, :]]


def empirical_cov_entry(vectors: np.ndarray, i: int, j: int) -> float:
    """Empirical covariance of variables i and j across the K test vectors,
    the raw second moment (1/K) sum_k v_ik v_jk."""
    return float(vectors[i] @ vectors[j]) / vectors.shape[1]


def ls_pairwise_strength(vectors: np.ndarray, i: int, j: int) -> tuple[float, float]:
    """Scalar least-squares coupling of variables i and j from raw test vectors.

    Returns (p, sigma2) where p minimizes ||V_i - p V_j||^2 and
    sigma2 = 1 - corr(V_i, V_j)^2 is the relative residual.
    """
    vi, vj = vectors[i], vectors[j]
    nj2 = float(vj @ vj)
    if nj2 == 0.0:
        raise ValueError(f"test-vector column of variable {j} has zero norm")
    p = float(vi @ vj) / nj2
    ni2 = float(vi @ vi)
    if ni2 == 0.0:
        return p, 1.0
    x = float(vi @ vj) / np.sqrt(ni2 * nj2)
    return p, 1.0 - x * x


def ls_multi_interpolation(vectors: np.ndarray, i: int, members) -> tuple[np.ndarray, float]:
    """Least-squares weights onto several variables, plus the Schur residual.

    Uses the zero-mean empirical covariance C = V V^T / K; the weights
    are C_{i,C} C_C^{-1} and the residual is the Schur complement
    C_ii - C_{i,C} C_C^{-1} C_{C,i}.
    """
    members = list(members)
    K = vectors.shape[1]
    rows = vectors[members]
    c_cc = (rows @ rows.T) / K
    c_ic = (rows @ vectors[i]) / K
    try:
        sol = scipy.linalg.solve(c_cc, c_ic, assume_a="sym")
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(
            f"singular Gram matrix for interpolatory set of variable {i}"
        ) from exc
    if not np.all(np.isfinite(sol)):
        raise NumericalError(f"singular Gram matrix for interpolatory set of variable {i}")
    c_ii = float(vectors[i] @ vectors[i]) / K
    residual = c_ii - float(c_ic @ sol)
    return sol, residual


class DenseCoarseFactor:
    """Dense Cholesky of A_c behind the `solve` method of a SuperLU factor."""

    def __init__(self, a_c):
        self.cho = scipy.linalg.cho_factor(a_c.toarray(), lower=True)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return scipy.linalg.cho_solve(self.cho, rhs)


def dense_coarse_twogrid(op: TwoGridOperator) -> TwoGridOperator:
    """The same two-grid operator with its coarse solve done by dense Cholesky."""
    return dataclasses.replace(op, coarse_factor=DenseCoarseFactor(op.a_c))


def sequential_coarsening(problem, cov_source, oracle, q_max: int, *,
                          n_coarse: int | None = None,
                          tolerance: float | None = None) -> PartitionState:
    """The greedy one addition at a time: the fine variable of largest
    variance, ties to the smallest index, moves into C and the stencils of
    the fine variables within the truncation radius of it are refreshed,
    until n_coarse variables are coarse or no fine variance exceeds the
    tolerance.  A refreshed variance is the simple-Kriging one clamped at
    zero (-0.0 kept); each ill-conditioned block warns once, in ascending
    variable order."""
    state = init_variances(problem, cov_source, q_max)
    while True:
        fine = np.flatnonzero(~state.is_coarse)
        if n_coarse is not None and state.num_coarse >= n_coarse:
            return state
        if tolerance is not None and (fine.size == 0 or state.variance[fine].max() <= tolerance):
            return state
        add = int(fine[np.argmax(state.variance[fine])])
        state.is_coarse[add] = True
        state.coarse_order.append(add)
        state.members[add] = -1
        state.variance[add] = state.weights[add] = 0.0
        ball = oracle.distances_from([add])[1]
        ball = np.unique(ball[~state.is_coarse[ball]])
        member_sets = nearest_coarse(ball, state.is_coarse.astype(np.int64),
                                     np.ones(ball.size, dtype=np.int64), oracle, q_max)
        members, weights, simple, events = refresh_stencils(ball, member_sets, cov_source)
        state.members[ball], state.weights[ball] = members, weights
        state.variance[ball] = np.where(0.0 > simple, 0.0, simple)
        for name, count in zip(("negative_variance_events", "regularized_events",
                                "qmax_reductions"), events[:, :3].sum(axis=0).tolist()):
            setattr(state.diagnostics, name, getattr(state.diagnostics, name) + count)
        for j in np.repeat(ball, events[:, 3]).tolist():
            warnings.warn(f"local covariance at variable {j} has condition number above "
                          f"{COND_WARN_THRESHOLD:.0e}")


def refresh_stencils_by_size(fine, member_sets, cov_source):
    """`krigamg.coarsen.refresh_stencils` with one stack per interpolatory-set
    size, none padded: the sets of each size are solved as one stack, from
    the largest size down, and a set that cannot be solved drops its
    farthest member and joins the stack of its new size."""
    fine = np.asarray(fine, dtype=np.int64)
    members = np.array(member_sets, dtype=np.int64)
    weights = np.zeros(members.shape)
    simple = np.zeros(len(fine))
    events = np.zeros((len(fine), 4), dtype=np.int64)
    sizes = (members >= 0).sum(axis=1)
    for q in range(members.shape[1], 0, -1):
        ks = np.flatnonzero(sizes == q)
        if ks.size == 0:
            continue
        local = assemble_local_cov(fine[ks], members[ks, :q], cov_source)
        events[ks, 1] += local.regularized
        events[ks, 3] += local.ill_conditioned
        w, _, simple_var, solved = ordinary_kriging(members[ks, :q], local)
        done, failed = ks[solved], ks[~solved]
        weights[done, :q] = w[solved]
        simple[done] = simple_var[solved]
        events[done, 0] += simple_var[solved] < 0.0
        members[failed, q - 1] = -1
        sizes[failed] -= 1
        events[failed, 2] += 1
    empty = np.flatnonzero(sizes == 0)
    simple[empty] = prior_stencil(fine[empty], cov_source)
    return members, weights, simple, events


def colored_sweep_reference(matrix, color_of, x, b, reverse=False) -> np.ndarray:
    """One colored Gauss-Seidel sweep on a copy of x, each color gathered
    and scattered by fancy indexing in variable order."""
    a = matrix.tocsr()
    diag = a.diagonal()
    colors = [np.flatnonzero(color_of == c) for c in range(color_of.max() + 1)]
    groups = [(idx, a[idx], diag[idx]) for idx in colors]
    x = np.array(x, dtype=float, copy=True)
    for idx, rows, d in (groups[::-1] if reverse else groups):
        resid = b[idx] - rows @ x
        if x.ndim == 1:
            x[idx] += resid / d
        else:
            x[idx] += resid / d[:, None]
    return x


def vcycle_reference(op: TwoGridOperator, b, x0, post_reverse=False) -> np.ndarray:
    """V(1,1) cycle with the restriction applied as P^T of the stored P, on the
    greedy coloring of A, which a run's sweeper follows."""
    coloring = greedy_coloring(op.a)
    x = colored_sweep_reference(op.a, coloring, x0, b)
    r = b - op.a @ x
    x = x + op.p @ op.coarse_factor.solve(op.p.T @ r)
    return colored_sweep_reference(op.a, coloring, x, b, reverse=post_reverse)


def rate_reference(op: TwoGridOperator, seed=0, max_cycles=200, stall_tol=1e-3) -> RateEstimate:
    """`krigamg.twogrid.estimate_asymptotic_rate`'s power iteration driven by
    `vcycle_reference`, with the A-norm through `op.a @ v`."""
    e = np.random.default_rng(seed).standard_normal(op.n)
    zero = np.zeros(op.n)

    def a_norm(v):
        return float(np.sqrt(max(v @ (op.a @ v), 0.0)))

    e /= a_norm(e)
    rho = 0.0
    prev = None
    over_one = 0
    for cycles in range(1, max_cycles + 1):
        e_next = vcycle_reference(op, zero, e)
        num = a_norm(e_next)
        if num == 0.0:
            rho = 0.0
            break
        rho = num
        e = e_next / num
        over_one = over_one + 1 if rho > 1.0 else 0
        if prev is not None and abs(rho - prev) < stall_tol:
            break
        prev = rho
    return RateEstimate(rho=rho, cycles=cycles, diverged=over_one >= 5)


def pcg_reference(op: TwoGridOperator, b, reduction=1e-8, max_it=500) -> PCGResult:
    """Preconditioned CG that carries its iterate, from a zero start."""
    a = op.a
    x = np.zeros(op.n)
    r = b - a @ x
    r0_norm = float(np.linalg.norm(r))
    residuals = [r0_norm]
    if r0_norm == 0.0:
        return PCGResult(iterations=0, converged=True, residuals=residuals)

    def precondition(res):
        return vcycle_reference(op, res, np.zeros(op.n), post_reverse=True)

    z = precondition(r)
    rz = float(r @ z)
    p = z.copy()
    for k in range(1, max_it + 1):
        ap = a @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rnorm = float(np.linalg.norm(r))
        residuals.append(rnorm)
        if rnorm <= reduction * r0_norm:
            return PCGResult(iterations=k, converged=True, residuals=residuals)
        z = precondition(r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return PCGResult(iterations=max_it, converged=False, residuals=residuals)

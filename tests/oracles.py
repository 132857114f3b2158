"""Reference quantities the tests compare the package against.

Zero-mean (simple) Kriging, one-stencil ordinary Kriging with its Cholesky
factor and solves in Python floats, least-squares
interpolation from raw test vectors, single empirical covariance
entries and local distance matrices from full shortest-path rows.  None
of them is used by the coarsening itself, which runs ordinary Kriging
on stacks of local covariances.  A dense Cholesky coarse solve stands
in for the two-grid method's sparse coarse factor, and the paper's
one-addition-at-a-time greedy for the coarsening's speculative rounds.
"""

import dataclasses
import math

import numpy as np
import scipy.linalg

from krigamg.coarsen import PartitionState, init_variances, select_next, update_after_add
from krigamg.errors import NumericalError
from krigamg.kriging import LocalCovariance
from krigamg.metric import graph_distances_from
from krigamg.twogrid import TwoGridOperator


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


def pairwise_reference(matrix, truncation_radius: float, nodes) -> np.ndarray:
    """`GraphDistanceOracle.pairwise` from a dense matrix of full
    `graph_distances_from` rows: the shorter direction of a pair serves
    both, and a pair more than twice the truncation radius apart reads inf."""
    n = matrix.shape[0]
    indptr, indices, distances = graph_distances_from(matrix, np.arange(n), np.inf)
    full = np.full((n, n), np.inf)
    full[np.repeat(np.arange(n), np.diff(indptr)), indices] = distances
    full = np.minimum(full, full.T)
    full[full > 2.0 * truncation_radius] = np.inf
    nodes = np.asarray(nodes)
    return full[nodes[..., :, None], nodes[..., None, :]]


def empirical_cov_entry(vectors: np.ndarray, i: int, j: int, mean_mode: str = "zero") -> float:
    """Empirical covariance of variables i and j across the K test vectors.

    mean_mode="estimated" subtracts the per-variable mean over columns;
    mean_mode="zero" uses the raw second moment.
    """
    vi, vj = vectors[i], vectors[j]
    K = vectors.shape[1]
    if mean_mode == "estimated":
        vi = vi - vi.mean()
        vj = vj - vj.mean()
    elif mean_mode != "zero":
        raise ValueError(f"unknown mean_mode {mean_mode!r}")
    return float(vi @ vj) / K


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
    variance (`select_next`) moves into C and its ball is refreshed
    (`update_after_add` of that one variable), until n_coarse variables are
    coarse or no fine variance exceeds the tolerance."""
    state = init_variances(problem, cov_source, q_max)
    while True:
        fine = np.flatnonzero(~state.is_coarse)
        if n_coarse is not None and state.num_coarse >= n_coarse:
            return state
        if tolerance is not None and (fine.size == 0 or state.variance[fine].max() <= tolerance):
            return state
        update_after_add(state, [select_next(state)], oracle, cov_source, q_max)

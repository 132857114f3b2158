"""Reference quantities the tests compare the package against.

Zero-mean (simple) Kriging, one-stencil ordinary Kriging, least-squares
interpolation from raw test vectors and single empirical covariance
entries.  None of them is used by the coarsening itself, which runs
ordinary Kriging on stacks of local covariances.  A dense Cholesky
coarse solve stands in for the two-grid method's sparse coarse factor.
"""

import dataclasses

import numpy as np
import scipy.linalg

from krigamg.errors import NumericalError
from krigamg.kriging import KrigingStencil, LocalCovariance
from krigamg.twogrid import TwoGridOperator


def local_from_dense(mats, cho=None) -> LocalCovariance:
    """A stack of local covariances (one 2-D matrix is a stack of one) with
    the given lower factors of its coarse blocks, by default scipy's
    Cholesky of each block."""
    mats = np.asarray(mats, dtype=float).reshape(-1, *np.shape(mats)[-2:])
    if cho is None:
        cho = [scipy.linalg.cholesky(mat[:-1, :-1], lower=True) for mat in mats]
    flags = np.zeros(len(mats), dtype=bool)
    return LocalCovariance(matrix=mats, cho=list(cho), regularized=flags, ill_conditioned=flags)


def _single(i: int, local: LocalCovariance):
    """Matrix and lower factor of a stack of one local covariance."""
    if local.cho[0] is None:
        raise NumericalError(f"local covariance at variable {i} is not positive definite")
    return local.matrix[0], local.cho[0]


def simple_kriging(i: int, members, local: LocalCovariance) -> KrigingStencil:
    """Zero-mean predictor: w = C_{i,C} C_C^{-1}, var = C_ii - C_{i,C} C_C^{-1} C_{C,i}."""
    matrix, cho = _single(i, local)
    cross = matrix[:-1, -1]
    w = scipy.linalg.cho_solve((cho, True), cross)
    variance = float(matrix[-1, -1]) - float(cross @ w)
    return KrigingStencil(i=i, members=list(members), weights=w, variance=variance,
                          simple_variance=variance)


def ordinary_kriging_reference(i: int, members, local: LocalCovariance) -> KrigingStencil:
    """Ordinary Kriging of one stencil, one scipy call per step.

    `local` is a stack of one.  The stacked
    `krigamg.kriging.ordinary_kriging` must reproduce it bit for bit:
    s_c = C_C^{-1} c and s_1 = C_C^{-1} 1 through `cho_solve` on the lower
    factor `local.cho[0]`, the weights in closed form
    w = s_c + (1 - 1^T s_c) / (1^T s_1) s_1, the variance with the mean
    term 1 - c^T s_1, and the products as 1-D dots of Python floats.
    """
    matrix, factor = _single(i, local)
    q = len(members)
    if q == 0:
        raise ValueError("ordinary Kriging needs a nonempty interpolatory set")
    cross = matrix[:-1, -1]
    cho = (factor, True)
    s_c = scipy.linalg.cho_solve(cho, cross)
    s_1 = scipy.linalg.cho_solve(cho, np.ones(q))
    simple_var = float(matrix[-1, -1]) - float(cross @ s_c)
    denom = float(np.ones(q) @ s_1)
    if denom <= 0.0 or not np.isfinite(denom):
        raise NumericalError(f"degenerate mean-estimation term at variable {i}")
    w = s_c + (1.0 - float(np.ones(q) @ s_c)) / denom * s_1
    if not np.all(np.isfinite(w)):
        raise NumericalError(f"non-finite Kriging weights at variable {i}")
    return KrigingStencil(
        i=i,
        members=list(members),
        weights=w,
        variance=simple_var + (1.0 - float(cross @ s_1)) ** 2 / denom,
        simple_variance=simple_var,
    )


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

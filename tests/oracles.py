"""Reference quantities the tests compare the package against.

Zero-mean (simple) Kriging, least-squares interpolation from raw test
vectors and single empirical covariance entries.  None of them is used
by the coarsening itself, which runs ordinary Kriging on a covariance
source.
"""

import numpy as np
import scipy.linalg

from krigamg.errors import NumericalError
from krigamg.kriging import KrigingStencil, LocalCovariance


def simple_kriging(i: int, members, local: LocalCovariance) -> KrigingStencil:
    """Zero-mean predictor: w = C_{i,C} C_C^{-1}, var = C_ii - C_{i,C} C_C^{-1} C_{C,i}."""
    if not local.positive_definite:
        raise NumericalError(f"local covariance at variable {i} is not positive definite")
    w = scipy.linalg.cho_solve(local.cho, local.cross)
    variance = local.fine_variance - float(local.cross @ w)
    return KrigingStencil(i=i, members=list(members), weights=w, variance=variance,
                          simple_variance=variance)


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

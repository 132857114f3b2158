"""Local ordinary Kriging predictor.

A stencil predicts the value at one fine variable i from the values at a
small interpolatory set C_i of coarse variables.  Ordinary Kriging
estimates a constant mean from the coarse data, which constrains the
weights to sum to one and makes the interpolation reproduce constants
exactly.

The weights come from the bordered saddle-point system

    [C_C  1] [w]   [c]
    [1^T  0] [l] = [1]

which is numerically preferable to the closed-form correction of the
least-squares weights.  The predictive variance decomposes as

    var_ok = var_simple + (1 - c^T C_C^{-1} 1)^2 / (1^T C_C^{-1} 1)

with var_simple = C_ii - c^T C_C^{-1} c, the variance of the zero-mean
(simple Kriging) predictor; the correction term is the price of the
estimated mean and is always nonnegative for a positive definite local
covariance.  Under non-embeddable graph metrics the computed variance
can still go negative; callers clamp it at zero for selection and count
the occurrences.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NumericalError

__all__ = [
    "KrigingStencil",
    "LocalCovariance",
    "assemble_local_cov",
    "ordinary_kriging",
    "prior_stencil",
]

COND_WARN_THRESHOLD = 1e12
EPSILON_SCALE = 1e-8  # empirical regularization, relative to the local diagonal


@dataclass
class KrigingStencil:
    """Interpolation weights and predictive variance for one fine variable."""

    i: int
    members: list[int]
    weights: np.ndarray
    variance: float
    simple_variance: float = 0.0

    @property
    def selection_variance(self) -> float:
        """Variance driving coarse-point selection: the conditional (known-mean)
        component, clamped at zero.

        The mean-estimation correction of the BLUP variance exceeds the
        prior near the localization edge, which would steer selection to
        ball peripheries instead of the least-informed points; selection
        therefore ranks by the simple-Kriging component while the
        interpolation itself stays BLUP.
        """
        return max(self.simple_variance, 0.0)


@dataclass
class LocalCovariance:
    """Dense covariance over C_i + {i}; the fine variable is the LAST index."""

    matrix: np.ndarray
    regularized: bool = False
    cho: tuple | None = field(default=None, repr=False)  # factor of the C_i block

    @property
    def positive_definite(self) -> bool:
        return self.cho is not None

    @property
    def coarse_block(self) -> np.ndarray:
        return self.matrix[:-1, :-1]

    @property
    def cross(self) -> np.ndarray:
        return self.matrix[:-1, -1]

    @property
    def fine_variance(self) -> float:
        return float(self.matrix[-1, -1])


def assemble_local_cov(i: int, members, cov_source) -> LocalCovariance:
    """Build the local covariance over members + [i] from a covariance source.

    An empirical source that fails Cholesky on the coarse block is
    regularized once with eps*I, eps = EPSILON_SCALE * max local
    diagonal; a parametric source that fails is flagged not positive
    definite so the caller can shrink the interpolatory set.
    """
    if len(members) == 0:
        raise ValueError("interpolatory set must be nonempty")
    if i in members:
        raise ValueError(f"variable {i} cannot interpolate from itself")
    nodes = list(members) + [i]
    mat = np.asarray(cov_source.local_matrix(nodes), dtype=float)
    mat = 0.5 * (mat + mat.T)
    regularized = False
    cho = _try_cholesky(mat[:-1, :-1])
    if cho is None and cov_source.source == "empirical":
        eps = EPSILON_SCALE * max(mat.diagonal().max(), 1.0e-300)
        mat = mat + eps * np.eye(mat.shape[0])
        regularized = True
        cho = _try_cholesky(mat[:-1, :-1])
    if cho is not None:
        diag = np.abs(np.diag(cho[0]))
        if diag.min() > 0.0 and (diag.max() / diag.min()) ** 2 > COND_WARN_THRESHOLD:
            warnings.warn(
                f"local covariance at variable {i} has condition number above "
                f"{COND_WARN_THRESHOLD:.0e}",
                stacklevel=2,
            )
    return LocalCovariance(matrix=mat, regularized=regularized, cho=cho)


def _try_cholesky(mat: np.ndarray):
    try:
        return scipy.linalg.cho_factor(mat, lower=True)
    except scipy.linalg.LinAlgError:
        return None


def ordinary_kriging(i: int, members, local: LocalCovariance) -> KrigingStencil:
    """Constant-mean BLUP predictor with weights constrained to sum to one."""
    if not local.positive_definite:
        raise NumericalError(f"local covariance at variable {i} is not positive definite")
    q = len(members)
    if q == 0:
        raise ValueError("ordinary Kriging needs a nonempty interpolatory set")
    bordered = np.zeros((q + 1, q + 1))
    bordered[:q, :q] = local.coarse_block
    bordered[:q, q] = 1.0
    bordered[q, :q] = 1.0
    rhs = np.concatenate([local.cross, [1.0]])
    try:
        sol = scipy.linalg.solve(bordered, rhs)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"singular bordered Kriging system at variable {i}") from exc
    if not np.all(np.isfinite(sol)):
        raise NumericalError(f"singular bordered Kriging system at variable {i}")
    w = sol[:q]

    s_c = scipy.linalg.cho_solve(local.cho, local.cross)
    s_1 = scipy.linalg.cho_solve(local.cho, np.ones(q))
    simple_var = local.fine_variance - float(local.cross @ s_c)
    denom = float(np.ones(q) @ s_1)
    if denom <= 0.0 or not np.isfinite(denom):
        raise NumericalError(f"degenerate mean-estimation term at variable {i}")
    correction = (1.0 - float(local.cross @ s_1)) ** 2 / denom
    return KrigingStencil(
        i=i,
        members=list(members),
        weights=w,
        variance=simple_var + correction,
        simple_variance=simple_var,
    )


def prior_stencil(i: int, prior_variance: float) -> KrigingStencil:
    """Stencil of a fine variable with no coarse point in reach: no data, prior variance."""
    return KrigingStencil(
        i=i,
        members=[],
        weights=np.empty(0),
        variance=prior_variance,
        simple_variance=prior_variance,
    )

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

Both steps also take a stack of m fine variables with q members each:
one (m, q+1, q+1) array of local covariances, one batched bordered
solve, stacked products.  Each block runs through the LAPACK routines of
a single stencil, so its weights and variances match to the bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf as _potrf, dpotrs as _potrs

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
    """Dense covariance over C_i + {i}, or a stack of them; the fine variable is the LAST index."""

    matrix: np.ndarray  # (q+1, q+1) or (m, q+1, q+1)
    regularized: bool = False
    cho: np.ndarray | None = field(default=None, repr=False)  # lower factors of the C_i blocks

    @property
    def positive_definite(self) -> bool:
        return self.cho is not None


def assemble_local_cov(i, members, cov_source) -> LocalCovariance:
    """Build the local covariance over members + [i] from a covariance source.

    i is a variable with q members, or an (m,) stack with (m, q) members.
    An empirical source that fails Cholesky on the coarse block is
    regularized once with eps*I, eps = EPSILON_SCALE * max local diagonal;
    a parametric source that fails is flagged not positive definite so the
    caller can shrink the interpolatory set.  An ill-conditioned block
    warns.  A stack of more than one block is all or nothing: either
    failure leaves it not positive definite, for the caller to split.
    """
    i, members = np.asarray(i), np.asarray(members, dtype=np.int64)
    if members.shape[-1] == 0:
        raise ValueError("interpolatory set must be nonempty")
    if np.any(members == i[..., None]):
        raise ValueError(f"variable {i} cannot interpolate from itself")
    mat = np.asarray(cov_source.local_matrix(np.append(members, i[..., None], axis=-1)),
                     dtype=float)
    mat = 0.5 * (mat + np.swapaxes(mat, -1, -2))
    regularized = False
    cho = _cholesky(mat[..., :-1, :-1])
    if cho is None and i.size == 1 and cov_source.source == "empirical":
        eps = EPSILON_SCALE * max(mat.diagonal(axis1=-2, axis2=-1).max(), 1.0e-300)
        mat = mat + eps * np.eye(mat.shape[-1])
        regularized = True
        cho = _cholesky(mat[..., :-1, :-1])
    if cho is not None:
        diag = np.abs(np.diagonal(cho, axis1=-2, axis2=-1))
        lo, hi = diag.min(axis=-1), diag.max(axis=-1)
        # float_power: libm pow, as float ** 2 computes it; array ** 2 rounds differently
        if np.any((lo > 0.0) & (np.float_power(hi / lo, 2) > COND_WARN_THRESHOLD)):
            if i.size > 1:
                return LocalCovariance(matrix=mat)
            warnings.warn(
                f"local covariance at variable {i.item()} has condition number above "
                f"{COND_WARN_THRESHOLD:.0e}",
                stacklevel=2,
            )
    return LocalCovariance(matrix=mat, regularized=regularized, cho=cho)


def _cholesky(blocks: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factors of a block or a stack, None if any block fails.

    potrf runs block by block, as in cho_factor: numpy's stacked cholesky
    links another LAPACK, whose factors differ in the last bit from q = 5.
    """
    flat = np.asarray_chkfinite(blocks).reshape(-1, *blocks.shape[-2:])
    factors = [_potrf(block, lower=1, clean=1) for block in flat]
    if any(info for _, info in factors):
        return None
    return np.array([c for c, _ in factors]).reshape(blocks.shape)


def ordinary_kriging(i, members, local: LocalCovariance):
    """Constant-mean BLUP predictor with weights constrained to sum to one.

    One stencil for a variable, a list of stencils for a stack.
    """
    if not local.positive_definite:
        raise NumericalError(f"local covariance at variable {i} is not positive definite")
    members = np.asarray(members, dtype=np.int64)
    q = members.shape[-1]
    if q == 0:
        raise ValueError("ordinary Kriging needs a nonempty interpolatory set")
    mat = local.matrix.reshape(-1, q + 1, q + 1)
    m = mat.shape[0]
    bordered = np.ones((m, q + 1, q + 1))
    bordered[:, :q, :q] = mat[:, :q, :q]
    bordered[:, q, q] = 0.0
    cross = mat[:, :q, q]
    rhs = np.ones((m, q + 1, 2))  # column 0: [c; 1] for the bordered system
    rhs[:, :q, 0] = cross
    try:
        sol = scipy.linalg.solve(bordered, rhs[..., :1])[..., 0]
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"singular bordered Kriging system at variable {i}") from exc
    if not np.all(np.isfinite(sol)):
        raise NumericalError(f"singular bordered Kriging system at variable {i}")

    # C_C^{-1} [c, 1] from rows :q, by potrs on each factor as cho_solve computes it
    s_c, s_1 = np.array([_potrs(factor, b, lower=1)[0].T for factor, b in
                         zip(local.cho.reshape(m, q, q), rhs[:, :q])]).transpose(1, 0, 2)[..., None]
    row = cross[:, None, :]
    simple_var = mat[:, q, q] - (row @ s_c)[:, 0, 0]
    denom = (np.ones((m, 1, q)) @ s_1)[:, 0, 0]
    if np.any(denom <= 0.0) or not np.all(np.isfinite(denom)):
        raise NumericalError(f"degenerate mean-estimation term at variable {i}")
    variance = simple_var + np.float_power(1.0 - (row @ s_1)[:, 0, 0], 2) / denom
    stencils = list(map(KrigingStencil, np.atleast_1d(i).tolist(), members.reshape(m, q).tolist(),
                        sol[:, :q], variance.tolist(), simple_var.tolist()))
    return stencils if np.ndim(i) else stencils[0]


def prior_stencil(i: int, prior_variance: float) -> KrigingStencil:
    """Stencil of a fine variable with no coarse point in reach: no data, prior variance."""
    return KrigingStencil(
        i=i,
        members=[],
        weights=np.empty(0),
        variance=prior_variance,
        simple_variance=prior_variance,
    )

"""Local ordinary Kriging predictor.

A stencil predicts the value at one fine variable i from the values at a
small interpolatory set C_i of coarse variables.  Ordinary Kriging
estimates a constant mean from the coarse data, which constrains the
weights to sum to one and makes the interpolation reproduce constants
exactly.

The predictor follows from the Cholesky factor of the coarse block C_C
alone, through s_c = C_C^{-1} c and s_1 = C_C^{-1} 1.  With
denom = 1^T s_1 the weights are

    w = s_c + ((1 - 1^T s_c) / denom) s_1

(Cressie, Statistics for Spatial Data, 1993, sec. 3.2), the least-squares
weights corrected to sum to one.  1^T s_c equals c^T s_1 in exact
arithmetic, but only 1^T s_c makes the computed weights sum to one to
rounding when C_C is nearly singular, as the rank-one blocks of a single
test vector are.  The predictive variance decomposes as

    var_ok = var_simple + (1 - c^T s_1)^2 / denom

with var_simple = C_ii - c^T s_c, the variance of the zero-mean (simple
Kriging) predictor; the correction term is the price of the estimated
mean and is always nonnegative for a positive definite local covariance.
Under non-embeddable graph metrics the computed variance can still go
negative; callers clamp it at zero for selection and count the
occurrences.

Both steps work on a stack of m fine variables with q members each: one
(m, q+1, q+1) array of local covariances and stacked products.  Each
block is factored, regularized and solved on its own through the LAPACK
routines of a single stencil, one factorization and one solve with two
right-hand sides, so its weights and variances match to the bit whatever
stack it is in, and a block that cannot be solved yields no stencil
without failing the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf as _potrf, dpotrs as _potrs

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
    """Dense covariances over C_i + {i} of a stack of m fine variables.

    The fine variable is the LAST index of each block.  `cho` holds the
    lower Cholesky factor of each coarse block C_i, None where the block
    is not positive definite.
    """

    matrix: np.ndarray  # (m, q+1, q+1)
    cho: list[np.ndarray | None] = field(repr=False)
    regularized: np.ndarray  # (m,) bool: the block carries eps*I
    ill_conditioned: np.ndarray  # (m,) bool: condition number above COND_WARN_THRESHOLD


def assemble_local_cov(i, members, cov_source) -> LocalCovariance:
    """Build the local covariances over members + [i] from a covariance source.

    i is an (m,) stack of variables with (m, q) members.  Each coarse
    block is factored on its own.  An empirical block that fails Cholesky
    is regularized once with eps*I, eps = EPSILON_SCALE * its largest
    diagonal entry.  A block that still fails, or a failing parametric
    one, is left without a factor, for the caller to shrink its
    interpolatory set.  Ill-conditioned blocks are marked, for the caller
    to warn about.
    """
    i, members = np.asarray(i, dtype=np.int64), np.asarray(members, dtype=np.int64)
    if members.shape[-1] == 0:
        raise ValueError("interpolatory set must be nonempty")
    if np.any(members == i[:, None]):
        raise ValueError("a variable cannot interpolate from itself")
    mat = cov_source.local_matrix(np.append(members, i[:, None], axis=1))
    mat = 0.5 * (mat + np.swapaxes(mat, -1, -2))
    cho = [_cholesky(block) for block in np.asarray_chkfinite(mat[:, :-1, :-1])]
    regularized = np.array([c is None for c in cho]) & (cov_source.source == "empirical")
    for k in np.flatnonzero(regularized):
        mat[k] += EPSILON_SCALE * max(mat[k].diagonal().max(), 1.0e-300) * np.eye(len(mat[k]))
        cho[k] = _cholesky(mat[k, :-1, :-1])
    # condition estimate (max/min diagonal of the factor)^2; a block without a factor reads 1
    diag = np.abs([np.ones(members.shape[1]) if c is None else c.diagonal() for c in cho])
    # float_power: libm pow, as float ** 2 computes it; array ** 2 rounds differently
    ill_conditioned = np.float_power(diag.max(axis=1) / diag.min(axis=1), 2) > COND_WARN_THRESHOLD
    return LocalCovariance(matrix=mat, cho=cho, regularized=regularized,
                           ill_conditioned=ill_conditioned)


def _cholesky(block: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of one block, None if it is not positive definite.

    potrf runs block by block, as in cho_factor: numpy's stacked cholesky
    links another LAPACK, whose factors differ in the last bit from q = 5.
    """
    factor, info = _potrf(block, lower=1, clean=1)
    return None if info else factor


def ordinary_kriging(i, members, local: LocalCovariance) -> list[KrigingStencil | None]:
    """Constant-mean BLUP predictors with weights constrained to sum to one.

    One stencil per block of the stack; None for a block that is not
    positive definite, whose mean-estimation term 1^T C_C^{-1} 1 is not
    positive and finite, or whose weights are not finite.
    """
    members = np.asarray(members, dtype=np.int64)
    m, q = members.shape
    if q == 0:
        raise ValueError("ordinary Kriging needs a nonempty interpolatory set")
    # a block without a factor solves the identity in its place and yields no stencil
    factored = np.array([factor is not None for factor in local.cho])
    mat = np.where(factored[:, None, None], local.matrix, np.eye(q + 1))
    cross = mat[:, :q, q]
    rhs = np.ones((m, q, 2))  # columns [c, 1]
    rhs[..., 0] = cross
    # C_C^{-1} [c, 1], by potrs on each factor as cho_solve computes it
    s_c, s_1 = np.array([_potrs(np.eye(q) if factor is None else factor, b, lower=1)[0].T
                         for factor, b in zip(local.cho, rhs)]).transpose(1, 0, 2)[..., None]
    row = cross[:, None, :]
    simple_var = mat[:, q, q] - (row @ s_c)[:, 0, 0]
    ones = np.ones((m, 1, q))
    total_c, denom = (ones @ s_c)[:, 0, 0], (ones @ s_1)[:, 0, 0]
    # an unsolvable mean term divides by 1, so that it raises no division warning
    usable = factored & (denom > 0.0) & np.isfinite(denom)
    denom = np.where(usable, denom, 1.0)
    weights = s_c[..., 0] + ((1.0 - total_c) / denom)[:, None] * s_1[..., 0]
    variance = simple_var + np.float_power(1.0 - (row @ s_1)[:, 0, 0], 2) / denom
    solved = usable & np.isfinite(weights).all(axis=1)
    stencils = map(KrigingStencil, np.asarray(i).tolist(), members.tolist(), weights,
                   variance.tolist(), simple_var.tolist())
    return [stencil if good else None for stencil, good in zip(stencils, solved)]


def prior_stencil(i: int, prior_variance: float) -> KrigingStencil:
    """Stencil of a fine variable with no coarse point in reach: no data, prior variance."""
    return KrigingStencil(i, [], np.empty(0), prior_variance, prior_variance)

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

    var_ok = var_simple + (1 - 1^T s_c)^2 / denom

with var_simple = C_ii - c^T s_c, the variance of the zero-mean (simple
Kriging) predictor; the correction term is the price of the estimated
mean and is nonnegative whenever denom > 0, in floating point too.
Under non-embeddable graph metrics the computed variance can still go
negative; callers clamp it at zero for selection and count the
occurrences.

Both steps work on a stack of m fine variables whose interpolatory sets
are padded with -1 to the widest, q members: one (m, q+1, q+1) array of
local covariances gives an (m, q) array of weights and (m,) arrays of
variances.  Every operation is elementwise over the stack (a
column-by-column Cholesky, one forward and one back substitution for
[c, 1], sums term by term in index order), so a stencil's bits depend
neither on its stack, nor on the stack's width, nor on the BLAS kernel,
and a block that is not positive definite carries nan to an unsolved
result.  Padding keeps the bits because its rows and columns of the
local matrix are those of the identity, with a right-hand side of 0
there: the real members come first, and the leading block of a
column-by-column Cholesky depends only on itself; the padded entries of
the factor and of the solves stay +0.0, so the back substitution
subtracts +0.0 from each real entry; and the padded +0.0 terms of a sum
can only turn a -0.0 sum into +0.0, which C_ii - sum, 1 - sum and
denom > 0 do not tell apart (C_ii >= +0.0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

__all__ = [
    "LocalCovariance",
    "assemble_local_cov",
    "ordinary_kriging",
    "prior_stencil",
]

COND_WARN_THRESHOLD = 1e12
EPSILON_SCALE = 1e-8  # empirical regularization, relative to the local diagonal


@dataclass
class LocalCovariance:
    """Dense covariances over C_i + {i} of a stack of m fine variables.

    The fine variable is the LAST index of each block.  `cho` holds the
    lower Cholesky factor of each coarse block C_i, all nan where the
    block is not positive definite.
    """

    matrix: np.ndarray  # (m, q+1, q+1)
    cho: np.ndarray = field(repr=False)  # (m, q, q)
    regularized: np.ndarray  # (m,) bool: the block carries eps*I
    ill_conditioned: np.ndarray  # (m,) bool: condition number above COND_WARN_THRESHOLD


def assemble_local_cov(i, members, cov_source) -> LocalCovariance:
    """Build the local covariances over members + [i] from a covariance source.

    i is an (m,) stack of variables with (m, q) members, each row nearest
    first and padded with -1.  Both covariance sources give blocks equal
    to their transposes bit for bit, so they are used as given; the padded
    rows and columns are set to those of the identity.  The coarse blocks
    are factored as one stack.  The empirical blocks that fail Cholesky
    are regularized once with eps*I on their real diagonal, eps =
    EPSILON_SCALE * the block's largest real diagonal entry, and factored
    again as one stack.  A block that still fails, or a failing parametric
    one, is left without a factor, for the caller to shrink its
    interpolatory set.  Ill-conditioned blocks are marked, for the caller
    to warn about; the condition estimate reads the real members only.
    """
    i, members = np.asarray(i, dtype=np.int64), np.asarray(members, dtype=np.int64)
    if members.shape[-1] == 0:
        raise ValueError("interpolatory set must be nonempty")
    if np.any(members == i[:, None]):
        raise ValueError("a variable cannot interpolate from itself")
    nodes = np.append(members, i[:, None], axis=1)
    mat = cov_source.local_matrix(nodes)
    real = nodes >= 0
    at, pad = np.nonzero(~real)
    mat[at, pad, :] = mat[at, :, pad] = 0.0
    mat[at, pad, pad] = 1.0
    cho = _cholesky(np.asarray_chkfinite(mat[:, :-1, :-1]))
    regularized = np.isnan(cho[:, 0, 0]) & (cov_source.source == "empirical")
    if regularized.any():
        keep = real[regularized]
        diag = np.diagonal(mat[regularized], axis1=1, axis2=2)
        eps = EPSILON_SCALE * np.maximum(np.where(keep, diag, -np.inf).max(axis=1), 1.0e-300)
        mat[regularized] += eps[:, None, None] * (np.eye(mat.shape[-1]) * keep[:, None, :])
        cho[regularized] = _cholesky(mat[regularized, :-1, :-1])
    # condition estimate (max/min diagonal of the factor)^2; a block without a factor reads nan
    diag, real = np.diagonal(cho, axis1=1, axis2=2), real[:, :-1]
    ratio = np.where(real, diag, -np.inf).max(axis=1) / np.where(real, diag, np.inf).min(axis=1)
    return LocalCovariance(matrix=mat, cho=cho, regularized=regularized,
                           ill_conditioned=ratio * ratio > COND_WARN_THRESHOLD)


def _cholesky(blocks: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of an (m, q, q) stack, all nan where a block is not
    positive definite; each entry subtracts its products in index order."""
    rest, factor = blocks.copy(), np.zeros_like(blocks)
    for j in range(blocks.shape[-1]):
        pivot = rest[:, j, j]
        root = np.sqrt(np.where(pivot > 0.0, pivot, np.nan))
        column = rest[:, j + 1:, j] / root[:, None]
        factor[:, j, j], factor[:, j + 1:, j] = root, column
        rest[:, j + 1:, j + 1:] -= column[:, :, None] * column[:, None, :]
    # a failed pivot makes every later pivot nan, the last one included
    factor[np.isnan(factor[:, -1, -1])] = np.nan
    return factor


def ordinary_kriging(members, local: LocalCovariance):
    """Constant-mean BLUP predictors with weights constrained to sum to one.

    members is the (m, q) stack of interpolatory sets, padded with -1,
    whose right-hand side of ones is 0 at the padding.  Returns the (m, q)
    weights, +0.0 at the padding, the BLUP and the simple-Kriging variances
    of each block of the stack, and whether it solved: a block solves
    unless it is not positive definite, its mean-estimation term
    1^T C_C^{-1} 1 is not positive and finite, or its weights are not
    finite.
    """
    real = np.asarray(members) >= 0
    q = real.shape[1]
    if q == 0:
        raise ValueError("ordinary Kriging needs a nonempty interpolatory set")
    factor, cross = local.cho, local.matrix[:, :q, q]
    # C_C^{-1} [c, 1]: forward substitution with L, then back substitution with L^T
    s = np.stack([cross, real.astype(float)], axis=-1)
    for k in range(q):
        s[:, k] /= factor[:, k, k, None]
        s[:, k + 1:] -= factor[:, k + 1:, k, None] * s[:, k, None]
    for k in range(q - 1, -1, -1):
        s[:, k] /= factor[:, k, k, None]
        s[:, :k] -= factor[:, k, :k, None] * s[:, k, None]
    s_c, s_1 = s[..., 0], s[..., 1]
    # each sum over the members is a left fold, term by term in index order
    simple_var = local.matrix[:, q, q] - reduce(np.add, (cross * s_c).T)
    gap, denom = 1.0 - reduce(np.add, s_c.T), reduce(np.add, s_1.T)
    # an unsolvable mean term divides by 1, so that it raises no division warning
    usable = (denom > 0.0) & np.isfinite(denom)
    denom = np.where(usable, denom, 1.0)
    weights = s_c + (gap / denom)[:, None] * s_1
    variance = simple_var + gap * gap / denom
    return weights, variance, simple_var, usable & np.isfinite(weights).all(axis=1)


def prior_stencil(fine, cov_source) -> np.ndarray:
    """Prior variances C_ii of a stack of variables: the predictive variance
    of a variable with no coarse point in reach."""
    return cov_source.prior_variance(np.asarray(fine, dtype=np.int64))

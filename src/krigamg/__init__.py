"""Adaptive algebraic multigrid coarsening driven by Gaussian-process models.

Smoothed random test vectors are treated as samples of a Gaussian
process over the matrix graph.  Their covariance structure, estimated
empirically or through a semivariogram fit, feeds local Kriging
interpolation; coarse variables are picked greedily by largest
predictive variance, and the resulting two-grid method is evaluated as
a stationary solver and as a CG preconditioner.
"""

__version__ = "0.1.0"

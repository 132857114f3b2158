"""Graph coloring, colored Gauss-Seidel relaxation, and smooth test vectors.

The smoother is Gauss-Seidel across colors with a simultaneous (Jacobi)
update within each color; since variables of one color are never
adjacent, the within-color update coincides with sequential Gauss-Seidel
in a color-blocked ordering.  Pre-smoothing sweeps ascend the color
order and post-smoothing sweeps descend it, which makes the V(1,1)
two-grid operator symmetric (required when it preconditions CG).

Random test vectors use numpy's PCG64 generator; column k is drawn from
a child seed spawned from the run seed, so column k is identical for
every K >= k+1 and runs are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Coloring",
    "greedy_coloring",
    "ColoredSweeper",
    "generate_test_vectors",
]


@dataclass
class Coloring:
    """Color assignment per variable; adjacent variables never share a color."""

    color_of: np.ndarray
    num_colors: int

    def color_indices(self) -> list[np.ndarray]:
        """Variable index arrays per color, ascending color order."""
        return [np.flatnonzero(self.color_of == c) for c in range(self.num_colors)]


def greedy_coloring(matrix: sp.csr_matrix) -> Coloring:
    """Greedy graph coloring in natural variable order.

    Each variable gets the smallest color not used by an already-colored
    neighbour (A_ij != 0, i != j).
    """
    a = matrix.tocsr()
    n = a.shape[0]
    indptr, indices = a.indptr, a.indices
    color_of = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        used = set()
        for j in indices[indptr[i]:indptr[i + 1]]:
            if j != i and color_of[j] >= 0:
                used.add(color_of[j])
        c = 0
        while c in used:
            c += 1
        color_of[i] = c
    return Coloring(color_of=color_of, num_colors=int(color_of.max()) + 1)


class ColoredSweeper:
    """Precomputed per-color row slices for fast repeated sweeps."""

    def __init__(self, matrix: sp.csr_matrix, coloring: Coloring):
        a = matrix.tocsr()
        diag = a.diagonal()
        if np.any(diag == 0.0):
            raise ValueError("zero diagonal entry; Gauss-Seidel update undefined")
        self.coloring = coloring
        self._groups = [
            (idx, a[idx], diag[idx]) for idx in coloring.color_indices()
        ]

    def sweep(self, x: np.ndarray, b: np.ndarray, reverse: bool = False) -> np.ndarray:
        """One colored Gauss-Seidel sweep x_i <- (b_i - sum_{j!=i} A_ij x_j)/A_ii,
        applied to a copy of x.

        Colors go in ascending order (descending when reverse); within a
        color all updates use the latest values of the other colors.  x
        and b may be vectors (n,) or column blocks (n, K); columns are
        relaxed independently.
        """
        x = np.array(x, dtype=float, copy=True)
        groups = self._groups[::-1] if reverse else self._groups
        for idx, rows, diag in groups:
            resid = b[idx] - rows @ x
            if x.ndim == 1:
                x[idx] += resid / diag
            else:
                x[idx] += resid / diag[:, None]
        return x


def generate_test_vectors(
    matrix: sp.csr_matrix,
    K: int,
    nu: int,
    seed: int,
    coloring: Coloring | None = None,
) -> np.ndarray:
    """(n, K) array of K standard-normal vectors, each relaxed nu times with zero
    right-hand side."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if nu < 0:
        raise ValueError("nu must be >= 0")
    n = matrix.shape[0]
    children = np.random.SeedSequence(seed).spawn(K)
    vectors = np.empty((n, K))
    for k, child in enumerate(children):
        vectors[:, k] = np.random.default_rng(child).standard_normal(n)
    if nu > 0:
        if coloring is None:
            coloring = greedy_coloring(matrix)
        sweeper = ColoredSweeper(matrix, coloring)
        zero = np.zeros_like(vectors)
        for _ in range(nu):
            vectors = sweeper.sweep(vectors, zero)
    return vectors

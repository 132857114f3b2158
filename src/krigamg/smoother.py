"""Graph coloring, colored Gauss-Seidel relaxation, and smooth test vectors.

The smoother is Gauss-Seidel across colors with a simultaneous (Jacobi)
update within each color; since variables of one color are never
adjacent, the within-color update coincides with sequential Gauss-Seidel
in a color-blocked ordering.  The sweeper stores the rows of A in that
ordering (Saad, Iterative Methods for Sparse Linear Systems, 2nd ed.,
section 12.4): each color is one contiguous block of rows, with column
indices relabelled into the same ordering, so a sweep gathers its
vectors once, relaxes every color on contiguous slices and scatters
once.  Each row keeps its entries in their stored order, so every
update sums the same products in the same order as on A itself.  A
sweep ascends the color order, or descends it when asked; the two-grid
cycle chooses the order of its post-sweep.  A zero initial guess
(x=None) skips the first color's product, which reads only zeros.

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
    neighbour: every j != i stored in row i, explicit zeros included.
    """
    a = matrix.tocsr()
    n = a.shape[0]
    indptr, indices = a.indptr.tolist(), a.indices.tolist()  # Python lists: no numpy scalars
    color_of = [-1] * n
    for i in range(n):
        used = {color_of[j] for j in indices[indptr[i]:indptr[i + 1]] if j != i}
        c = 0
        while c in used:
            c += 1
        color_of[i] = c
    color_of = np.array(color_of, dtype=np.int64)
    return Coloring(color_of=color_of, num_colors=int(color_of.max()) + 1)


class ColoredSweeper:
    """Rows of A stored color by color, relaxed on contiguous slices."""

    def __init__(self, matrix: sp.csr_matrix, coloring: Coloring):
        a = matrix.tocsr()
        diag = a.diagonal()
        if np.any(diag == 0.0):
            raise ValueError("zero diagonal entry; Gauss-Seidel update undefined")
        colors = coloring.color_indices()
        self._order = np.concatenate(colors)
        position = np.empty_like(self._order)
        position[self._order] = np.arange(self._order.size)
        rows = a[self._order]
        rows = sp.csr_matrix((rows.data, position[rows.indices], rows.indptr), shape=a.shape)
        bounds = np.cumsum([0] + [idx.size for idx in colors])
        self._groups = [
            (slice(lo, hi), rows[lo:hi], diag[self._order[lo:hi]])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]

    def sweep(self, x: np.ndarray | None, b: np.ndarray, reverse: bool = False) -> np.ndarray:
        """One colored Gauss-Seidel sweep x_i <- (b_i - sum_{j!=i} A_ij x_j)/A_ii,
        returned as a new array; x=None is a zero initial guess.

        Colors go in ascending order (descending when reverse); within a
        color all updates use the latest values of the other colors.  x
        and b may be vectors (n,) or column blocks (n, K); columns are
        relaxed independently.
        """
        order = self._order
        bb = b[order]
        col = (slice(None),) + (None,) * (bb.ndim - 1)  # diag against (n, K) blocks
        groups = self._groups[::-1] if reverse else self._groups
        if x is None:
            xb = np.zeros(bb.shape)
            (sl, _, diag), groups = groups[0], groups[1:]
            xb[sl] = bb[sl] / diag[col]
        else:
            xb = np.asarray(x, dtype=float)[order]
        for sl, rows, diag in groups:
            xb[sl] += (bb[sl] - rows @ xb) / diag[col]
        out = np.empty_like(xb)
        out[order] = xb
        return out


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

"""Graph coloring, colored Gauss-Seidel relaxation, and smooth test vectors.

The smoother is Gauss-Seidel across colors with a simultaneous (Jacobi)
update within each color; since variables of one color are never
adjacent, the within-color update coincides with sequential Gauss-Seidel
in a color-blocked ordering.  The sweeper stores the rows of A in that
ordering (Saad, Iterative Methods for Sparse Linear Systems, 2nd ed.,
section 12.4) as one CSR: each color is one contiguous block of rows,
with column indices relabelled into the same ordering, and a color's
product reads its slice of the one row-pointer array.  A sweep takes
and returns vectors in that blocked numbering, so callers gather once
(`x[sweeper.order]`) and scatter once (`y[sweeper.position]`) around
any number of sweeps: the test vectors around their nu sweeps, the
two-grid cycle around the whole cycle.  Each row keeps its entries in
their stored order, so every update sums the same products in the same
order as on A itself.  A sweep ascends the color order, or descends it
when asked; the two-grid cycle chooses the order of its post-sweep.  A
zero initial guess (x=None) skips the first color's product, which
reads only zeros.

Every sparse product on the solve path goes through `_spmv`, which calls
scipy's compiled CSR kernel directly, into a zeroed output, as
`csr_matrix @ x` does after its dispatch: the sum of each row keeps its
terms and their order, so its bits equal those of `@`, without the
dispatch's fixed cost on each of the cycle's small products.

Random test vectors use numpy's PCG64 generator; column k is drawn from
a child seed spawned from the run seed, so column k is identical for
every K >= k+1 and runs are reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

__all__ = [
    "greedy_coloring",
    "ColoredSweeper",
    "generate_test_vectors",
]


def greedy_coloring(matrix: sp.csr_matrix) -> np.ndarray:
    """Color of each variable by greedy graph coloring in natural variable
    order; adjacent variables never share a color.

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
    return np.array(color_of, dtype=np.int64)


def _spmv(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The CSR rows (indptr, indices, data) times a vector (n,) or a block
    (n, K), bit for bit as `csr_matrix @ x`: the same compiled kernel, a
    (n, 1) block through the vector kernel as scipy's dispatch does.

    indptr holds absolute offsets into indices and data, so a slice
    indptr[lo:hi + 1] selects rows lo..hi-1 without a copy."""
    rows = indptr.size - 1
    if x.ndim == 1:
        out = np.zeros(rows)
        _sparsetools.csr_matvec(rows, x.shape[0], indptr, indices, data, x, out)
    elif x.shape[1] == 1:
        out = np.zeros((rows, 1))
        _sparsetools.csr_matvec(rows, x.shape[0], indptr, indices, data, x.ravel(), out.ravel())
    else:
        out = np.zeros((rows, x.shape[1]))
        _sparsetools.csr_matvecs(rows, x.shape[0], x.shape[1], indptr, indices, data,
                                 x.ravel(), out.ravel())
    return out


class ColoredSweeper:
    """Rows of A stored color by color as one CSR, relaxed on contiguous
    slices in the blocked numbering.

    color_of holds the color of each variable, colors 0 to its largest.
    order[k] is the variable at blocked position k and position its
    inverse, so x[order] gathers a vector into the blocked numbering and
    y[position] scatters one back.  indptr, indices and data are the
    blocked rows of A, columns relabelled.  One sweeper serves a run: the
    test vectors and the two-grid cycle relax with the same one.
    """

    def __init__(self, matrix: sp.csr_matrix, color_of: np.ndarray):
        a = matrix.tocsr()
        n = a.shape[0]
        diag = a.diagonal()
        if np.any(diag == 0.0):
            raise ValueError("zero diagonal entry; Gauss-Seidel update undefined")
        colors = [np.flatnonzero(color_of == c) for c in range(color_of.max() + 1)]
        self.order = np.concatenate(colors)
        if color_of.shape != (n,) or self.order.size != n:
            raise ValueError(f"coloring does not cover the {n} variables once each")
        row = np.repeat(np.arange(n), np.diff(a.indptr))
        if np.any((color_of[row] == color_of[a.indices]) & (row != a.indices)):
            raise ValueError("coloring gives two coupled variables the same color")
        self.position = np.empty_like(self.order)
        self.position[self.order] = np.arange(n)
        rows = a[self.order]
        rows = sp.csr_matrix((rows.data, self.position[rows.indices], rows.indptr), shape=a.shape)
        self.indptr, self.indices, self.data = rows.indptr, rows.indices, rows.data
        bounds = np.cumsum([0] + [idx.size for idx in colors]).tolist()
        self._groups = [
            (lo, hi, self.indptr[lo:hi + 1], diag[self.order[lo:hi]])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]

    def sweep(self, x: np.ndarray | None, b: np.ndarray, reverse: bool = False) -> np.ndarray:
        """One colored Gauss-Seidel sweep x_i <- (b_i - sum_{j!=i} A_ij x_j)/A_ii
        in the blocked numbering, returned as a new array; x=None is a zero
        initial guess.

        Colors go in ascending order (descending when reverse); within a
        color all updates use the latest values of the other colors.  x
        and b are blocked (gathered by `order`) vectors (n,) or column
        blocks (n, K); columns are relaxed independently.
        """
        col = (slice(None),) + (None,) * (b.ndim - 1)  # diag against (n, K) blocks
        groups = self._groups[::-1] if reverse else self._groups
        if x is None:
            xb = np.zeros(b.shape)
            (lo, hi, _, diag), groups = groups[0], groups[1:]
            xb[lo:hi] = b[lo:hi] / diag[col]
        else:
            xb = np.array(x, dtype=float)
        for lo, hi, indptr, diag in groups:
            xb[lo:hi] += (b[lo:hi] - _spmv(indptr, self.indices, self.data, xb)) / diag[col]
        return xb


def generate_test_vectors(sweeper: ColoredSweeper, K: int, nu: int, seed: int) -> np.ndarray:
    """(n, K) array of K standard-normal vectors, each relaxed nu times with zero
    right-hand side by the sweeper of their matrix."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if nu < 0:
        raise ValueError("nu must be >= 0")
    n = sweeper.order.size
    children = np.random.SeedSequence(seed).spawn(K)
    vectors = np.empty((n, K))
    for k, child in enumerate(children):
        vectors[:, k] = np.random.default_rng(child).standard_normal(n)
    if nu > 0:
        vectors = vectors[sweeper.order]
        zero = np.zeros_like(vectors)
        for _ in range(nu):
            vectors = sweeper.sweep(vectors, zero)
        vectors = vectors[sweeper.position]
    return vectors

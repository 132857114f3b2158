"""Pseudo-distances on the matrix graph, coarse-neighbour search, embeddability.

The graph pseudo-distance d(i, j) is the shortest path in the undirected
graph of the matrix, where edge {i, j} has length 1/|A_ij|.  Every search
is a truncated `scipy.sparse.csgraph` Dijkstra that lists the reached
nodes nearest first.  Searches are truncated at a localization radius; on
the unscaled FD matrices the off-diagonals are -1, so a radius of 4 spans
four grid steps.  Rescaling the matrix rescales this radius accordingly.

Pairs beyond the truncation radius are excluded from candidate sets (no
sentinel distances).  Distances between members of a local interpolatory
set are resolved by per-source searches truncated at twice the radius,
which by the triangle inequality covers every pair inside one ball.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph

__all__ = [
    "graph_distances_from",
    "adjacency_lengths",
    "GraphDistanceOracle",
    "nearest_coarse",
    "distance_correlation",
    "check_local_embeddability",
    "median_neighbor_distance",
]


def adjacency_lengths(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Edge-length graph of the matrix: length(i,j) = 1/|A_ij|, no diagonal."""
    a = matrix.tocoo()
    mask = (a.row != a.col) & (a.data != 0.0)
    lengths = sp.coo_matrix(
        (1.0 / np.abs(a.data[mask]), (a.row[mask], a.col[mask])), shape=a.shape
    ).tocsr()
    lengths.sort_indices()
    return lengths


def graph_distances_from(
    matrix: sp.csr_matrix, i: int, radius: float, _lengths: sp.csr_matrix | None = None
) -> dict[int, float]:
    """Truncated Dijkstra from variable i over edges of length 1/|A_ij|.

    Returns every j with d(i, j) <= radius, including i itself at 0,
    nearest first with ties broken by ascending index.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    lengths = adjacency_lengths(matrix) if _lengths is None else _lengths
    d = scipy.sparse.csgraph.dijkstra(lengths, indices=i, limit=radius)
    reached = np.flatnonzero(d <= radius)
    reached = reached[np.argsort(d[reached], kind="stable")]
    return dict(zip(reached.tolist(), d[reached].tolist()))


@dataclass
class GraphDistanceOracle:
    """Cached truncated shortest-path distances on the matrix graph."""

    matrix: sp.csr_matrix
    truncation_radius: float

    def __post_init__(self):
        self._lengths = adjacency_lengths(self.matrix)
        self._cache: dict[tuple[int, float], dict[int, float]] = {}

    def distances_from(self, i: int, radius: float | None = None) -> dict[int, float]:
        r = self.truncation_radius if radius is None else radius
        key = (i, r)
        hit = self._cache.get(key)
        if hit is None:
            hit = graph_distances_from(self.matrix, i, r, _lengths=self._lengths)
            self._cache[key] = hit
        return hit

    def pairwise(self, nodes) -> np.ndarray:
        """Pairwise distance matrix over a local node set, (k,) -> (k, k), or
        over each set of a stack, (m, k) -> (m, k, k).

        Searches from each node truncated at 2x the oracle radius; pairs
        still unreached are unreachable within a shared ball and get inf.
        """
        nodes = np.asarray(nodes)
        reach = 2.0 * self.truncation_radius
        rows = {src: self.distances_from(src, reach).get for src in np.unique(nodes).tolist()}
        sets = nodes.reshape(-1, nodes.shape[-1]).tolist()
        d = np.array([list(map(rows[src], dsts, itertools.repeat(np.inf)))
                      for dsts in sets for src in dsts]).reshape(*nodes.shape, nodes.shape[-1])
        return np.minimum(d, np.swapaxes(d, -1, -2))


def nearest_coarse(
    i: int,
    coarse_mask: np.ndarray,
    oracle,
    q_max: int,
    radius: float | None = None,
) -> tuple[list[int], np.ndarray]:
    """Up to q_max coarse variables within radius of i, nearest first.

    Ties in distance break by ascending variable index.  Returns the
    ordered interpolatory set and its distances; both may be empty.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    dist = oracle.distances_from(i, radius)  # in (distance, index) order
    members = list(itertools.islice((j for j in dist if j != i and coarse_mask[j]), q_max))
    return members, np.array([dist[j] for j in members])


def distance_correlation(
    problem, sample_pairs: int = 5000, seed: int = 0
) -> float:
    """Pearson correlation between graph and coordinate distance on sampled pairs.

    Pairs (i, j), i != j, are sampled uniformly with replacement; pairs
    with infinite graph distance are excluded.
    """
    if problem.coords is None:
        raise ValueError("problem has no coordinates")
    n = problem.n
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=sample_pairs)
    dst = rng.integers(0, n, size=sample_pairs)
    keep = src != dst
    src, dst = src[keep], dst[keep]

    sources, row = np.unique(src, return_inverse=True)
    lengths = adjacency_lengths(problem.matrix)
    dmat = scipy.sparse.csgraph.dijkstra(lengths, directed=False, indices=sources)
    d_graph = dmat[row, dst]
    d_coord = np.hypot(*(problem.coords[src] - problem.coords[dst]).T)

    finite = np.isfinite(d_graph)
    if finite.sum() < 2:
        raise ValueError("not enough finite-distance pairs to correlate")
    return float(np.corrcoef(d_graph[finite], d_coord[finite])[0, 1])


def check_local_embeddability(d: np.ndarray, tol: float = 1e-10) -> tuple[bool, float]:
    """Can the distance matrix embed isometrically in some Euclidean space?

    Classical multidimensional-scaling criterion: with J = I - 11^T/q,
    the centered matrix -J D^2 J / 2 must be positive semidefinite.
    Returns the verdict and the smallest eigenvalue of the centered
    matrix (negative values beyond -tol mean not embeddable).
    """
    d = np.asarray(d, dtype=float)
    q = d.shape[0]
    j = np.eye(q) - np.full((q, q), 1.0 / q)
    gram = -0.5 * j @ (d * d) @ j
    smallest = float(np.linalg.eigvalsh(gram)[0])
    return smallest >= -tol, smallest


def median_neighbor_distance(matrix: sp.csr_matrix) -> float:
    """Median over variables of the distance to the nearest neighbour.

    The nearest neighbour by graph distance is always one hop away, so
    this is the median per-row minimum edge length.  Used as the default
    semivariogram bin width.
    """
    lengths = adjacency_lengths(matrix)
    starts = lengths.indptr[:-1][np.diff(lengths.indptr) > 0]
    if starts.size == 0:
        raise ValueError("matrix graph has no edges")
    return float(np.median(np.minimum.reduceat(lengths.data, starts)))

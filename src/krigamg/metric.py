"""Pseudo-distances on the matrix graph, coarse-neighbour search, embeddability.

The graph pseudo-distance d(i, j) is the shortest path in the undirected
graph of the matrix, where edge {i, j} has length 1/|A_ij|.  Searches are
truncated at a localization radius; on the unscaled FD matrices the
off-diagonals are -1, so a radius of 4 spans four grid steps.  Rescaling
the matrix rescales this radius accordingly.

Every distance the covariance and the coarsening use is read from one
truncated distance matrix, the ball matrix of `GraphDistanceOracle`: rows
as CSR slices cut at a stored end per radius, pairs from a sorted index
of its pair keys.  Built once, it reaches twice the radius (farther for a
longer variogram cloud), which by the triangle inequality covers every
pair inside one ball; pairs farther apart read inf in local distance
matrices.  It is searched chunk by chunk, each chunk of sources on the
subgraph of the nodes within reach of it, so the build costs about the
size of the balls, not n per source, and no dense block holds more than
DENSE_BLOCK entries.  Each chunk's rows come out nearest first, ties by
ascending index, from one stable sort per row.  The last one built is
kept, read-only, so later runs on the same matrix and reach search none.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph

DENSE_BLOCK = 2 ** 18  # float64 entries of one dense block of Dijkstra rows, 2 MB
PAIR_BLOCK = 4096  # ball entries per sorted block of the pair index
EMBED_TOL = 1e-10  # a centered eigenvalue down to -EMBED_TOL still embeds
CORR_SOURCES = 50  # whole-graph searches of distance_correlation
CORR_DESTINATIONS = 100  # sampled pairs per search

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


def graph_distances_from(matrix: sp.csr_matrix, sources, radius: float):
    """Truncated Dijkstra from each of `sources` over edges of length 1/|A_ij|.

    Returns their rows as CSR arrays (indptr, int32 indices, distances):
    every j with d(s, j) <= radius, nearest first, ties by ascending index.

    The sources are searched chunk by chunk on the subgraph of the nodes
    within the radius of any source of the chunk (every node when the
    radius is inf): a path no longer than the radius never leaves it, and
    each distance is the same sum of the same edges as on the whole
    graph.  When a chunk's dense rows over that subgraph would hold more
    than DENSE_BLOCK entries, it keeps only its first DENSE_BLOCK //
    (subgraph size) sources, searched on the same subgraph, which holds
    their reach too, and the next chunks take that many; a chunk that
    fills at most half a block doubles the next, up to 256 sources.  Each
    chunk's rows are written straight into the result arrays, which grow
    in place by half when full and are trimmed at the end, so the rows
    are held once.

    Each row is ordered on its own: its entries, read in ascending index,
    are laid into a (chunk, longest row) array padded with inf, and one
    stable sort along the rows orders it, so the first count[r] places of
    row r are its own entries.  The sort must be stable: equal distances
    (everywhere on a unit grid) keep ascending index, as do the nodes out
    of reach, all at inf, when the radius is inf (every row then holds
    every node, with no padding).  The padded array holds no more than the
    dense block did.
    """
    if not radius > 0.0:  # NaN too; inf is every node
        raise ValueError("radius must be positive")
    lengths = adjacency_lengths(matrix)
    sources = np.atleast_1d(sources)
    indptr = np.zeros(sources.size + 1, dtype=np.int64)
    indices, distances = np.empty(0, np.int32), np.empty(0)
    lo, step = 0, 256
    while lo < sources.size:
        chunk = sources[lo:lo + step]
        reach = scipy.sparse.csgraph.dijkstra(lengths, indices=chunk, min_only=True, limit=radius)
        nodes = np.flatnonzero(reach <= radius)  # ascending
        if chunk.size * nodes.size > DENSE_BLOCK:  # cut it: the cut reaches within nodes
            chunk = chunk[:max(1, DENSE_BLOCK // nodes.size)]
            step = chunk.size
        elif 2 * chunk.size * nodes.size <= DENSE_BLOCK:
            step = min(256, 2 * step)
        block = scipy.sparse.csgraph.dijkstra(lengths[nodes][:, nodes], limit=radius,
                                              indices=np.searchsorted(nodes, chunk))
        flat = np.flatnonzero(block <= radius)  # row by row, columns ascending as nodes do
        d = block.ravel()[flat]
        del block  # before the next chunk allocates its own: one dense block alive at a time
        row, col = np.divmod(flat, nodes.size)
        count = np.bincount(row, minlength=chunk.size)  # >= 1: a source reaches itself
        start = np.cumsum(count) - count
        padded = np.full((chunk.size, count.max()), np.inf)
        padded[row, np.arange(flat.size) - start[row]] = d
        order = np.argsort(padded, axis=1, kind="stable")  # first count[r]: row r's own
        del padded
        at = (order + start[:, None])[np.arange(order.shape[1]) < count[:, None]]
        a = indptr[lo]
        b = a + flat.size
        if b > indices.size:  # grow in place by half: no second copy of the rows so far
            for array in (indices, distances):
                array.resize(max(b, array.size + array.size // 2), refcheck=False)
        indices[a:b] = nodes[col[at]]
        distances[a:b] = d[at]
        indptr[lo + 1:lo + chunk.size + 1] = a + np.cumsum(count)
        lo += chunk.size
    indices.resize(indptr[-1], refcheck=False)
    distances.resize(indptr[-1], refcheck=False)
    return indptr, indices, distances


_BALL = {}  # the last ball matrix built: {(matrix digest, reach): (indptr, indices, distances)}


def _ball_matrix(matrix, reach: float):
    """graph_distances_from every variable at `reach`, kept read-only for every
    later call on the same CSR bytes (a digest of shape, dtypes and arrays) and
    reach until another one replaces it; the old one goes before the new build."""
    a = matrix.tocsr()
    h = hashlib.blake2b(repr((a.shape, a.indptr.dtype, a.indices.dtype, a.data.dtype)).encode())
    for part in (a.indptr, a.indices, a.data):
        h.update(np.ascontiguousarray(part))
    key = (h.digest(), reach)
    if key not in _BALL:
        _BALL.clear()
        _BALL[key] = graph_distances_from(a, np.arange(a.shape[0]), reach)
        for array in _BALL[key]:
            array.flags.writeable = False  # a stray write would reach every later run
    return _BALL[key]


@dataclass
class GraphDistanceOracle:
    """Truncated shortest-path distances on the matrix graph, read from one ball matrix.

    The ball matrix (indptr, indices, distances) holds graph_distances_from
    every variable at `reach`: twice the truncation radius, or a longer reach
    given for a variogram cloud beyond it, 12 B per entry, read-only and
    shared with later oracles on the same matrix and reach (`_ball_matrix`).
    Its rows run nearest first, so the entries within a radius are a row
    prefix: `distances_from` slices rows at their ends within that radius,
    an array of 8 B per variable stored on the first fetch at each radius
    (the radius, twice it and the cloud's reach), which `row_cuts` hands
    out with the row starts for slicing in place.  `pairwise` reads pair
    (i, j) at its key i*n + j in a sorted index of the entries, 8 B more per
    entry (12 B once n*n >= 2**31) from its first call.
    """

    matrix: sp.csr_matrix
    truncation_radius: float
    reach: float | None = None

    def __post_init__(self):
        self.reach = max(2.0 * self.truncation_radius, self.reach or 0.0)  # None: 2r
        self.indptr, self.indices, self.distances = _ball_matrix(self.matrix, self.reach)
        self._cuts = {}  # radius -> where each row passes it, by `row_cuts`
        self._pairs = None  # (keys, at) of `pairwise`, built on its first call

    def row_cuts(self, radius: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(starts, ends) of every row of the ball matrix within `radius` (default:
        the truncation radius, at most the reach): row s's entries within it
        are indices[starts[s]:ends[s]] and distances[starts[s]:ends[s]]."""
        r = self.truncation_radius if radius is None else radius
        if r > self.reach:
            raise ValueError(f"radius {r:g} is beyond the ball matrix's reach {self.reach:g}")
        starts = self.indptr[:-1]  # every row holds its own variable, so none is empty
        ends = self._cuts.get(r)
        if ends is None:  # rows run nearest first: the entries within r are a prefix
            ends = self._cuts[r] = starts + np.add.reduceat(self.distances <= r, starts,
                                                            dtype=np.int64)
        return starts, ends

    def distances_from(self, sources, radius: float | None = None):
        """(owner, members, distances) of every j with d(s, j) <= radius (default:
        the truncation radius, at most the reach) for each s of `sources`, one
        variable or a stack; owner is the position of s, whose j run nearest
        first, ties by index."""
        starts, ends = self.row_cuts(radius)
        sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        starts = starts[sources]
        counts = ends[sources] - starts
        owner = np.repeat(np.arange(counts.size), counts)
        at = np.arange(owner.size) + np.repeat(starts - np.cumsum(counts) + counts, counts)
        return owner, self.indices[at], self.distances[at]

    def pairwise(self, nodes) -> np.ndarray:
        """Pairwise distance matrix over a local node set, (k,) -> (k, k), or
        over each set of a stack, (m, k) -> (m, k, k); inf beyond twice the
        truncation radius, and the shorter direction of a pair serves both.
        Only the off-diagonal pairs of two real nodes are looked up: the
        diagonal is each row's own entry, 0.0, and a pair with a padded node
        (-1) reads inf."""
        keys, at = self._pairs = self._pairs or self._pair_index()
        nodes = np.asarray(nodes, dtype=keys.dtype)  # fits i*n + j; searchsorted copies no key
        k = nodes.shape[-1]
        i, j = np.nonzero(~np.eye(k, dtype=bool))
        query = nodes[..., i] * self.matrix.shape[0] + nodes[..., j]
        real = (nodes[..., i] >= 0) & (nodes[..., j] >= 0)
        found = np.full(query.shape, np.inf)
        query = query[real]
        pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        hit = self.distances[at[pos]]
        hit[(keys[pos] != query) | (hit > 2.0 * self.truncation_radius)] = np.inf
        found[real] = hit
        d = np.zeros(nodes.shape[:-1] + (k * k,))
        d[..., i * k + j] = found
        d = d.reshape(nodes.shape + (k,))
        return np.minimum(d, np.swapaxes(d, -1, -2))

    def _pair_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The ball matrix's pair keys i*n + j, ascending, and the position of
        each in indices/distances, sorted in blocks of rows of about
        PAIR_BLOCK entries; rows follow each other, so the blocks join sorted."""
        n, size = self.matrix.shape[0], self.indices.size
        keys = np.empty(size, np.min_scalar_type(-n * n))  # every i*n + j; int32 up to n = 46,340
        at = np.empty(size, np.min_scalar_type(-size))
        for rows in np.array_split(np.arange(n), min(n, size // PAIR_BLOCK + 1)):
            a, b = self.indptr[rows[0]], self.indptr[rows[-1] + 1]
            key = np.repeat(rows * n, self.indptr[rows + 1] - self.indptr[rows]) + self.indices[a:b]
            order = np.argsort(key)
            keys[a:b], at[a:b] = key[order], a + order
        return keys, at


def nearest_coarse(i, rank: np.ndarray, cutoff, oracle, q_max: int) -> np.ndarray:
    """Up to q_max coarse variables within the truncation radius of i, nearest
    first, ties by ascending index.

    i and cutoff are (m,) stacks: rank holds a rank per variable, 0 for a
    fine one, and row k takes only the coarse variables of rank at most
    cutoff[k].  Returns the (m, q_max) interpolatory sets, padded with -1.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    fine = np.asarray(i, dtype=np.int64)
    owner, members, _ = oracle.distances_from(fine)
    ranks = rank[members]
    ok = (ranks > 0) & (ranks <= np.asarray(cutoff)[owner]) & (members != fine[owner])
    owner, members = owner[ok], members[ok]
    slot = np.arange(owner.size) - np.searchsorted(owner, owner)  # rank within row
    take = slot < q_max
    sets = np.full((fine.size, q_max), -1, dtype=np.int64)
    sets[owner[take], slot[take]] = members[take]
    return sets


def distance_correlation(problem, seed: int = 0) -> float:
    """Pearson correlation between graph and coordinate distance on sampled pairs.

    CORR_SOURCES sources are drawn without replacement (every variable when
    there are fewer) and CORR_DESTINATIONS destinations per source with
    replacement; each source is one whole-graph Dijkstra, one length-n row.
    Self-pairs and pairs at infinite graph distance are excluded.
    """
    if problem.coords is None:
        raise ValueError("problem has no coordinates")
    n = problem.n
    rng = np.random.default_rng(seed)
    sources = rng.choice(n, size=min(CORR_SOURCES, n), replace=False)
    dst = rng.integers(0, n, size=(sources.size, CORR_DESTINATIONS))
    lengths = adjacency_lengths(problem.matrix)
    d_graph = np.empty(dst.shape)
    for row, source in enumerate(sources):
        d_graph[row] = scipy.sparse.csgraph.dijkstra(lengths, indices=source)[dst[row]]
    diff = problem.coords[sources][:, None, :] - problem.coords[dst]
    d_coord = np.hypot(diff[..., 0], diff[..., 1])

    keep = (dst != sources[:, None]) & np.isfinite(d_graph)
    if keep.sum() < 2:
        raise ValueError("not enough finite-distance pairs to correlate")
    return float(np.corrcoef(d_graph[keep], d_coord[keep])[0, 1])


def check_local_embeddability(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Can the distance matrix embed isometrically in some Euclidean space?

    Classical multidimensional-scaling criterion: with J = I - 11^T/q,
    the centered matrix -J D^2 J / 2 must be positive semidefinite.
    d is one (q, q) matrix or an (m, q, q) stack.  Returns the verdict and
    the smallest eigenvalue of the centered matrix (negative values beyond
    -EMBED_TOL mean not embeddable), per matrix of a stack.
    """
    d = np.asarray(d, dtype=float)
    q = d.shape[-1]
    j = np.eye(q) - np.full((q, q), 1.0 / q)
    gram = -0.5 * j @ (d * d) @ j
    smallest = np.linalg.eigvalsh(gram)[..., 0]
    return smallest >= -EMBED_TOL, smallest


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

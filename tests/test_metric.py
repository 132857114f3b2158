import gc
import itertools
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csg
from hypothesis import given, settings
from hypothesis import strategies as st

from krigamg import metric
from krigamg.metric import (
    CORR_DESTINATIONS,
    CORR_SOURCES,
    GraphDistanceOracle,
    adjacency_lengths,
    check_local_embeddability,
    distance_correlation,
    graph_distances_from,
    median_neighbor_distance,
    nearest_coarse,
)
from krigamg.problems import ProblemInstance, generate_case, generate_fd_square

from conftest import isolate
from oracles import graph_distances_reference, pairwise_reference

LAPLACIAN = generate_fd_square(12, (1.0, 1.0, 0.0)).matrix


def permuted(matrix, seed=0):
    """P A P^T for a random permutation P: neighbours get far-apart indices."""
    perm = np.random.default_rng(seed).permutation(matrix.shape[0])
    return sp.csr_matrix(matrix)[perm][:, perm]


SEARCHED = {  # matrix, radii
    **{case: (lambda case=case: generate_case(case).matrix, (4.0, 8.0))
       for case in ("s-iso", "s-aniso", "c-iso", "c-aniso")},
    # every chunk of sources reaches most nodes: the chunks shrink
    "s-iso-permuted": (lambda: permuted(generate_case("s-iso").matrix), (8.0,)),
    "s-iso-small": (lambda: LAPLACIAN, (2.5, np.inf)),
    "disconnected": (lambda: sp.block_diag([LAPLACIAN, LAPLACIAN]).tocsr(), (4.0, np.inf)),
    "isolated-row": (lambda: isolate(LAPLACIAN, 5).tocsr(), (4.0, np.inf)),
}


@st.composite
def weighted_graphs(draw):
    """A symmetric matrix on 2-40 nodes with |A_ij| in {1, 2, 4}: edge lengths
    are exact binary fractions, so many paths tie exactly.  Edges are drawn
    inside random groups of nodes, so isolated nodes and several components
    are common."""
    n = draw(st.integers(2, 40))
    group = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if group[i] == group[j]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n)) if pairs else []
    weights = draw(st.lists(st.sampled_from([1.0, 2.0, 4.0]),
                            min_size=len(edges), max_size=len(edges)))
    i, j = np.array(edges, dtype=int).reshape(-1, 2).T
    upper = sp.coo_matrix((-np.array(weights), (i, j)), shape=(n, n))
    return (upper + upper.T + 10.0 * sp.eye(n)).tocsr()


def ball(matrix, i, radius):
    """The search from i alone, as {node: distance} in the order it lists them."""
    indptr, indices, distances = graph_distances_from(matrix, i, radius)
    assert indptr.tolist() == [0, indices.size]
    return dict(zip(indices.tolist(), distances.tolist()))


def assert_ball_rows(oracle, full):
    """Every row of the oracle's ball matrix is the full-Dijkstra row cut at
    its reach, in (distance, index) order, bit for bit."""
    for i in range(full.shape[0]):
        row = slice(oracle.indptr[i], oracle.indptr[i + 1])
        near = sorted((d, j) for j, d in enumerate(full[i].tolist()) if d <= oracle.reach)
        assert oracle.indices[row].tolist() == [j for _, j in near]
        assert oracle.distances[row].tolist() == [d for d, _ in near]


class TestGraphDistances:
    def test_unit_grid_neighbors(self, laplace_5x5):
        a = laplace_5x5.matrix
        d = ball(a, 12, radius=4.0)  # center of 5x5
        assert d[12] == 0.0
        assert d[11] == 1.0 and d[13] == 1.0  # x-neighbors
        assert d[7] == 1.0 and d[17] == 1.0  # y-neighbors
        assert d[6] == 2.0  # diagonal neighbor via two unit edges

    def test_aniso_excludes_weak_direction(self):
        problem = generate_fd_square(7, (1, 1e-2, 0))
        d = ball(problem.matrix, 24, radius=4.0)  # center
        m = 7
        assert d[24 - 1] == 1.0 and d[24 + 1] == 1.0
        assert (24 + m) not in d and (24 - m) not in d  # y-edge has length 100

    def test_radius_below_edge_length(self, laplace_5x5):
        d = ball(laplace_5x5.matrix, 3, radius=0.5)
        assert d == {3: 0.0}

    def test_isolated_vertex(self):
        a = sp.diags([1.0, 2.0]).tocsr()
        assert ball(a, 0, radius=5.0) == {0: 0.0}

    def test_truncated_equals_full_dijkstra(self, laplace_5x5):
        cases = [
            (generate_fd_square(12, (1, 1e-2, 0)), 6.0, (0, 17, 100, 143)),
            # FEM disc: irrational edge lengths
            (generate_case("c-iso", rings=8), 4.0, (0, 40, 100, 168)),
            # unit grid: eight nodes tie exactly at the radius
            (laplace_5x5, 2.0, (12,)),
        ]
        for problem, radius, sources in cases:
            lengths = adjacency_lengths(problem.matrix)
            full = csg.dijkstra(lengths, directed=False)
            for src in sources:
                got = ball(problem.matrix, src, radius)
                expected = {j: full[src, j] for j in range(problem.n) if full[src, j] <= radius}
                assert got == expected
                assert list(got) == [j for _, j in sorted((d, j) for j, d in got.items())]
            # the oracle's ball matrix reaches twice its radius, or a longer
            # reach it is built with
            for reach in (None, 1.5 * radius):
                oracle = GraphDistanceOracle(problem.matrix, radius / 2, reach=reach)
                assert oracle.reach == (radius if reach is None else reach)
                assert_ball_rows(oracle, full)
                _, members, dists = oracle.distances_from(sources[0], oracle.reach)
                row = full[sources[0]]
                assert dict(zip(members.tolist(), dists.tolist())) == {
                    j: row[j] for j in range(problem.n) if row[j] <= oracle.reach}
        ties = ball(laplace_5x5.matrix, 12, 2.0)
        assert sum(d == 2.0 for d in ties.values()) == 8

    def test_beyond_the_reach_raises(self, laplace_5x5):
        oracle = GraphDistanceOracle(laplace_5x5.matrix, 1.0, reach=3.0)
        assert oracle.distances_from(0, 3.0)[1].size == 10
        for sources in (0, [0, 1]):
            with pytest.raises(ValueError, match="reach"):
                oracle.distances_from(sources, 3.5)
        with pytest.raises(ValueError, match="reach"):
            oracle.row_cuts(3.5)

    @pytest.mark.parametrize("name", ["laplace_7x7", "circle_small"])
    def test_single_source_equals_stacked(self, name, request):
        """A scalar source, a stack of one and the row sliced in place at the
        cut of `row_cuts` give the same entries."""
        problem = request.getfixturevalue(name)
        oracle = GraphDistanceOracle(problem.matrix, 2.0)
        stored = float(np.unique(oracle.distances)[-3])  # a distance some rows reach exactly
        for radius in (None, 2.0, 4.0, stored):
            starts, ends = oracle.row_cuts(radius)
            for s in range(problem.n):
                for single, stacked in zip(oracle.distances_from(s, radius),
                                           oracle.distances_from([s], radius), strict=True):
                    assert single.dtype == stacked.dtype
                    assert single.tobytes() == stacked.tobytes()
                _, members, dists = oracle.distances_from(s, radius)
                assert np.array_equal(oracle.indices[starts[s]:ends[s]], members)
                assert oracle.distances[starts[s]:ends[s]].tobytes() == dists.tobytes()

    @pytest.mark.parametrize("name", list(SEARCHED))
    def test_local_subgraphs_equal_whole_graph_search(self, name):
        """Bit for bit the rows of one search over the whole graph, for every
        variable and for a scalar, a subset, unsorted and repeated sources."""
        make, radii = SEARCHED[name]
        matrix = make()
        n = matrix.shape[0]
        rng = np.random.default_rng(1)
        for radius, sources in itertools.product(radii, (
                np.arange(n), 7, np.arange(0, n, 3), rng.permutation(n)[:50],
                np.array([5, 5, 0, n - 1, 5]))):
            got = graph_distances_from(matrix, sources, radius)
            expected = graph_distances_reference(matrix, sources, radius)
            for mine, theirs in zip(got, expected, strict=True):
                assert mine.dtype == theirs.dtype
                assert np.array_equal(mine, theirs)
        if name == "disconnected":  # at inf every node, unreachable ones at inf
            assert np.isinf(got[2]).sum() == n * 5 // 2

    @settings(max_examples=150, deadline=None)
    @given(weighted_graphs(), st.data())
    def test_equals_whole_graph_search_on_drawn_graphs(self, matrix, data):
        """Bit for bit the reference on small drawn graphs, whose rows differ
        widely in length within one chunk, at a stored distance, between two
        and at inf (unreachable nodes at inf, tied)."""
        n = matrix.shape[0]
        stored = np.unique(graph_distances_reference(matrix, np.arange(n), np.inf)[2])
        stored = stored[np.isfinite(stored) & (stored > 0.0)]
        between = (stored[:-1] + stored[1:]) / 2.0
        radius = data.draw(st.sampled_from([np.inf, 0.5, *stored.tolist(), *between.tolist()]))
        sources = data.draw(st.one_of(
            st.just(np.arange(n)),
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True).map(np.array),
            st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n).map(np.array)))
        got = graph_distances_from(matrix, sources, radius)
        expected = graph_distances_reference(matrix, sources, radius)
        for mine, theirs in zip(got, expected, strict=True):
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()

    def test_radius_must_be_positive(self, laplace_5x5):
        for radius in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="radius must be positive"):
                graph_distances_from(laplace_5x5.matrix, 0, radius)

    def test_ball_build_caps_dense_blocks(self, monkeypatch):
        """No Dijkstra call of a ball build holds more than 2**18 dense
        entries: the chunks of 256 sources shrink where they reach many nodes."""
        dijkstra, calls = csg.dijkstra, []

        def counting(graph, *args, indices=None, min_only=False, **kwargs):
            rows = 1 if min_only else np.size(indices) if indices is not None else graph.shape[0]
            calls.append((rows * graph.shape[0], np.size(indices), min_only))
            return dijkstra(graph, *args, indices=indices, min_only=min_only, **kwargs)

        monkeypatch.setattr(csg, "dijkstra", counting)
        for matrix in (permuted(generate_case("s-iso").matrix), generate_case("c-aniso").matrix):
            calls.clear()
            GraphDistanceOracle(matrix, 4.0)
            assert max(entries for entries, _, _ in calls) <= 2 ** 18
            chunks = [size for _, size, min_only in calls if not min_only]
            assert sum(chunks) == matrix.shape[0] and 1 < min(chunks) < 256

    @pytest.mark.parametrize("name", ["laplace_7x7", "circle_small"])
    def test_rows_cut_at_a_radius_equal_masked_rows(self, name, request):
        """Rows fetched at the radius, twice it, the reach and a distance some
        rows reach exactly hold the ball-matrix entries within it, one row
        or a stack of rows."""
        problem = request.getfixturevalue(name)
        oracle = GraphDistanceOracle(problem.matrix, 1.5, reach=5.0)
        n = problem.n
        stored = float(np.unique(oracle.distances)[-5])
        row_of = np.repeat(np.arange(n), np.diff(oracle.indptr))
        sources = np.concatenate([np.random.default_rng(2).permutation(n), [3, 3, 0]])
        for radius in (None, 3.0, 5.0, stored):
            within = oracle.distances <= (1.5 if radius is None else radius)
            for s in range(n):
                keep = within & (row_of == s)
                owner, members, dists = oracle.distances_from(s, radius)
                assert owner.tobytes() == np.zeros(keep.sum(), dtype=np.int64).tobytes()
                assert members.tobytes() == oracle.indices[keep].tobytes()
                assert dists.tobytes() == oracle.distances[keep].tobytes()
            owner, members, dists = oracle.distances_from(sources, radius)
            at = np.concatenate([np.flatnonzero(within & (row_of == s)) for s in sources])
            counts = [int((within & (row_of == s)).sum()) for s in sources]
            assert owner.tobytes() == np.repeat(np.arange(sources.size), counts).tobytes()
            assert members.tobytes() == oracle.indices[at].tobytes()
            assert dists.tobytes() == oracle.distances[at].tobytes()
        assert sorted(oracle._cuts) == sorted([1.5, 3.0, 5.0, stored])  # one cut per radius


def filtered_row(oracle, i, rank, cutoff, q_max):
    """The first q_max variables j != i of the oracle's row of i with
    0 < rank[j] <= cutoff, padded with -1, and their distances."""
    _, near, d = oracle.distances_from(i)
    take = [(j, dj) for j, dj in zip(near.tolist(), d.tolist())
            if j != i and 0 < rank[j] <= cutoff][:q_max]
    pad = q_max - len(take)
    return [j for j, _ in take] + [-1] * pad, [dj for _, dj in take]


class TestNearestCoarse:
    def test_single_coarse_neighbor(self, laplace_5x5):
        oracle = GraphDistanceOracle(laplace_5x5.matrix, 4.0)
        rank = np.zeros(25, dtype=np.int64)
        rank[13] = 1
        [members] = nearest_coarse([12], rank, [1], oracle, q_max=4)
        assert members.tolist() == [13, -1, -1, -1]
        assert filtered_row(oracle, 12, rank, 1, 4) == ([13, -1, -1, -1], [1.0])

    def test_grid_neighbors_tie_break_by_index(self, laplace_5x5):
        oracle = GraphDistanceOracle(laplace_5x5.matrix, 4.0)
        rank = np.zeros(25, dtype=np.int64)
        rank[[17, 13, 11, 7]] = [1, 2, 3, 4]
        [members] = nearest_coarse([12], rank, [4], oracle, q_max=4)
        assert members.tolist() == [7, 11, 13, 17]
        assert filtered_row(oracle, 12, rank, 4, 4) == ([7, 11, 13, 17], [1.0] * 4)

    def test_matches_brute_force_oracle(self):
        problem = generate_fd_square(9, (1, 1e-2, 0))
        n = problem.n
        rng = np.random.default_rng(2)
        rank = np.zeros(n, dtype=np.int64)
        rank[rng.choice(n, 20, replace=False)] = 1
        oracle = GraphDistanceOracle(problem.matrix, 4.0)
        lengths = adjacency_lengths(problem.matrix)
        picks = rng.choice(np.flatnonzero(rank == 0), 12, replace=False)
        singles = []
        for i in picks:
            [members] = nearest_coarse([i], rank, [1], oracle, q_max=4)
            full = csg.dijkstra(lengths, directed=False, indices=int(i))
            cands = sorted(
                (full[j], j) for j in np.flatnonzero(rank) if full[j] <= 4.0
            )[:4]
            expected = [j for _, j in cands]
            assert members.tolist() == expected + [-1] * (4 - len(expected))
            assert filtered_row(oracle, i, rank, 1, 4) == (members.tolist(), [d for d, _ in cands])
            singles.append(members)
        # the whole stack at once gives the same sets
        sets = nearest_coarse(picks, rank, [1] * picks.size, oracle, q_max=4)
        assert sets.tobytes() == np.array(singles).tobytes()

    def test_rank_cutoff_equals_per_row_masks(self, laplace_7x7):
        """One stacked call with ranks gives each row the sets of its own
        coarse mask: the coarse variables of rank at most its cut-off, as a
        brute-force filter of the oracle's row finds them."""
        oracle = GraphDistanceOracle(laplace_7x7.matrix, 4.0)
        rank = np.zeros(49, dtype=np.int64)
        rank[[0, 6, 42, 48]] = 1  # coarse before the picks
        rank[[24, 10, 38, 16]] = [2, 3, 4, 5]  # picks, in order
        fine = np.flatnonzero(rank == 0)
        rows, cutoffs = np.repeat(fine, 4), np.tile([2, 3, 4, 5], fine.size)
        sets = nearest_coarse(rows, rank, cutoffs, oracle, 4)
        lost = ties = 0
        for i, cut, members in zip(rows.tolist(), cutoffs.tolist(), sets):
            expected, d = filtered_row(oracle, i, rank, cut, 4)
            assert members.tolist() == expected
            lost += expected != filtered_row(oracle, i, rank, 5, 4)[0]
            ties += len(set(d)) < len(d)
        assert lost > 0 and ties > 0

    def test_may_return_empty(self, laplace_5x5):
        oracle = GraphDistanceOracle(laplace_5x5.matrix, 4.0)
        [members] = nearest_coarse([0], np.zeros(25, dtype=np.int64), [1], oracle, q_max=4)
        assert members.tolist() == [-1] * 4


class TestDistanceCorrelation:
    def test_identical_metrics_give_one(self):
        # 1-D chain: unit edges, coords spaced 1 apart -> both metrics coincide
        n = 40
        diags = [-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)]
        a = sp.diags(diags, [-1, 0, 1]).tocsr()
        coords = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
        problem = ProblemInstance(matrix=a, coords=coords, label="external")
        assert distance_correlation(problem, seed=0) == 1.0

    def test_missing_coordinates(self, laplace_5x5):
        problem = ProblemInstance(matrix=laplace_5x5.matrix, coords=None)
        with pytest.raises(ValueError):
            distance_correlation(problem)

    def test_square_correlation_high(self):
        problem = generate_fd_square(20, (1, 1, 0))
        corr = distance_correlation(problem, seed=1)
        assert 0.9 <= corr <= 1.0

    @pytest.mark.parametrize("case, size", [("s-iso", {"m": 12}), ("c-iso", {"rings": 6})],
                             ids=["s-iso", "c-iso"])
    def test_equals_dense_all_pairs_reference(self, case, size):
        """The same draws read from one all-pairs Dijkstra give the same bits."""
        problem = generate_case(case, **size)
        rng = np.random.default_rng(4)
        sources = rng.choice(problem.n, size=min(CORR_SOURCES, problem.n), replace=False)
        dst = rng.integers(0, problem.n, size=(sources.size, CORR_DESTINATIONS))
        full = csg.dijkstra(adjacency_lengths(problem.matrix))
        d_graph = full[sources[:, None], dst]
        diff = problem.coords[sources][:, None, :] - problem.coords[dst]
        d_coord = np.hypot(diff[..., 0], diff[..., 1])
        keep = dst != sources[:, None]
        expected = float(np.corrcoef(d_graph[keep], d_coord[keep])[0, 1])
        assert distance_correlation(problem, seed=4) == expected

    @pytest.mark.parametrize("m", [12, 6])
    def test_one_single_source_search_per_source(self, m, monkeypatch):
        """min(CORR_SOURCES, n) whole-graph searches, one source each: n=144 and n=36."""
        problem = generate_case("s-iso", m=m)
        searched = []
        dijkstra = csg.dijkstra

        def counting(graph, *args, indices=None, **kwargs):
            searched.append(np.size(indices))
            return dijkstra(graph, *args, indices=indices, **kwargs)

        monkeypatch.setattr(csg, "dijkstra", counting)
        distance_correlation(problem, seed=0)
        assert searched == [1] * min(CORR_SOURCES, problem.n)


class TestEmbeddability:
    def test_collinear_points_embed(self):
        d = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        ok, smallest = check_local_embeddability(d)
        assert ok and smallest >= -1e-10

    def test_triangle_violation_fails(self):
        d = np.array([[0, 1, 1], [1, 0, 10], [1, 10, 0]], dtype=float)
        ok, smallest = check_local_embeddability(d)
        assert not ok and smallest < -1e-6

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)
    ), min_size=3, max_size=7))
    def test_coordinate_distances_always_embed(self, pts):
        pts = np.asarray(pts)
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.hypot(diff[..., 0], diff[..., 1])
        ok, _ = check_local_embeddability(d)
        assert ok

    def test_stack_matches_one_at_a_time(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-5, 5, size=(40, 5, 2))
        d = np.hypot(*(pts[:, :, None, :] - pts[:, None, :, :]).transpose(3, 0, 1, 2))
        d[::3, 0, 4] = d[::3, 4, 0] = 30.0  # break the triangle inequality in some
        ok, smallest = check_local_embeddability(d)
        single = [check_local_embeddability(mat) for mat in d]
        assert ok.tolist() == [verdict for verdict, _ in single]
        assert smallest.tobytes() == np.array([value for _, value in single]).tobytes()
        assert not ok[::3].any() and ok[1::3].all()


class TestOracles:
    def test_graph_pairwise_symmetric_zero_diag(self, laplace_5x5):
        oracle = GraphDistanceOracle(laplace_5x5.matrix, 4.0)
        d = oracle.pairwise([0, 6, 12, 24])
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert d[0, 2] == 4.0  # (0,0) -> (2,2) Manhattan
        # unequal lengths each way (1 from 0 to 1, 2 back): the shorter serves both
        skew = GraphDistanceOracle(sp.csr_matrix([[2.0, -1.0], [-0.5, 2.0]]), 4.0)
        np.testing.assert_array_equal(skew.pairwise([[0, 1], [1, 0]]), [[[0, 1], [1, 0]]] * 2)

    def test_pairwise_inf_beyond_twice_radius(self, laplace_5x5):
        oracle = GraphDistanceOracle(laplace_5x5.matrix, 1.0)
        expected = np.array([[0, 1, np.inf], [1, 0, np.inf], [np.inf, np.inf, 0]])
        np.testing.assert_array_equal(oracle.pairwise([0, 1, 12]), expected)
        oracle = GraphDistanceOracle(laplace_5x5.matrix, 1.0, reach=6.0)  # a ball matrix past 2r
        assert oracle.reach == 6.0
        np.testing.assert_array_equal(oracle.pairwise([0, 1, 12]), expected)
        stack = oracle.pairwise([[0, 1, 12], [12, 7, 13]])
        np.testing.assert_array_equal(stack[0], expected)
        np.testing.assert_array_equal(stack[1], oracle.pairwise([12, 7, 13]))
        assert stack[1][1, 2] == 2.0

    def test_pairwise_reads_padding_as_inf_without_a_lookup(self, laplace_7x7, monkeypatch):
        """Rows padded with -1: the pairs of real nodes read as in the unpadded
        set, a pair with a padded node reads inf, and only the real pairs are
        looked up."""
        oracle = GraphDistanceOracle(laplace_7x7.matrix, 2.0)
        oracle.pairwise([0, 1])  # builds the pair index
        sets = np.array([[8, 9, -1, -1, 16], [3, -1, -1, -1, 10], [24, 25, 31, 17, 23]])
        queries = []
        searchsorted = np.searchsorted

        def counting(keys, query, *args, **kwargs):
            queries.append(np.size(query))
            return searchsorted(keys, query, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counting)
        got = oracle.pairwise(sets)
        monkeypatch.undo()
        assert queries == [6 + 2 + 20]
        for nodes, d in zip(sets, got):
            real = nodes >= 0
            assert d[np.ix_(real, real)].tobytes() == oracle.pairwise(nodes[real]).tobytes()
            pad = real[:, None] != real[None, :]
            assert np.isinf(d[pad]).all()
            assert (np.diagonal(d) == 0.0).all()

    def test_pairwise_matches_full_rows_reference(self):
        """Random sets, whose nodes often lie more than twice the radius
        apart, and sets inside one ball, also on a ball matrix built with a
        longer reach; and a stack equals its sets one at a time."""
        skew = sp.csr_matrix([[2.0, -1.0], [-0.5, 2.0]])  # unequal lengths each way
        matrices = [generate_case(case, m=12, rings=7).matrix
                    for case in ("s-iso", "s-aniso", "c-iso", "c-aniso")]
        rng = np.random.default_rng(5)
        for matrix, radius in itertools.product([*matrices, skew], (1.0, 2.5)):
            n = matrix.shape[0]
            for reach in (None, 3.0 * radius):
                oracle = GraphDistanceOracle(matrix, radius, reach=reach)
                for k in range(1, 6):
                    local = [rng.choice(oracle.distances_from(c)[1], size=k)  # one ball: 2r across
                             for c in rng.integers(n, size=40)]
                    sets = np.concatenate([rng.integers(n, size=(40, k)), local])
                    got = oracle.pairwise(sets)
                    assert got.shape == (80, k, k)
                    assert got.tobytes() == pairwise_reference(matrix, radius, sets).tobytes()
                    assert np.isfinite(got[40:]).all()
                    assert matrix is skew or k == 1 or np.isinf(got[:40]).any()

        problem = generate_fd_square(20, (1, 1, 0))
        oracle = GraphDistanceOracle(problem.matrix, 2.0)
        sets = np.array([rng.choice(problem.n, size=5, replace=False) for _ in range(300)])
        stack = oracle.pairwise(sets)
        assert stack.shape == (300, 5, 5)
        for nodes, d in zip(sets, stack):
            assert d.tobytes() == oracle.pairwise(nodes).tobytes()
        assert np.isfinite(stack).any() and np.isinf(stack).any()

    def test_pair_index_built_by_the_first_pairwise(self, laplace_7x7):
        oracle = GraphDistanceOracle(laplace_7x7.matrix, 1.0)
        oracle.distances_from(np.arange(laplace_7x7.n), 2.0)
        oracle.distances_from(3)
        assert oracle._pairs is None
        first = oracle.pairwise([0, 1, 8])
        pairs = oracle._pairs
        keys, at = pairs
        assert keys.size == oracle.indices.size
        oracle.distances_from(0, 2.0)
        assert oracle.pairwise([0, 1, 8]).tobytes() == first.tobytes()
        assert oracle._pairs is pairs  # built once

    def test_ball_matrix_stores_12_bytes_per_entry(self):
        problem = generate_case("c-iso", rings=8)
        oracle = GraphDistanceOracle(problem.matrix, 4.0)
        entries = oracle.indices.size
        assert entries == oracle.distances.size == oracle.indptr[-1] > problem.n
        assert oracle.indices.nbytes + oracle.distances.nbytes <= 12 * entries
        assert oracle.indptr.size == problem.n + 1

    @pytest.mark.parametrize("rings", [3, 8, 30])
    def test_pair_index_stores_8_bytes_per_entry(self, rings):
        """Sorted keys i*n + j and their positions, each in the narrowest
        signed integers that hold it: at most 4 bytes each while n*n < 2**31."""
        problem = generate_case("c-iso", rings=rings)
        oracle = GraphDistanceOracle(problem.matrix, 2.0)
        oracle.pairwise([0, 1])
        keys, at = oracle._pairs
        entries, n = oracle.indices.size, problem.n
        assert n * n < 2 ** 31 and keys.size == at.size == entries
        assert keys.nbytes + at.nbytes <= 8 * entries
        assert np.all(np.diff(keys.astype(np.int64)) > 0)
        rows = np.repeat(np.arange(n), np.diff(oracle.indptr))
        assert np.array_equal(rows[at] * n + oracle.indices[at], keys)

    def test_median_neighbor_distance(self, laplace_5x5):
        assert median_neighbor_distance(laplace_5x5.matrix) == 1.0
        with pytest.raises(ValueError, match="no edges"):
            median_neighbor_distance(sp.diags([1.0, 2.0, 3.0]).tocsr())

    def test_median_neighbor_distance_unequal_edges(self):
        # edge lengths 1/|A_ij| differ per row; rows 0, 3 and 6 have no edges
        a = sp.lil_matrix((7, 7))
        a.setdiag(10.0)
        for i, j, v in ((1, 2, -0.5), (1, 4, -1.0), (2, 5, -0.25), (4, 5, -2.0)):
            a[i, j] = a[j, i] = v
        lengths = adjacency_lengths(a.tocsr())
        mins = [lengths.getrow(i).data.min() for i in range(7) if lengths.getrow(i).nnz]
        assert mins == [1.0, 2.0, 0.5, 0.5]
        assert median_neighbor_distance(a.tocsr()) == np.median(mins)


class TestKeptBall:
    """One ball matrix is kept, read-only, per matrix bytes and reach."""

    X = LAPLACIAN * 1.25  # scaled: no other test builds on these bytes
    Y = LAPLACIAN * 1.5

    def test_one_build_per_matrix_bytes_and_reach(self, monkeypatch):
        GraphDistanceOracle(sp.identity(3, format="csr"), 1.0)  # whatever was kept goes
        builds = []
        search = metric.graph_distances_from

        def counting(*args):
            builds.append(1)
            return search(*args)

        monkeypatch.setattr(metric, "graph_distances_from", counting)
        counts = []
        oracles = []
        for matrix, radius in ((self.X, 2.0), (self.Y, 2.0), (self.X, 2.0),
                               (self.X.copy(), 2.0), (self.X, 3.0)):
            before = len(builds)
            oracles.append(GraphDistanceOracle(matrix, radius))
            counts.append(len(builds) - before)
        assert counts == [1, 1, 1, 0, 1]
        x, copy = oracles[2], oracles[3]
        assert x.matrix is not copy.matrix
        for name in ("indptr", "indices", "distances"):
            assert getattr(copy, name) is getattr(x, name)

    def test_kept_ball_is_bounded_and_read_only(self):
        first = GraphDistanceOracle(self.X, 2.0)
        for name in ("indptr", "indices", "distances"):
            with pytest.raises(ValueError):
                getattr(first, name)[0] = 1
        kept = weakref.ref(first.distances)
        GraphDistanceOracle(self.Y, 2.0)
        del first
        gc.collect()
        assert kept() is None

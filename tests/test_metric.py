import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csg
from hypothesis import given, settings
from hypothesis import strategies as st

from krigamg.metric import (
    GraphDistanceOracle,
    adjacency_lengths,
    check_local_embeddability,
    distance_correlation,
    graph_distances_from,
    median_neighbor_distance,
    nearest_coarse,
)
from krigamg.problems import ProblemInstance, generate_case, generate_fd_square


class TestGraphDistances:
    def test_unit_grid_neighbors(self, laplace_5x5):
        a = laplace_5x5.matrix
        d = graph_distances_from(a, 12, radius=4.0)  # center of 5x5
        assert d[12] == 0.0
        assert d[11] == 1.0 and d[13] == 1.0  # x-neighbors
        assert d[7] == 1.0 and d[17] == 1.0  # y-neighbors
        assert d[6] == 2.0  # diagonal neighbor via two unit edges

    def test_aniso_excludes_weak_direction(self):
        problem = generate_fd_square(7, (1, 1e-2, 0))
        d = graph_distances_from(problem.matrix, 24, radius=4.0)  # center
        m = 7
        assert d[24 - 1] == 1.0 and d[24 + 1] == 1.0
        assert (24 + m) not in d and (24 - m) not in d  # y-edge has length 100

    def test_radius_below_edge_length(self, laplace_5x5):
        d = graph_distances_from(laplace_5x5.matrix, 3, radius=0.5)
        assert d == {3: 0.0}

    def test_isolated_vertex(self):
        a = sp.diags([1.0, 2.0]).tocsr()
        assert graph_distances_from(a, 0, radius=5.0) == {0: 0.0}

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
            for src in sources:
                full = csg.dijkstra(lengths, directed=False, indices=src)
                got = graph_distances_from(problem.matrix, src, radius)
                expected = {j: full[j] for j in range(problem.n) if full[j] <= radius}
                assert got == expected
                assert list(got) == [j for _, j in sorted((d, j) for j, d in got.items())]
        ties = graph_distances_from(laplace_5x5.matrix, 12, 2.0)
        assert sum(d == 2.0 for d in ties.values()) == 8


class TestNearestCoarse:
    def test_single_coarse_neighbor(self, laplace_5x5):
        oracle = GraphDistanceOracle(laplace_5x5.matrix, 4.0)
        coarse = np.zeros(25, dtype=bool)
        coarse[13] = True
        members, dists = nearest_coarse(12, coarse, oracle, q_max=4)
        assert members == [13]
        np.testing.assert_allclose(dists, [1.0])

    def test_grid_neighbors_tie_break_by_index(self, laplace_5x5):
        oracle = GraphDistanceOracle(laplace_5x5.matrix, 4.0)
        coarse = np.zeros(25, dtype=bool)
        coarse[[7, 11, 13, 17]] = True
        members, dists = nearest_coarse(12, coarse, oracle, q_max=4)
        assert members == [7, 11, 13, 17]
        np.testing.assert_allclose(dists, np.ones(4))

    def test_matches_brute_force_oracle(self):
        problem = generate_fd_square(9, (1, 1e-2, 0))
        n = problem.n
        rng = np.random.default_rng(2)
        coarse = np.zeros(n, dtype=bool)
        coarse[rng.choice(n, 20, replace=False)] = True
        oracle = GraphDistanceOracle(problem.matrix, 4.0)
        lengths = adjacency_lengths(problem.matrix)
        for i in rng.choice(np.flatnonzero(~coarse), 12, replace=False):
            members, _ = nearest_coarse(int(i), coarse, oracle, q_max=4)
            full = csg.dijkstra(lengths, directed=False, indices=int(i))
            cands = sorted(
                (full[j], j) for j in np.flatnonzero(coarse) if full[j] <= 4.0
            )[:4]
            assert members == [j for _, j in cands]

    def test_may_return_empty(self, laplace_5x5):
        oracle = GraphDistanceOracle(laplace_5x5.matrix, 4.0)
        members, dists = nearest_coarse(0, np.zeros(25, dtype=bool), oracle, q_max=4)
        assert members == [] and dists.size == 0


class TestDistanceCorrelation:
    def test_identical_metrics_give_one(self):
        # 1-D chain: unit edges, coords spaced 1 apart -> both metrics coincide
        n = 40
        diags = [-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)]
        a = sp.diags(diags, [-1, 0, 1]).tocsr()
        coords = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
        problem = ProblemInstance(matrix=a, coords=coords, label="external")
        assert distance_correlation(problem, sample_pairs=500, seed=0) == 1.0

    def test_missing_coordinates(self, laplace_5x5):
        problem = ProblemInstance(matrix=laplace_5x5.matrix, coords=None)
        with pytest.raises(ValueError):
            distance_correlation(problem)

    def test_square_correlation_high(self):
        problem = generate_fd_square(20, (1, 1, 0))
        corr = distance_correlation(problem, sample_pairs=2000, seed=1)
        assert 0.9 <= corr <= 1.0


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


class TestOracles:
    def test_graph_pairwise_symmetric_zero_diag(self, laplace_5x5):
        oracle = GraphDistanceOracle(laplace_5x5.matrix, 4.0)
        d = oracle.pairwise([0, 6, 12, 24])
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert d[0, 2] == 4.0  # (0,0) -> (2,2) Manhattan

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

import numpy as np
import pytest
import scipy.sparse as sp

from krigamg import pipeline
from krigamg.coarsen import (
    build_interpolation,
    coarsen,
    embeddability_failure_fraction,
    init_variances,
    select_batch,
    select_next,
    update_after_add,
    write_interpolation_mtx,
    write_splitting_csv,
)
from krigamg.covariance import EmpiricalCovariance, ParametricCovariance, ParametricModel
from krigamg.kriging import assemble_local_cov, ordinary_kriging
from krigamg.metric import GraphDistanceOracle, nearest_coarse
from krigamg.problems import ProblemInstance, generate_fd_square


def parametric_source(problem, radius=4.0, family="exponential", sigma2=1.0, eta=2.0):
    oracle = GraphDistanceOracle(problem.matrix, radius)
    return ParametricCovariance(ParametricModel(family, sigma2, eta), oracle), oracle


class TestInit:
    def test_parametric_prior_is_sill(self, laplace_5x5):
        src, _ = parametric_source(laplace_5x5, sigma2=1.7)
        state = init_variances(laplace_5x5, src)
        assert np.all(state.variance == 1.7)
        assert state.num_coarse == 0
        assert all(s.members == [] for s in state.stencils)

    def test_empirical_prior_is_diagonal(self, laplace_5x5):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((25, 3))
        src = EmpiricalCovariance(v, mean_mode="zero")
        state = init_variances(laplace_5x5, src)
        expected = np.sum(v * v, axis=1) / 3
        np.testing.assert_allclose(state.variance, expected, rtol=1e-12)

    def test_single_variable_problem(self):
        problem = ProblemInstance(matrix=sp.csr_matrix(np.array([[2.0]])))
        rng = np.random.default_rng(1)
        src = EmpiricalCovariance(rng.standard_normal((1, 2)))
        state = init_variances(problem, src)
        assert state.variance.shape == (1,)
        assert state.variance[0] == pytest.approx(src.entry(0, 0))


class TestSelect:
    def test_uniform_tie_picks_first(self, laplace_5x5):
        src, _ = parametric_source(laplace_5x5)
        state = init_variances(laplace_5x5, src)
        assert select_next(state) == 0

    def test_strict_maximum(self, laplace_5x5):
        src, _ = parametric_source(laplace_5x5)
        state = init_variances(laplace_5x5, src)
        state.variance[17] = 2.0
        assert select_next(state) == 17

    def test_mid_run_matches_full_scan(self, laplace_7x7):
        src, oracle = parametric_source(laplace_7x7)
        state = init_variances(laplace_7x7, src)
        rng = np.random.default_rng(3)
        for _ in range(10):
            update_after_add(state, [select_next(state)], oracle, src, 4, 4.0)
            masked = [
                (state.variance[i], i)
                for i in range(state.n)
                if not state.is_coarse[i]
            ]
            best = max(masked, key=lambda t: (t[0], -t[1]))
            assert select_next(state) == best[1]

    def test_empty_fine_set_raises(self, laplace_5x5):
        src, oracle = parametric_source(laplace_5x5)
        state, _ = coarsen(laplace_5x5, src, n_coarse=25, q_max=4, radius=4.0,
                           oracle=oracle)
        with pytest.raises(ValueError):
            select_next(state)


class TestSelectBatch:
    def test_infinite_separation_degenerates_to_single(self, laplace_5x5):
        src, oracle = parametric_source(laplace_5x5)
        state = init_variances(laplace_5x5, src)
        state.variance[7] = 2.0
        batch = select_batch(state, oracle, min_separation=np.inf)
        assert batch == [select_next(state)] == [7]

    def test_two_distant_maxima_both_accepted(self, laplace_7x7):
        src, oracle = parametric_source(laplace_7x7)
        state = init_variances(laplace_7x7, src)
        state.variance[:] = 0.5
        state.variance[0] = 2.0
        state.variance[48] = 2.0  # opposite corner, distance 12
        batch = select_batch(state, oracle, min_separation=8.0)
        assert batch[:2] == [0, 48]

    def test_batch_update_equals_sequential_replay(self, laplace_7x7):
        # additions farther apart than 2*radius have disjoint update balls
        src, oracle = parametric_source(laplace_7x7, radius=2.0)
        added = [0, 24, 48]  # pairwise distance >= 8 > 2*radius
        batched = init_variances(laplace_7x7, src)
        update_after_add(batched, added, oracle, src, 4, 2.0)
        sequential = init_variances(laplace_7x7, src)
        for a in added:
            update_after_add(sequential, [a], oracle, src, 4, 2.0)
        assert batched.coarse_order == sequential.coarse_order
        np.testing.assert_array_equal(batched.variance, sequential.variance)
        for i in range(batched.n):
            s1, s2 = batched.stencils[i], sequential.stencils[i]
            if s1 is None:
                assert s2 is None
                continue
            assert s1.members == s2.members
            np.testing.assert_allclose(s1.weights, s2.weights, atol=1e-15)

    def test_batched_coarsen_respects_min_separation(self, laplace_7x7):
        src, oracle = parametric_source(laplace_7x7, radius=1.0)
        state, _ = coarsen(laplace_7x7, src, n_coarse=8, q_max=2, radius=1.0,
                           batch=True, min_separation=2.0, oracle=oracle)
        assert state.num_coarse == 8

    def test_min_separation_validated(self, laplace_5x5):
        src, oracle = parametric_source(laplace_5x5)
        with pytest.raises(ValueError):
            coarsen(laplace_5x5, src, n_coarse=4, q_max=4, radius=4.0,
                    batch=True, min_separation=4.0, oracle=oracle)


class TestUpdate:
    def test_isolated_add_touches_only_itself(self):
        problem = ProblemInstance(matrix=sp.diags([2.0, 3.0, 4.0]).tocsr())
        rng = np.random.default_rng(2)
        src = EmpiricalCovariance(rng.standard_normal((3, 2)))
        oracle = GraphDistanceOracle(problem.matrix, 4.0)
        state = init_variances(problem, src)
        before = state.variance.copy()
        update_after_add(state, [1], oracle, src, 2, 4.0)
        assert state.is_coarse[1] and state.variance[1] == 0.0
        assert state.variance[0] == before[0] and state.variance[2] == before[2]
        assert state.last_affected == []

    def test_first_add_gives_singleton_unit_stencils(self, laplace_5x5):
        src, oracle = parametric_source(laplace_5x5)
        state = init_variances(laplace_5x5, src)
        update_after_add(state, [12], oracle, src, 4, 4.0)
        for j in state.last_affected:
            stencil = state.stencils[j]
            assert stencil.members == [12]
            np.testing.assert_allclose(stencil.weights, [1.0], atol=1e-12)

    def test_already_coarse_rejected(self, laplace_5x5):
        src, oracle = parametric_source(laplace_5x5)
        state = init_variances(laplace_5x5, src)
        update_after_add(state, [0], oracle, src, 4, 4.0)
        with pytest.raises(ValueError):
            update_after_add(state, [0], oracle, src, 4, 4.0)

    def test_incremental_equals_full_recompute_7x7(self, laplace_7x7):
        src, oracle = parametric_source(laplace_7x7)
        q_max, radius = 4, 4.0
        state = init_variances(laplace_7x7, src)
        for _ in range(12):
            update_after_add(state, [select_next(state)], oracle, src, q_max, radius)
            # from-scratch recomputation of every fine stencil
            for j in range(state.n):
                if state.is_coarse[j]:
                    continue
                members, _ = nearest_coarse(j, state.is_coarse, oracle, q_max, radius)
                stencil = state.stencils[j]
                assert stencil.members == members
                if members:
                    local = assemble_local_cov(j, members, src)
                    fresh = ordinary_kriging(j, members, local)
                    np.testing.assert_allclose(
                        stencil.weights, fresh.weights, atol=1e-12
                    )
                    assert state.variance[j] == pytest.approx(
                        max(fresh.simple_variance, 0.0), abs=1e-12
                    )


class TestCoarsen:
    def test_all_coarse_gives_identity(self, laplace_5x5):
        src, oracle = parametric_source(laplace_5x5)
        state, interp = coarsen(laplace_5x5, src, n_coarse=25, q_max=4, radius=4.0,
                                oracle=oracle)
        p = interp.to_csr().toarray()
        # permutation matrix: unit row per variable, P P^T = I
        for i in range(25):
            assert p[i, interp.coarse_index[i]] == 1.0
        np.testing.assert_array_equal(p @ p.T, np.eye(25))
        assert np.all(state.variance == 0.0)

    def test_quarter_coarsening_rows_sum_to_one(self):
        problem = generate_fd_square(15, (1, 1, 0))
        from krigamg.pipeline import RunConfig

        cfg = RunConfig(case="s-iso", model="sph", K=1, seed=1, grid_m=15)
        src = pipeline.setup(cfg, problem).source
        n_c = problem.n // 4
        state, interp = coarsen(problem, src, n_coarse=n_c, q_max=4, radius=4.0)
        assert interp.n_c == n_c
        p = interp.to_csr()
        sums = np.asarray(p.sum(axis=1)).ravel()
        fine = ~state.is_coarse
        np.testing.assert_allclose(sums[fine], 1.0, atol=1e-10)
        np.testing.assert_allclose(sums[~fine], 1.0, atol=0)  # unit coarse rows
        # caliber bound
        nnz_per_row = np.diff(p.indptr)
        assert np.all(nnz_per_row[fine] <= 4)

    def test_tolerance_mode_stops_early(self, laplace_7x7):
        # radius covers the grid, long range: singleton variance 2*gamma(d) is tiny
        src, oracle = parametric_source(
            laplace_7x7, radius=50.0, family="exponential", sigma2=1.0, eta=1000.0
        )
        state, interp = coarsen(
            laplace_7x7, src, tolerance=0.99, q_max=1, radius=50.0, oracle=oracle
        )
        assert 1 <= state.num_coarse < 10
        fine = state.fine_indices()
        assert state.variance[fine].max() <= 0.99
        # singleton stencils: selection variance is the conditional one,
        # sigma2 - C(d)^2/sigma2 for the nearest coarse point
        model = src.model
        for j in fine:
            stencil = state.stencils[j]
            assert len(stencil.members) == 1
            d = oracle.distances_from(j, 50.0)[stencil.members[0]]
            c = model.cov(d)
            assert state.variance[j] == pytest.approx(
                model.sigma2 - c * c / model.sigma2, rel=1e-10
            )
            # the stencil's own (BLUP) variance is 2*gamma(d)
            assert stencil.variance == pytest.approx(2 * model.gamma(d), rel=1e-10)

    def test_unreachable_tolerance_goes_full_coarse(self, laplace_5x5):
        src, oracle = parametric_source(laplace_5x5, radius=50.0)
        state, interp = coarsen(
            laplace_5x5, src, tolerance=1e-30, q_max=4, radius=50.0, oracle=oracle
        )
        assert state.num_coarse == 25
        p = interp.to_csr().toarray()
        np.testing.assert_array_equal(p @ p.T, np.eye(25))

    def test_determinism(self, laplace_7x7):
        src, oracle = parametric_source(laplace_7x7)
        c1, _ = coarsen(laplace_7x7, src, n_coarse=12, q_max=4, radius=4.0, oracle=oracle)
        src2, oracle2 = parametric_source(laplace_7x7)
        c2, _ = coarsen(laplace_7x7, src2, n_coarse=12, q_max=4, radius=4.0, oracle=oracle2)
        assert c1.coarse_order == c2.coarse_order

    def test_variance_zero_on_coarse_and_monotone_under_growth(self, laplace_7x7):
        # monotonicity of the simple variance holds when the interpolatory
        # set grows; caliber truncation may swap members, in which case a
        # closer-but-redundant point can displace an informative one
        src, oracle = parametric_source(laplace_7x7)
        state = init_variances(laplace_7x7, src)
        prev_members = [list(s.members) for s in state.stencils]
        prev_var = state.variance.copy()
        for _ in range(15):
            update_after_add(state, [select_next(state)], oracle, src, 4, 4.0)
            assert np.all(state.variance[state.is_coarse] == 0.0)
            for j in range(state.n):
                if state.is_coarse[j]:
                    continue
                members = state.stencils[j].members
                if set(prev_members[j]).issubset(members):
                    assert state.variance[j] <= prev_var[j] + 1e-12
                prev_members[j] = list(members)
            prev_var = state.variance.copy()

    def test_bad_targets_rejected(self, laplace_5x5):
        src, oracle = parametric_source(laplace_5x5)
        with pytest.raises(ValueError):
            coarsen(laplace_5x5, src, q_max=4, radius=4.0, oracle=oracle)
        with pytest.raises(ValueError):
            coarsen(laplace_5x5, src, n_coarse=30, q_max=4, radius=4.0, oracle=oracle)
        with pytest.raises(ValueError):
            coarsen(laplace_5x5, src, n_coarse=5, tolerance=0.1, q_max=4,
                    radius=4.0, oracle=oracle)


class TestExports:
    def test_splitting_csv_and_p_mtx(self, tmp_path, laplace_5x5):
        src, oracle = parametric_source(laplace_5x5)
        state, interp = coarsen(laplace_5x5, src, n_coarse=6, q_max=4, radius=4.0,
                                oracle=oracle)
        split = tmp_path / "split.csv"
        write_splitting_csv(laplace_5x5, state, split)
        lines = split.read_text().strip().splitlines()
        assert lines[0] == "index,x,y,role"
        assert len(lines) == 26
        roles = [line.split(",")[3] for line in lines[1:]]
        assert roles.count("C") == 6
        pmtx = tmp_path / "p.mtx"
        write_interpolation_mtx(interp, pmtx)
        import scipy.io

        back = scipy.io.mmread(pmtx)
        np.testing.assert_allclose(back.toarray(), interp.to_csr().toarray())

    def test_embeddability_fraction_range(self, laplace_7x7):
        src, oracle = parametric_source(laplace_7x7)
        state, _ = coarsen(laplace_7x7, src, n_coarse=12, q_max=4, radius=4.0,
                           oracle=oracle)
        frac = embeddability_failure_fraction(state, oracle)
        assert 0.0 <= frac <= 1.0

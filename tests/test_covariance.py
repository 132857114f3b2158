import numpy as np
import pytest

from krigamg.covariance import (
    EmpiricalCovariance,
    ParametricCovariance,
    ParametricModel,
    bin_semivariogram,
    build_variogram_cloud,
    fit_semivariogram,
    write_model_curve_csv,
    write_semivariogram_csv,
    EmpiricalSemivariogram,
    VariogramCloud,
)
from krigamg.metric import GraphDistanceOracle
from krigamg.problems import generate_fd_square
from krigamg.smoother import generate_test_vectors

from oracles import empirical_cov_entry


class TestEmpiricalEntries:
    def test_single_vector_zero_mean_product(self):
        v = np.array([[2.0], [3.0]])
        assert empirical_cov_entry(v, 0, 1, "zero") == 6.0

    def test_estimated_mean_hand_value(self):
        v = np.array([[1.0, 3.0], [1.0, 5.0]])
        assert empirical_cov_entry(v, 0, 1, "estimated") == pytest.approx(2.0)

    def test_symmetry_bit_exact(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((10, 4))
        for mode in ("zero", "estimated"):
            for i in range(10):
                for j in range(10):
                    assert empirical_cov_entry(v, i, j, mode) == empirical_cov_entry(
                        v, j, i, mode
                    )

    def test_modes_agree_for_centered_columns(self):
        rng = np.random.default_rng(1)
        half = rng.standard_normal((8, 3))
        v = np.hstack([half, -half])  # per-variable mean exactly zero
        for i, j in [(0, 1), (2, 5), (7, 7)]:
            assert empirical_cov_entry(v, i, j, "zero") == pytest.approx(
                empirical_cov_entry(v, i, j, "estimated"), abs=1e-12
            )

    def test_source_local_matrix_matches_entries(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((12, 5))
        src = EmpiricalCovariance(v, mean_mode="zero")
        nodes = [1, 4, 9]
        local = src.local_matrix(nodes)
        for a, i in enumerate(nodes):
            for b, j in enumerate(nodes):
                assert local[a, b] == pytest.approx(empirical_cov_entry(v, i, j), rel=1e-14)


class TestVariogramCloud:
    def test_constant_vector_all_zero(self, laplace_5x5):
        oracle = GraphDistanceOracle(laplace_5x5.matrix, 4.0)
        v = np.ones((25, 1))
        cloud = build_variogram_cloud(v, oracle, max_distance=3.0)
        assert cloud.sq_diffs.size > 0
        assert np.all(cloud.sq_diffs == 0.0)

    def test_two_variable_problem_k_points(self):
        import scipy.sparse as sp

        a = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        oracle = GraphDistanceOracle(a, 4.0)
        v = np.random.default_rng(0).standard_normal((2, 3))
        cloud = build_variogram_cloud(v, oracle, max_distance=2.0)
        assert cloud.distances.shape == (1,)
        assert cloud.num_points == 3
        np.testing.assert_allclose(cloud.distances, [1.0])

    def test_exhaustive_matches_brute_force(self, laplace_5x5):
        a = laplace_5x5.matrix
        oracle = GraphDistanceOracle(a, 6.0)
        rng = np.random.default_rng(3)
        v = rng.standard_normal((25, 2))
        cloud = build_variogram_cloud(v, oracle, max_distance=3.0)
        # brute-force double loop over full shortest-path distances
        import scipy.sparse.csgraph as csg
        from krigamg.metric import adjacency_lengths

        full = csg.dijkstra(adjacency_lengths(a), directed=False)
        expected = {}
        for i in range(25):
            for j in range(i + 1, 25):
                if full[i, j] <= 3.0:
                    expected[(i, j)] = (full[i, j], (v[i] - v[j]) ** 2)
        assert cloud.distances.shape[0] == len(expected)
        got = {}
        k = 0
        for d, sq in zip(cloud.distances, cloud.sq_diffs):
            got[k] = (d, sq)
            k += 1
        total_expected = sum(sq.sum() for _, sq in expected.values())
        assert cloud.sq_diffs.sum() == pytest.approx(total_expected, rel=1e-12)
        assert sorted(cloud.distances) == pytest.approx(
            sorted(d for d, _ in expected.values())
        )

    def test_budget_subsample_deterministic(self, laplace_7x7):
        oracle = GraphDistanceOracle(laplace_7x7.matrix, 6.0)
        v = np.random.default_rng(1).standard_normal((49, 1))
        c1 = build_variogram_cloud(v, oracle, 4.0, pair_budget=50, seed=9)
        c2 = build_variogram_cloud(v, oracle, 4.0, pair_budget=50, seed=9)
        assert np.array_equal(c1.distances, c2.distances)
        assert c1.distances.shape == (50,)


class TestBinning:
    def test_single_point(self):
        cloud = VariogramCloud(np.array([1.0]), np.array([[4.0]]))
        emp = bin_semivariogram(cloud, 0.5)
        assert len(emp) == 1
        assert emp.gammas[0] == pytest.approx(2.0)
        assert emp.counts[0] == 1

    def test_two_points_one_bin(self):
        cloud = VariogramCloud(np.array([1.0, 1.1]), np.array([[4.0], [0.0]]))
        emp = bin_semivariogram(cloud, 0.5)
        assert len(emp) == 1
        assert emp.gammas[0] == pytest.approx(1.0)
        assert emp.centers[0] == pytest.approx(1.25)

    def test_empty_cloud(self):
        cloud = VariogramCloud(np.empty(0), np.empty((0, 1)))
        emp = bin_semivariogram(cloud, 1.0)
        assert len(emp) == 0

    def test_bins_equal_half_mean_oracle(self):
        rng = np.random.default_rng(4)
        d = rng.uniform(0.1, 6.0, size=200)
        sq = rng.exponential(1.0, size=(200, 3))
        emp = bin_semivariogram(VariogramCloud(d, sq), 0.75)
        for center, count, gamma in zip(emp.centers, emp.counts, emp.gammas):
            b = int(center / 0.75)
            mask = (d >= b * 0.75) & (d < (b + 1) * 0.75)
            vals = sq[mask].ravel()
            assert count == vals.size
            assert gamma == pytest.approx(0.5 * vals.mean(), rel=1e-12)


class TestModels:
    def test_covariance_at_zero_is_sill(self):
        for fam in ("exponential", "spherical"):
            model = ParametricModel(fam, 2.5, 3.0)
            assert model.cov(0.0) == pytest.approx(2.5)
            assert model.gamma(0.0) == 0.0

    def test_exponential_closed_form(self):
        model = ParametricModel("exponential", 1.0, 1.0)
        assert model.cov(1.0) == pytest.approx(np.exp(-1.0))

    def test_spherical_values_and_support(self):
        model = ParametricModel("spherical", 1.0, 2.0)
        assert model.cov(2.0) == 0.0
        assert model.cov(1.0) == pytest.approx(0.3125)
        assert model.cov(5.0) == 0.0
        assert np.all(model.cov(np.linspace(2.0, 50.0, 20)) == 0.0)

    def test_covariance_nonincreasing_on_grid(self):
        grid = np.linspace(0.0, 20.0, 1000)
        for fam in ("exponential", "spherical"):
            model = ParametricModel(fam, 1.7, 4.2)
            c = model.cov(grid)
            assert np.all(np.diff(c) <= 1e-15)
            assert c[0] == pytest.approx(1.7)

    def test_infinite_distance_gives_zero(self):
        for fam in ("exponential", "spherical"):
            model = ParametricModel(fam, 1.0, 2.0)
            assert model.cov(np.inf) == 0.0


class TestFit:
    def _emp_from_model(self, family, sigma2, eta):
        h = np.arange(0.5, 10.01, 0.5)
        model = ParametricModel(family, sigma2, eta)
        return EmpiricalSemivariogram(
            bin_width=0.5,
            centers=h,
            counts=np.full(h.size, 100, dtype=int),
            gammas=np.asarray(model.gamma(h)),
        )

    def test_exponential_self_consistency(self):
        emp = self._emp_from_model("exponential", 1.0, 2.0)
        fit = fit_semivariogram(emp, "exponential")
        assert fit.sigma2 == pytest.approx(1.0, rel=1e-3)
        assert fit.eta == pytest.approx(2.0, rel=1e-3)

    def test_spherical_self_consistency(self):
        emp = self._emp_from_model("spherical", 2.0, 3.0)
        fit = fit_semivariogram(emp, "spherical")
        assert fit.sigma2 == pytest.approx(2.0, rel=1e-3)
        assert fit.eta == pytest.approx(3.0, rel=1e-3)

    def test_constant_sill_degenerate(self):
        h = np.arange(0.5, 8.01, 0.5)
        emp = EmpiricalSemivariogram(0.5, h, np.full(h.size, 10, dtype=int),
                                     np.full(h.size, 3.0))
        fit = fit_semivariogram(emp, "exponential")
        assert fit.sigma2 == pytest.approx(3.0, rel=0.05)
        gam = np.asarray(fit.gamma(h))
        assert np.all(np.abs(gam - 3.0) < 0.1)

    def test_requires_two_bins(self):
        emp = EmpiricalSemivariogram(0.5, np.array([0.75]), np.array([5]),
                                     np.array([1.0]))
        with pytest.raises(ValueError):
            fit_semivariogram(emp, "spherical")

    def test_fit_beats_grid(self):
        rng = np.random.default_rng(8)
        h = np.arange(0.5, 9.0, 0.5)
        true = ParametricModel("exponential", 1.3, 2.7)
        noisy = np.asarray(true.gamma(h)) * rng.uniform(0.9, 1.1, h.size)
        emp = EmpiricalSemivariogram(0.5, h, np.full(h.size, 40, dtype=int), noisy)
        fit = fit_semivariogram(emp, "exponential")
        w = emp.counts / h**2

        def wls(model):
            r = noisy - np.asarray(model.gamma(h))
            return float(w @ (r * r))

        fit_obj = wls(fit)
        for s2 in np.logspace(-1, 1, 21) * noisy.max():
            for eta in np.logspace(np.log10(h.min() / 4), np.log10(4 * h.max()), 25):
                assert fit_obj <= wls(ParametricModel("exponential", s2, eta)) + 1e-12


class TestParametricSource:
    def test_local_matrix_from_distances(self, laplace_5x5):
        oracle = GraphDistanceOracle(laplace_5x5.matrix, 4.0)
        model = ParametricModel("exponential", 1.0, 2.0)
        src = ParametricCovariance(model, oracle)
        local = src.local_matrix([0, 1, 2])  # collinear grid points
        d = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        np.testing.assert_allclose(local, model.cov(d), atol=1e-15)
        assert src.prior_variance(5) == 1.0


class TestCsvExports:
    def test_semivariogram_and_curve_files(self, tmp_path, laplace_7x7):
        oracle = GraphDistanceOracle(laplace_7x7.matrix, 6.0)
        tv = generate_test_vectors(laplace_7x7.matrix, 2, 1, seed=0)
        cloud = build_variogram_cloud(tv, oracle, 5.0)
        emp = bin_semivariogram(cloud, 1.0)
        model = fit_semivariogram(emp, "spherical")
        p1 = tmp_path / "emp.csv"
        p2 = tmp_path / "fit.csv"
        write_semivariogram_csv(emp, p1)
        write_model_curve_csv(model, emp.centers, p2)
        lines1 = p1.read_text().strip().splitlines()
        lines2 = p2.read_text().strip().splitlines()
        assert lines1[0] == "h,count,gamma"
        assert lines2[0] == "h,gamma_model,fit_warning"
        assert len(lines1) == len(emp) + 1
        assert len(lines2) == len(emp) + 1
        h_emp = [float(l.split(",")[0]) for l in lines1[1:]]
        h_fit = [float(l.split(",")[0]) for l in lines2[1:]]
        assert h_emp == h_fit

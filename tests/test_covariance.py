import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar  # the reference of the fit's range search

from krigamg import covariance
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
from krigamg import pipeline
from krigamg.metric import GraphDistanceOracle
from krigamg.pipeline import RunConfig
from krigamg.problems import generate_case, generate_fd_square
from krigamg.smoother import generate_test_vectors

from conftest import greedy_sweeper
from oracles import empirical_cov_entry, variogram_cloud_reference


class TestEmpiricalEntries:
    def test_single_vector_zero_mean_product(self):
        v = np.array([[2.0], [3.0]])
        assert empirical_cov_entry(v, 0, 1) == 6.0

    def test_symmetry_bit_exact(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((10, 4))
        for i in range(10):
            for j in range(10):
                assert empirical_cov_entry(v, i, j) == empirical_cov_entry(v, j, i)

    def test_source_local_matrix_matches_entries(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((12, 5))
        src = EmpiricalCovariance(v)
        nodes = [1, 4, 9]
        local = src.local_matrix(nodes)
        for a, i in enumerate(nodes):
            for b, j in enumerate(nodes):
                assert local[a, b] == pytest.approx(empirical_cov_entry(v, i, j), rel=1e-14)

    @pytest.mark.parametrize("K", [1, 3, 10, 40], ids=lambda K: f"zero-{K}")  # zero mean, K vectors
    def test_prior_variance_is_local_diagonal_bitwise(self, K):
        rng = np.random.default_rng(K)
        src = EmpiricalCovariance(rng.standard_normal((30, K)))
        prior = src.prior_variance(np.arange(30))
        for nodes in ([4], [7, 2, 29], rng.permutation(30)[:24].reshape(3, 8),
                      rng.permutation(30)[:9].reshape(1, 9)):
            diagonal = np.diagonal(src.local_matrix(nodes), axis1=-2, axis2=-1)
            assert diagonal.tobytes() == prior[np.asarray(nodes)].tobytes()
            assert src.prior_variance(nodes).tobytes() == diagonal.tobytes()


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

    @pytest.mark.parametrize("pair_budget", [None, 1000], ids=["all", "budget"])
    @pytest.mark.parametrize("max_distance", [6.0, 12.0], ids=["inside", "beyond-2r"])
    @pytest.mark.parametrize("K", [1, 100], ids=lambda K: f"K{K}")
    @pytest.mark.parametrize("case", ["s-iso", "s-aniso", "c-iso", "c-aniso"])
    def test_equals_reference(self, case, K, max_distance, pair_budget):
        """The same pairs in the same order as from whole fetched rows, so
        the same draws and, bit for bit, the same distances and squares.
        The radius is 4: a cloud to 6 is cut inside the ball matrix's reach
        of 8, one to 12 grows the reach to 12."""
        problem = generate_case(case, m=16, rings=10)
        oracle = GraphDistanceOracle(problem.matrix, 4.0, reach=max_distance)
        v = np.random.default_rng(K).standard_normal((problem.n, K))
        got = build_variogram_cloud(v, oracle, max_distance, pair_budget, seed=7)
        want = variogram_cloud_reference(v, oracle, max_distance, pair_budget, seed=7)
        assert got.distances.dtype == want.distances.dtype
        assert np.array_equal(got.distances, want.distances)
        assert got.sq_diffs.dtype == want.sq_diffs.dtype
        assert np.array_equal(got.sq_diffs, want.sq_diffs)

    def test_beyond_the_reach_is_an_error(self, laplace_7x7):
        oracle = GraphDistanceOracle(laplace_7x7.matrix, 2.0)
        with pytest.raises(ValueError, match="beyond the ball matrix's reach 4"):
            build_variogram_cloud(np.ones((49, 1)), oracle, 4.5)

    @pytest.mark.parametrize("K", [1, 10])
    def test_traced_peak_is_the_cloud_and_its_indices(self, K):
        """The cloud is built beside the ball matrix, not from a copy of it,
        and beside its squares, not from a second (pairs, K) copy of them.

        s-iso at grid_m=64 (n=4,096), radius 4, a cloud to the reach of 8
        with every pair: E ball entries, P eligible pairs (about E/2), and
        the cloud holds 8 + 8K B per pair (a distance and K squares).  While
        it masks the ball, the build holds a 4 B row number and two 1 B
        flags per entry (6E), then the flags and an 8 B position per pair.
        While it gathers, beside the cloud it holds at most 20 B per pair:
        the 8 B positions, the 4 B members and an 8 B row index.  Then,
        beside the cloud and the 4 B members, one block of destination rows:
        at most B = covariance.DIFF_BLOCK entries of 8 B, and an 8 B index
        per pair of the block, at most 16B bytes.  So the traced peak is at
        most max((28 + 8K)P, (12 + 8K)P + 16B, 6E), plus 12 B per variable
        for the row numbers and lengths.  Gathering every destination row at
        once holds 8K B more per pair, and a cloud read from `distances_from`
        rows holds an 8 B owner and an 8 B position per entry besides copies
        of the members and distances, about 31 B per entry, more than 60 B
        per pair.
        """
        problem = generate_case("s-iso", m=64)
        oracle = GraphDistanceOracle(problem.matrix, 4.0)
        v = np.random.default_rng(1).standard_normal((problem.n, K))
        tracemalloc.start()
        try:
            cloud = build_variogram_cloud(v, oracle, 8.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pairs, entries = cloud.distances.size, oracle.indices.size
        assert cloud.distances.nbytes + cloud.sq_diffs.nbytes == (8 + 8 * K) * pairs
        block = 16 * covariance.DIFF_BLOCK
        assert peak <= max((28 + 8 * K) * pairs, (12 + 8 * K) * pairs + block,
                           6 * entries) + 12 * problem.n


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
        emp = EmpiricalSemivariogram(h, np.full(h.size, 10, dtype=int),
                                     np.full(h.size, 3.0))
        fit = fit_semivariogram(emp, "exponential")
        assert fit.sigma2 == pytest.approx(3.0, rel=0.05)
        gam = np.asarray(fit.gamma(h))
        assert np.all(np.abs(gam - 3.0) < 0.1)

    def test_requires_two_bins(self):
        emp = EmpiricalSemivariogram(np.array([0.75]), np.array([5]),
                                     np.array([1.0]))
        with pytest.raises(ValueError):
            fit_semivariogram(emp, "spherical")

    @staticmethod
    def _setup_emp(case, model, K, seed):
        return pipeline.setup(RunConfig(case=case, model=model, K=K, seed=seed)).emp

    @staticmethod
    def _noisy_exponential_emp():
        rng = np.random.default_rng(8)
        h = np.arange(0.5, 9.0, 0.5)
        true = ParametricModel("exponential", 1.3, 2.7)
        noisy = np.asarray(true.gamma(h)) * rng.uniform(0.9, 1.1, h.size)
        return EmpiricalSemivariogram(h, np.full(h.size, 40, dtype=int), noisy)

    def test_fit_beats_grid(self):
        for family, emp in (
            ("exponential", self._noisy_exponential_emp()),
            # profiles with a second, shallower local minimum at a shorter range
            ("spherical", self._setup_emp("c-iso", "sph", 1, 3)),
            ("spherical", self._setup_emp("c-iso", "sph", 10, 5)),
        ):
            self._check_beats_grid(family, emp)

    @staticmethod
    def _check_beats_grid(family, emp):
        h, g = emp.centers, emp.gammas
        w = emp.counts / h**2
        fit = fit_semivariogram(emp, family)

        def wls(model):
            r = g - np.asarray(model.gamma(h))
            return float(w @ (r * r))

        fit_obj = wls(fit)
        for s2 in np.logspace(-1, 1, 21) * g.max():
            for eta in np.logspace(np.log10(h.min() / 4), np.log10(4 * h.max()), 25):
                assert fit_obj <= wls(ParametricModel(family, s2, eta)) + 1e-12
        # dense profile over the range, with the least-squares sill at each eta
        for eta in np.logspace(np.log10(h.min() / 4), np.log10(4 * h.max()), 400):
            f = np.asarray(ParametricModel(family, 1.0, eta).gamma(h))
            s2 = (w * f) @ g / ((w * f) @ f)
            assert fit_obj <= wls(ParametricModel(family, s2, eta)) * (1 + 1e-9)

    def test_flat_profile_stops_at_range_bound(self):
        emp = self._setup_emp("s-aniso", "exp", 1, 2)
        fit = fit_semivariogram(emp, "exponential")
        assert fit.fit_warning
        assert fit.eta == pytest.approx(4 * emp.centers.max(), rel=1e-6)

    def test_interior_minimum_sets_no_warning(self):
        fit = fit_semivariogram(self._setup_emp("s-iso", "sph", 1, 3), "spherical")
        assert fit.fit_warning == ""


def counted(func):
    """func, and the list of the points it was evaluated at."""
    points = []

    def wrapped(x):
        points.append(x)
        return func(x)

    return wrapped, points


def same_float(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


def assert_brent_matches_scipy(func, lo, hi):
    """_bounded_brent and scipy's bounded minimize_scalar evaluate func at the
    same points and return the same x, f(x) and convergence flag; returns the
    port's (x, converged)."""
    ours, our_points = counted(func)
    x, converged = covariance._bounded_brent(ours, lo, hi, xatol=1e-10)
    theirs, ref_points = counted(func)
    ref = minimize_scalar(theirs, bounds=(lo, hi), method="bounded", options={"xatol": 1e-10})
    assert x == ref.x
    assert same_float(func(x), ref.fun)
    assert converged == ref.success
    assert len(our_points) == ref.nfev
    assert our_points == ref_points
    return x, converged


def nan_at_call(func, k):
    """func, except that its k-th call returns NaN."""
    calls = itertools.count(1)
    return lambda x: np.nan if next(calls) == k else func(x)


def capture_search(monkeypatch):
    """Record the (func, lo, hi) of every range search fit_semivariogram runs."""
    searches = []
    real = covariance._bounded_brent

    def spy(func, lo, hi, xatol):
        searches.append((func, lo, hi))
        return real(func, lo, hi, xatol)

    monkeypatch.setattr(covariance, "_bounded_brent", spy)
    return searches


PROFILES = {
    "smooth": lambda a, b, c: lambda x: a * a * (x - b) ** 2 + 0.1 * np.sin(c * x),
    "flat": lambda a, b, c: lambda x: a,
    "monotone": lambda a, b, c: lambda x: a * x + b,
    "two minima": lambda a, b, c: lambda x: ((x - b) ** 2 - a * a) ** 2 + 0.01 * c * x,
    "plateaus": lambda a, b, c: lambda x: abs(np.floor(4.0 * a * x) - b),  # ties between values
}
finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


class TestBoundedBrent:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(PROFILES)), finite, finite, finite, finite,
           st.floats(min_value=1e-6, max_value=20.0))
    def test_drawn_profiles_match_scipy(self, kind, a, b, c, lo, width):
        assert_brent_matches_scipy(PROFILES[kind](a, b, c), lo, lo + width)

    def test_bound_hitting_profile_stops_short_of_the_bound(self):
        x, converged = assert_brent_matches_scipy(lambda x: -x, 0.0, 1.0)
        assert converged and 0.0 < 1.0 - x < 1e-6

    @pytest.mark.parametrize("case", ["s-iso", "c-iso", "s-aniso", "c-aniso"])
    def test_case_profiles_match_scipy(self, monkeypatch, case):
        for model, family in (("sph", "spherical"), ("exp", "exponential")):
            emp = pipeline.setup(RunConfig(case=case, model=model)).emp
            searches = capture_search(monkeypatch)
            fit = fit_semivariogram(emp, family)
            (profile, lo, hi), = searches
            x, _ = assert_brent_matches_scipy(profile, lo, hi)
            assert fit.eta == float(np.exp(x))
            # the whole range interval, where a profile may have two minima
            h = emp.centers
            assert_brent_matches_scipy(profile, np.log(h.min() / 4.0), np.log(4.0 * h.max()))

    def test_nan_gamma_fails_like_scipy(self, monkeypatch):
        """A NaN gamma is rejected by its bin before any search; on the all-NaN
        profile such a bin would give, the port fails as scipy does."""
        emp = pipeline.setup(RunConfig(case="s-iso", model="sph", seed=3)).emp
        emp.gammas = emp.gammas.copy()
        emp.gammas[2] = np.nan
        searches = capture_search(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(
                f"empirical semivariogram bin 2 is not finite (center {emp.centers[2].item()!r}, "
                f"count {emp.counts[2].item()!r}, gamma nan)")):
            fit_semivariogram(emp, "spherical")
        assert searches == []
        h = emp.centers
        _, converged = assert_brent_matches_scipy(lambda x: np.nan, np.log(h.min() / 4.0),
                                                  np.log(4.0 * h.max()))
        assert not converged

    def test_search_ending_on_nan_warns_like_scipy(self, monkeypatch):
        """A search whose last value is NaN reports non-convergence; the fit
        keeps the range both searches return and says so."""
        emp = pipeline.setup(RunConfig(case="s-iso", model="sph", seed=3)).emp
        real = covariance._bounded_brent
        searches = []

        def last_value_nan(func, lo, hi, xatol):
            ours, points = counted(func)
            real(ours, lo, hi, xatol)
            searches.append((func, len(points), lo, hi))
            return real(nan_at_call(func, len(points)), lo, hi, xatol)

        monkeypatch.setattr(covariance, "_bounded_brent", last_value_nan)
        fit = fit_semivariogram(emp, "spherical")
        (profile, last, lo, hi), = searches
        ref = minimize_scalar(nan_at_call(profile, last), bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-10})
        assert not ref.success
        assert fit.eta == float(np.exp(ref.x))
        assert fit.fit_warning == f"range search did not converge (eta={fit.eta:.6g})"


class TestParametricSource:
    def test_local_matrix_from_distances(self, laplace_5x5):
        oracle = GraphDistanceOracle(laplace_5x5.matrix, 4.0)
        model = ParametricModel("exponential", 1.0, 2.0)
        src = ParametricCovariance(model, oracle)
        local = src.local_matrix([0, 1, 2])  # collinear grid points
        d = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        np.testing.assert_allclose(local, model.cov(d), atol=1e-15)
        assert src.prior_variance([5, 7]).tolist() == [1.0, 1.0]


class TestCsvExports:
    def test_semivariogram_and_curve_files(self, tmp_path, laplace_7x7):
        oracle = GraphDistanceOracle(laplace_7x7.matrix, 6.0)
        tv = generate_test_vectors(greedy_sweeper(laplace_7x7.matrix), 2, 1, seed=0)
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


@pytest.mark.parametrize("case", ["s-iso", "s-aniso", "c-iso", "c-aniso"])
def test_local_matrices_equal_their_transposes(monkeypatch, case):
    """Every stack both sources give during a coarsening equals its
    transpose bit for bit, so the Kriging assembly takes it as given."""
    seen = {"empirical": 0, "parametric": 0}
    asymmetric = []

    def spied(local_matrix):
        def spy(self, nodes):
            mat = local_matrix(self, nodes)
            seen[self.source] += 1
            flipped = np.ascontiguousarray(np.swapaxes(mat, -1, -2))
            if np.ascontiguousarray(mat).tobytes() != flipped.tobytes():
                asymmetric.append(np.shape(nodes))
            return mat
        return spy

    for source in (covariance.EmpiricalCovariance, covariance.ParametricCovariance):
        monkeypatch.setattr(source, "local_matrix", spied(source.local_matrix))
    for model, K in (("sph", 1), ("exp", 100), ("emp", 10), ("emp", 1)):
        config = RunConfig(case=case, model=model, K=K, grid_m=12, rings=8, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # ill-conditioned blocks of the emp-1 runs
            pipeline.coarsen_run(config, pipeline.setup(config))
    assert seen["empirical"] > 0 and seen["parametric"] > 0
    assert asymmetric == []

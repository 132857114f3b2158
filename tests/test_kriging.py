import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from krigamg.covariance import ParametricCovariance, ParametricModel, EmpiricalCovariance
from krigamg.errors import NumericalError
from krigamg.kriging import assemble_local_cov, ordinary_kriging, prior_stencil
from krigamg.metric import GraphDistanceOracle
from krigamg.problems import generate_fd_square

from conftest import random_spd
from oracles import (
    local_from_dense,
    ls_multi_interpolation,
    ls_pairwise_strength,
    ordinary_kriging_reference,
    simple_kriging,
)


def dense_ok_oracle(c_cc, c_ci, c_ii):
    """Constrained least-squares weights by explicit Lagrangian inverse."""
    q = c_cc.shape[0]
    kkt = np.zeros((q + 1, q + 1))
    kkt[:q, :q] = c_cc
    kkt[:q, q] = 1.0
    kkt[q, :q] = 1.0
    rhs = np.concatenate([c_ci, [1.0]])
    sol = np.linalg.inv(kkt) @ rhs
    w = sol[:q]
    variance = c_ii - 2 * w @ c_ci + w @ c_cc @ w
    return w, variance


class TestAssemble:
    def test_spherical_compact_support_gives_identity(self):
        class TwoFarApart:
            kind = "graph"

            def pairwise(self, nodes):
                k = np.shape(nodes)[-1]
                return np.broadcast_to(2.0 - 2.0 * np.eye(k), (*np.shape(nodes), k))

        model = ParametricModel("spherical", 1.0, 1.0)
        src = ParametricCovariance(model, TwoFarApart())
        local = assemble_local_cov([5], [[1, 2]], src)
        np.testing.assert_allclose(local.matrix[0], np.eye(3))

    def test_empirical_k1_triggers_regularization(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((6, 1))
        src = EmpiricalCovariance(v, mean_mode="zero")
        local = assemble_local_cov([3], [[0, 1]], src)
        assert local.regularized[0]
        assert not np.isnan(local.cho[0]).any()

    def test_parametric_collinear_matches_direct_evaluation(self, laplace_5x5):
        oracle = GraphDistanceOracle(laplace_5x5.matrix, 4.0)
        model = ParametricModel("exponential", 1.3, 1.7)
        src = ParametricCovariance(model, oracle)
        local = assemble_local_cov([2], [[0, 1]], src)  # nodes 0,1,2 collinear
        d = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        expected = model.cov(d)[np.ix_([0, 1, 2], [0, 1, 2])]
        # member order [0,1], fine var last
        np.testing.assert_allclose(local.matrix[0], expected, atol=1e-15)

    def test_self_inclusion_rejected(self):
        model = ParametricModel("exponential", 1.0, 1.0)

        class Dummy:
            def pairwise(self, nodes):
                return np.zeros((len(nodes), len(nodes)))

        with pytest.raises(ValueError):
            assemble_local_cov([1], [[1, 2]], ParametricCovariance(model, Dummy()))


class TestSimpleKriging:
    def test_scalar_schur(self):
        rho = 0.6
        local = local_from_dense([[1.0, rho], [rho, 1.0]])
        st_ = simple_kriging(7, local)
        np.testing.assert_allclose(st_.weights, [rho])
        assert st_.variance == pytest.approx(1 - rho**2)

    def test_zero_cross_covariance(self):
        local = local_from_dense([[2.0, 0.0], [0.0, 3.0]])
        st_ = simple_kriging(1, local)
        np.testing.assert_allclose(st_.weights, [0.0])
        assert st_.variance == pytest.approx(3.0)


class TestOrdinaryKriging:
    def test_single_point_forced_weight_one(self):
        local = local_from_dense([[2.0, 0.3], [0.3, 1.5]])
        [w], [var], _, [solved] = ordinary_kriging([[4]], local)
        assert solved
        np.testing.assert_allclose(w, [1.0], atol=1e-12)
        assert var == pytest.approx(1.5 - 2 * 0.3 + 2.0)

    def test_one_member_blup_variance_is_twice_gamma(self, laplace_7x7):
        # one member at distance d: sigma2 - 2 C(d) + sigma2 = 2 gamma(d)
        oracle = GraphDistanceOracle(laplace_7x7.matrix, 50.0)
        model = ParametricModel("exponential", 1.0, 1000.0)
        src = ParametricCovariance(model, oracle)
        fine = np.delete(np.arange(49), 24)
        members = np.full((48, 1), 24)
        _, variance, _, solved = ordinary_kriging(members, assemble_local_cov(fine, members, src))
        assert solved.all()
        d = oracle.pairwise(np.column_stack([members, fine]))[:, 0, 1]
        np.testing.assert_allclose(variance, 2 * model.gamma(d), rtol=1e-10)

    def test_symmetric_pair_half_half(self):
        c = np.array([[1.0, 0.2, 0.5], [0.2, 1.0, 0.5], [0.5, 0.5, 1.0]])
        [w], _, _, [solved] = ordinary_kriging([[0, 1]], local_from_dense(c))
        assert solved
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)

    def test_matches_dense_lagrangian_and_appendix_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            full = random_spd(rng, 5)
            local = local_from_dense(full)
            [w], [var], _, [solved] = ordinary_kriging([[10, 11, 12, 13]], local)
            assert solved
            w_oracle, var_oracle = dense_ok_oracle(full[:4, :4], full[:4, 4], full[4, 4])
            np.testing.assert_allclose(w, w_oracle, atol=1e-12)
            assert var == pytest.approx(var_oracle, abs=1e-10)
            # closed form: least-squares weights plus constant-sum correction
            inv = np.linalg.inv(full[:4, :4])
            p_sharp = inv @ full[:4, 4]
            ones = np.ones(4)
            corr = (1 - p_sharp @ ones) / (ones @ inv @ ones) * (inv @ ones)
            np.testing.assert_allclose(w, p_sharp + corr, atol=1e-10)

    def test_variance_decomposition_nonnegative(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            full = random_spd(rng, 4)
            local = local_from_dense(full)
            _, [ok_var], _, [solved] = ordinary_kriging([[1, 2, 3]], local)
            assert solved
            simple = simple_kriging(0, local)
            inv = np.linalg.inv(full[:3, :3])
            ones = np.ones(3)
            expected = (1 - full[:3, 3] @ inv @ ones) ** 2 / (ones @ inv @ ones)
            assert ok_var - simple.variance == pytest.approx(expected, abs=1e-10)
            assert ok_var - simple.variance >= -1e-10

    def test_stack_matches_one_stencil_reference_bitwise(self):
        # a weakly correlated fine variable with a small prior: the
        # mean-estimation term carries the variance, so its last bit shows
        rng = np.random.default_rng(17)
        m, q = 10_000, 3
        mats = np.empty((m, q + 1, q + 1))
        for full in mats:
            full[:] = random_spd(rng, q + 1)
            full[:-1, -1] = full[-1, :-1] = 1e-3 * rng.standard_normal(q)
            full[-1, -1] = 1e-6
        members = np.arange(m * q).reshape(m, q) + m
        weights, variance, simple, solved = ordinary_kriging(members, local_from_dense(mats))
        assert solved.all()
        for k in range(m):
            ref = ordinary_kriging_reference(k, members[k].tolist(), local_from_dense(mats[k]))
            np.testing.assert_array_equal(weights[k], ref.weights)
            assert (variance[k], simple[k]) == (ref.variance, ref.simple_variance)
        # and, by LAPACK through scipy, the same predictors to rounding
        for k in range(m):
            cho = scipy.linalg.cho_factor(mats[k, :-1, :-1], lower=True)
            s_c, s_1 = scipy.linalg.cho_solve(cho, np.c_[mats[k, :-1, -1], np.ones(q)]).T
            gap = 1.0 - s_c.sum()
            np.testing.assert_allclose(weights[k], s_c + gap / s_1.sum() * s_1, rtol=1e-10)
            simple_k = mats[k, -1, -1] - mats[k, :-1, -1] @ s_c
            np.testing.assert_allclose([simple[k], variance[k]],
                                       [simple_k, simple_k + gap * gap / s_1.sum()], rtol=1e-10)

    def test_degenerate_identical_points(self):
        c = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
        *_, solved = ordinary_kriging([[1, 2]], local_from_dense(c, cho=[None]))
        assert solved.tolist() == [False]

    def test_singular_block_fails_alone(self):
        # the middle block is not positive definite, so it has no factor
        # (nan); the other blocks of the stack still solve
        rng = np.random.default_rng(18)
        good = [random_spd(rng, 3) for _ in range(2)]
        bad = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
        mats = np.array([good[0], bad, good[1]])
        cho = [np.linalg.cholesky(m[:-1, :-1]) for m in good]
        local = local_from_dense(mats, cho=[cho[0], None, cho[1]])
        members = [[1, 2], [4, 5], [7, 8]]
        weights, variance, simple, solved = ordinary_kriging(members, local)
        assert solved.tolist() == [True, False, True]
        for row, k in ((0, 0), (2, 1)):
            [w], [var], [simple_var], [alone] = ordinary_kriging(
                [members[row]], local_from_dense(good[k], cho=[cho[k]]))
            assert alone
            np.testing.assert_array_equal(weights[row], w)
            assert (variance[row], simple[row]) == (var, simple_var)

    def test_near_duplicate_members_warn_nothing(self):
        # two members one ulp from identical: the factor exists, and the
        # stack solves through it without an ill-conditioning warning
        rng = np.random.default_rng(19)
        a = np.nextafter(1.0, 0.0)
        near = np.array([[1.0, a, 0.5], [a, 1.0, 0.6], [0.5, 0.6, 1.0]])
        mats = np.array([random_spd(rng, 3), near, random_spd(rng, 3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            *_, solved = ordinary_kriging([[1, 2], [4, 5], [7, 8]], local_from_dense(mats))
        assert solved.all()

    def test_weights_sum_to_one_on_rank_one_blocks(self):
        # one test vector: every block is rank one plus its regularization,
        # 1^T C^{-1} 1 is 7e7 to 8e8, and constants must still be reproduced
        rng = np.random.default_rng(20)
        src = EmpiricalCovariance(rng.standard_normal((450, 1)), mean_mode="zero")
        fine = np.arange(8, 450, 9)
        members = fine[:, None] - np.arange(8, 0, -1)
        local = assemble_local_cov(fine, members, src)
        assert local.regularized.all()
        weights, _, _, solved = ordinary_kriging(members, local)
        assert solved.all()
        sums = np.array([row.sum() for row in weights])
        np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)

    def test_blup_variance_at_least_simple_on_near_singular_blocks(self):
        # rank-one blocks of a single test vector, regularized: the mean term
        # (1 - 1^T s_c)^2 / 1^T s_1 is nonnegative in floating point too
        rng = np.random.default_rng(22)
        src = EmpiricalCovariance(rng.standard_normal((450, 1)), mean_mode="zero")
        fine = np.arange(8, 450, 9)
        for q in (2, 4, 8):
            members = fine[:, None] - np.arange(q, 0, -1)
            local = assemble_local_cov(fine, members, src)
            assert local.regularized.sum() > 40
            _, variance, simple, solved = ordinary_kriging(members, local)
            assert solved.sum() > 40
            assert np.all(variance[solved] >= simple[solved])

    def test_empty_set_prior(self):
        class Prior:
            def prior_variance(self, nodes):
                return 1.7 + nodes

        prior = prior_stencil(np.array([3, 0]), Prior())
        assert prior.dtype == np.float64 and prior.tolist() == [4.7, 1.7]


class TestLeastSquares:
    def test_identical_columns(self):
        v = np.vstack([np.ones(5), np.ones(5)])
        p, s2 = ls_pairwise_strength(v, 0, 1)
        assert p == pytest.approx(1.0) and s2 == pytest.approx(0.0)

    def test_orthogonal_columns(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        p, s2 = ls_pairwise_strength(v, 0, 1)
        assert p == 0.0 and s2 == pytest.approx(1.0)

    def test_zero_norm_rejected(self):
        v = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            ls_pairwise_strength(v, 0, 1)

    def test_matches_scalar_scan_oracle(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((2, 8))
        p, _ = ls_pairwise_strength(v, 0, 1)

        def objective(c):
            return np.sum((v[0] - c * v[1]) ** 2)

        # golden-section refinement of a coarse scan
        grid = np.linspace(-3, 3, 601)
        best = grid[np.argmin([objective(c) for c in grid])]
        lo, hi = best - 0.02, best + 0.02
        phi = (np.sqrt(5) - 1) / 2
        for _ in range(60):
            m1 = hi - phi * (hi - lo)
            m2 = lo + phi * (hi - lo)
            if objective(m1) < objective(m2):
                hi = m2
            else:
                lo = m1
        assert p == pytest.approx((lo + hi) / 2, abs=1e-8)

    def test_multi_exact_representation(self):
        rng = np.random.default_rng(6)
        basis = rng.standard_normal((3, 8))
        coeffs = np.array([0.5, -1.0, 2.0])
        target = coeffs @ basis
        v = np.vstack([target, basis])
        weights, residual = ls_multi_interpolation(v, 0, [1, 2, 3])
        np.testing.assert_allclose(weights, coeffs, atol=1e-10)
        assert abs(residual) < 1e-10

    def test_singleton_consistent_with_pairwise(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((2, 8))
        w, _ = ls_multi_interpolation(v, 0, [1])
        p, _ = ls_pairwise_strength(v, 0, 1)
        assert w[0] == pytest.approx(p, rel=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((4, 8))
        weights, residual = ls_multi_interpolation(v, 0, [1, 2, 3])
        basis = v[[1, 2, 3]]
        oracle = np.linalg.solve(basis @ basis.T, basis @ v[0])
        np.testing.assert_allclose(weights, oracle, atol=1e-10)
        k = v.shape[1]
        assert residual == pytest.approx(
            np.sum((v[0] - oracle @ basis) ** 2) / k, abs=1e-10
        )

    def test_singular_gram_rejected(self):
        v = np.array([[1.0, 2.0], [1.0, 1.0], [2.0, 2.0]])  # rows 1,2 dependent
        with pytest.raises(NumericalError):
            ls_multi_interpolation(v, 0, [1, 2])


class TestGaussianConditioningOracle:
    def test_local_kriging_equals_dense_blup_conditioning(self):
        rng = np.random.default_rng(30)
        for n in (5, 8, 12):
            full = random_spd(rng, n)
            i = n - 1
            members = list(range(n - 1))
            local = local_from_dense(full)
            [w], _, _, [solved] = ordinary_kriging([members], local)
            assert solved
            c_cc = full[:-1, :-1]
            c_ci = full[:-1, -1]
            inv = np.linalg.inv(c_cc)
            ones = np.ones(n - 1)
            x_c = rng.standard_normal((n - 1, 6))
            mu = (ones @ inv @ x_c) / (ones @ inv @ ones)
            conditional = mu + c_ci @ inv @ (x_c - np.outer(ones, mu))
            np.testing.assert_allclose(w @ x_c, conditional, atol=1e-10)

    def test_constant_reproduction(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            full = random_spd(rng, 5)
            [w], _, _, [solved] = ordinary_kriging([[1, 2, 3, 4]], local_from_dense(full))
            assert solved
            assert w.sum() == pytest.approx(1.0, abs=1e-10)
            assert w @ np.ones(4) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_monotone_information(seed):
    # enlarging the interpolatory set never increases the simple-Kriging variance
    rng = np.random.default_rng(seed)
    full = random_spd(rng, 6)
    local_small = local_from_dense(full[np.ix_([0, 1, 5], [0, 1, 5])])
    local_big = local_from_dense(full[np.ix_([0, 1, 2, 3, 5], [0, 1, 2, 3, 5])])
    var_small = simple_kriging(5, local_small).variance
    var_big = simple_kriging(5, local_big).variance
    assert var_big <= var_small + 1e-10

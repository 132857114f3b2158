import numpy as np
import pytest
import scipy.sparse as sp

from krigamg.coarsen import coarsen
from krigamg.covariance import ParametricCovariance, ParametricModel
from krigamg.errors import NumericalError
from krigamg.metric import GraphDistanceOracle
from krigamg.pipeline import RunConfig, coarsen_run, setup
from krigamg.problems import generate_fd_square
import krigamg.twogrid as tg
from krigamg.twogrid import (
    build_twogrid,
    estimate_asymptotic_rate,
    galerkin,
    pcg_solve,
    precondition_apply,
    vcycle_apply,
)

from conftest import greedy_sweeper
from oracles import dense_coarse_twogrid, pcg_reference, rate_reference, vcycle_reference


def small_twogrid(m=4, n_frac=0.25, seed=0, family="exponential", eta=2.0):
    problem = generate_fd_square(m, (1, 1, 0))
    oracle = GraphDistanceOracle(problem.matrix, 4.0)
    src = ParametricCovariance(ParametricModel(family, 1.0, eta), oracle)
    n_c = max(1, int(problem.n * n_frac))
    _, interp = coarsen(problem, src, n_coarse=n_c, q_max=4, oracle=oracle)
    return problem, build_twogrid(problem.matrix, interp.to_csr(), greedy_sweeper(problem.matrix))


class TestGalerkin:
    def test_identity_interpolation(self, laplace_5x5):
        a = laplace_5x5.matrix
        a_c = galerkin(a, sp.identity(25, format="csr"))
        assert abs(a_c - a).nnz == 0

    def test_ones_column_on_tridiag(self):
        a = sp.csr_matrix(np.array([[2.0, -1, 0], [-1, 2, -1], [0, -1, 2]]))
        p = sp.csr_matrix(np.ones((3, 1)))
        a_c = galerkin(a, p)
        assert a_c.shape == (1, 1)
        assert a_c[0, 0] == pytest.approx(2.0)

    def test_random_matches_dense_triple_product(self):
        rng = np.random.default_rng(7)
        problem = generate_fd_square(5, (1, 1e-2, 0))  # n=25 > 20
        a = problem.matrix
        p = sp.csr_matrix(rng.standard_normal((25, 9)))
        a_c = galerkin(a, p)
        dense = p.toarray().T @ a.toarray() @ p.toarray()
        np.testing.assert_allclose(a_c.toarray(), (dense + dense.T) / 2, atol=1e-12)
        asym = abs(a_c - a_c.T)
        assert asym.nnz == 0 or asym.data.max() < 1e-12

    def test_twogrid_requires_spd_coarse(self, laplace_5x5):
        p = sp.csr_matrix((25, 2))  # zero columns -> singular A_c
        with pytest.raises(NumericalError):
            build_twogrid(laplace_5x5.matrix, p, greedy_sweeper(laplace_5x5.matrix))

    @pytest.mark.parametrize("a", [
        np.diag([2.0, -1.0, 3.0]),
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # negative pivot
        np.array([[0.0, 1.0], [1.0, 0.0]]),  # positive pivots, off the diagonal
    ])
    def test_twogrid_rejects_indefinite_coarse(self, a):
        eye = sp.identity(len(a), format="csr")
        # the coarse check comes first; a zero-diagonal A has no sweeper of its own
        with pytest.raises(NumericalError, match="not positive definite"):
            build_twogrid(sp.csr_matrix(a), eye, greedy_sweeper(eye))


class TestVCycle:
    def test_zero_fixed_point(self):
        _, op = small_twogrid()
        out = vcycle_apply(op, np.zeros(op.n), np.zeros(op.n))
        np.testing.assert_array_equal(out, np.zeros(op.n))

    def test_identity_interpolation_solves_exactly(self, laplace_5x5):
        a = laplace_5x5.matrix
        op = build_twogrid(a, sp.identity(25, format="csr"), greedy_sweeper(a))
        rng = np.random.default_rng(1)
        b = rng.standard_normal(25)
        x0 = rng.standard_normal(25)
        x1 = vcycle_apply(op, b, x0)
        exact = np.linalg.solve(laplace_5x5.matrix.toarray(), b)
        np.testing.assert_allclose(x1, exact, atol=1e-10)

    def test_propagator_matches_dense_product(self):
        # column-built cycle propagator equals (I-MA)(I-Pi)(I-MA) with the
        # same smoother on both sides
        problem, op = small_twogrid(m=4)
        n = problem.n
        a = problem.matrix.toarray()
        zero = np.zeros(n)
        sweeper = op.sweeper
        s = np.empty((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            s[:, i] = sweeper.sweep(e[sweeper.order], zero)[sweeper.position]
        p = op.p.toarray()
        pi = p @ np.linalg.solve(p.T @ a @ p, p.T @ a)
        expected = s @ (np.eye(n) - pi) @ s
        built = np.empty((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            built[:, i] = vcycle_apply(op, zero, e)
        np.testing.assert_allclose(built, expected, atol=1e-10)

    def test_coarse_correction_never_increases_a_norm(self):
        problem, op = small_twogrid(m=8)
        a = problem.matrix.toarray()
        p = op.p.toarray()
        pi = p @ np.linalg.solve(p.T @ a @ p, p.T @ a)
        rng = np.random.default_rng(3)
        for _ in range(20):
            e = rng.standard_normal(problem.n)
            e2 = (np.eye(problem.n) - pi) @ e
            assert e2 @ a @ e2 <= e @ a @ e + 1e-10

    def test_symmetric_variant_spectrum_in_unit_interval(self):
        problem, op = small_twogrid(m=7)  # n = 49 <= 64
        n = problem.n
        zero = np.zeros(n)
        e2g = np.empty((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            e2g[:, i] = vcycle_apply(op, zero, e, post_reverse=True)
        eig = np.linalg.eigvals(e2g)
        assert np.max(np.abs(eig.imag)) < 1e-8
        assert eig.real.min() >= -1e-10
        assert eig.real.max() < 1.0


class TestRate:
    def test_identity_interpolation_rate_zero(self, laplace_5x5):
        a = laplace_5x5.matrix
        op = build_twogrid(a, sp.identity(25, format="csr"), greedy_sweeper(a))
        rate = estimate_asymptotic_rate(op, seed=0)
        assert rate.rho <= 1e-8
        assert not rate.diverged

    def test_scale_invariance(self):
        problem, op = small_twogrid(m=6)
        rate1 = estimate_asymptotic_rate(op, seed=4)
        scaled = (problem.matrix * 7.5).tocsr()
        op2 = build_twogrid(scaled, op.p, greedy_sweeper(scaled))
        rate2 = estimate_asymptotic_rate(op2, seed=4)
        assert rate1.rho == pytest.approx(rate2.rho, abs=1e-10)

    def test_seed_reproducibility_after_stall(self):
        # same seed: bit-identical; across seeds the stall freezes slightly
        # different plateaus of the near-degenerate top cluster
        problem, op = small_twogrid(m=10)
        assert (
            estimate_asymptotic_rate(op, seed=3).rho
            == estimate_asymptotic_rate(op, seed=3).rho
        )
        rates = [estimate_asymptotic_rate(op, seed=s).rho for s in range(4)]
        assert max(rates) - min(rates) < 2e-2


class TestPcg:
    def test_identity_system_one_iteration(self):
        a = sp.identity(10, format="csr")
        op = build_twogrid(a, sp.identity(10, format="csr"), greedy_sweeper(a))
        result = pcg_solve(op, np.arange(1.0, 11.0))
        assert result.converged and result.iterations == 1

    def test_preconditioner_symmetry(self):
        _, op = small_twogrid(m=8)
        rng = np.random.default_rng(5)
        for _ in range(10):
            r1 = rng.standard_normal(op.n)
            r2 = rng.standard_normal(op.n)
            z1 = precondition_apply(op, r1)
            z2 = precondition_apply(op, r2)
            assert z1 @ r2 == pytest.approx(z2 @ r1, abs=1e-10 * max(1, abs(z1 @ r2)))

    def test_residual_history_and_reduction(self):
        problem, op = small_twogrid(m=8)
        b = np.random.default_rng(6).standard_normal(problem.n)
        result = pcg_solve(op, b, reduction=1e-8)
        assert result.converged
        assert all(r > 0 for r in result.residuals[:-1])
        assert result.residuals[-1] <= 1e-8 * result.residuals[0]

    def test_beats_unpreconditioned_cg(self):
        problem, op = small_twogrid(m=12)
        rng = np.random.default_rng(7)
        b = rng.standard_normal(problem.n)
        pre = pcg_solve(op, b, reduction=1e-8)

        # plain CG oracle
        a = problem.matrix
        x = np.zeros(problem.n)
        r = b.copy()
        p = r.copy()
        rr = r @ r
        plain_iters = 0
        for k in range(1, 2000):
            ap = a @ p
            alpha = rr / (p @ ap)
            x += alpha * p
            r -= alpha * ap
            plain_iters = k
            if np.linalg.norm(r) <= 1e-8 * np.linalg.norm(b):
                break
            rr_next = r @ r
            p = r + (rr_next / rr) * p
            rr = rr_next
        assert pre.converged
        assert pre.iterations < plain_iters

    def test_max_it_reported_not_raised(self, monkeypatch):
        problem, op = small_twogrid(m=8)
        b = np.random.default_rng(8).standard_normal(problem.n)
        monkeypatch.setattr(tg, "PCG_MAX_IT", 2)
        result = pcg_solve(op, b, reduction=1e-14)
        assert not result.converged and result.iterations == 2

    def test_indefinite_preconditioner_detected(self, monkeypatch):
        problem, op = small_twogrid(m=5)
        monkeypatch.setattr(tg, "precondition_apply", lambda op_, r: -r)
        b = np.random.default_rng(9).standard_normal(problem.n)
        with pytest.raises(NumericalError):
            tg.pcg_solve(op, b)


def pipeline_twogrid(case, model, K, **sizes):
    config = RunConfig(case=case, model=model, K=K, seed=5, **sizes)
    run = setup(config)
    _, interp = coarsen_run(config, run)
    return build_twogrid(run.problem.matrix, interp.to_csr(), run.sweeper)


class TestSparseCoarseFactor:
    def test_factor_smaller_than_dense(self):
        op = pipeline_twogrid("c-aniso", "emp", 10)
        stored = op.coarse_factor.L.nnz + op.coarse_factor.U.nnz
        assert stored < op.n_c ** 2 / 10

    @pytest.mark.parametrize("case, model, K", [
        ("s-iso", "sph", 1), ("s-aniso", "emp", 10), ("c-iso", "exp", 10), ("c-aniso", "emp", 10),
    ])
    def test_matches_dense_coarse_solve(self, case, model, K):
        op = pipeline_twogrid(case, model, K, grid_m=12, rings=8)
        ref = dense_coarse_twogrid(op)
        rng = np.random.default_rng(11)
        for post_reverse in (False, True):
            b, x0 = rng.standard_normal((2, op.n))
            expected = vcycle_apply(ref, b, x0, post_reverse)
            got = vcycle_apply(op, b, x0, post_reverse)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        rate, rate_ref = estimate_asymptotic_rate(op, seed=2), estimate_asymptotic_rate(ref, seed=2)
        assert rate.rho == pytest.approx(rate_ref.rho, rel=1e-12, abs=0.0)
        assert rate.cycles == rate_ref.cycles
        rhs = rng.standard_normal(op.n)
        assert pcg_solve(op, rhs).iterations == pcg_solve(ref, rhs).iterations


@pytest.mark.parametrize("case, model, K", [
    ("s-iso", "sph", 1), ("s-aniso", "emp", 10), ("c-iso", "exp", 10), ("c-aniso", "emp", 10),
])
def test_cycle_and_pcg_bitwise_against_references(case, model, K):
    op = pipeline_twogrid(case, model, K, grid_m=12, rings=8)
    rng = np.random.default_rng(13)
    b, x0 = rng.standard_normal((2, op.n))
    for post_reverse in (False, True):
        assert np.array_equal(vcycle_apply(op, b, x0, post_reverse),
                              vcycle_reference(op, b, x0, post_reverse))
    assert np.array_equal(precondition_apply(op, b),
                          vcycle_reference(op, b, np.zeros(op.n), post_reverse=True))
    got, expected = pcg_solve(op, b), pcg_reference(op, b)
    assert got.converged and got.iterations == expected.iterations
    assert got.residuals == expected.residuals


@pytest.mark.parametrize("case, model, K", [
    ("s-iso", "sph", 1), ("s-aniso", "emp", 10), ("c-iso", "exp", 10), ("c-aniso", "emp", 10),
])
def test_rate_bitwise_against_reference(case, model, K):
    op = pipeline_twogrid(case, model, K, grid_m=12, rings=8)
    got, expected = estimate_asymptotic_rate(op, seed=2), rate_reference(op, seed=2)
    assert got.cycles > 1
    assert (got.rho, got.cycles) == (expected.rho, expected.cycles)


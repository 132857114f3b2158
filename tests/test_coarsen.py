import hashlib
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from krigamg import coarsen as coarsen_module, pipeline
from krigamg.coarsen import (
    CoarseningDiagnostics,
    build_interpolation,
    coarsen,
    embeddability_failure_fraction,
    init_variances,
    refresh_stencils,
    select_batch,
    select_next,
    update_after_add,
    write_interpolation_mtx,
    write_splitting_csv,
)
from krigamg.covariance import EmpiricalCovariance, ParametricCovariance, ParametricModel
from krigamg.kriging import LocalCovariance, assemble_local_cov, ordinary_kriging
from krigamg.metric import GraphDistanceOracle, nearest_coarse
from krigamg.problems import ProblemInstance, generate_fd_square

from conftest import random_spd
from oracles import local_from_dense, ordinary_kriging_reference


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
        vectors = rng.standard_normal((1, 2))
        state = init_variances(problem, EmpiricalCovariance(vectors))
        assert state.variance.shape == (1,)
        assert state.variance[0] == pytest.approx(vectors[0] @ vectors[0] / 2)


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
                [members], _ = nearest_coarse([j], state.is_coarse, oracle, q_max, radius)
                stencil = state.stencils[j]
                assert stencil.members == members
                if members:
                    local = assemble_local_cov([j], [members], src)
                    [fresh] = ordinary_kriging([j], [members], local)
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
        run = pipeline.setup(cfg, problem)
        n_c = problem.n // 4
        state, interp = coarsen(problem, run.source, n_coarse=n_c, q_max=4, radius=4.0,
                                oracle=run.oracle)
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
            _, members, dists = oracle.distances_from(j, 50.0)
            d = dists[members.tolist().index(stencil.members[0])]
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


def digest(state, interp) -> str:
    """Hash of the coarse order and of P."""
    p = interp.to_csr()
    h = hashlib.sha256(np.asarray(state.coarse_order, dtype=np.int64).tobytes())
    for part in (p.indptr.astype(np.int64), p.indices.astype(np.int64), p.data):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()[:16]


class IndefiniteAtQmax:
    """A covariance source whose full-size (q_max) coarse blocks are indefinite."""

    source = "parametric"

    def __init__(self, inner, q_max):
        self.inner, self.q_max = inner, q_max

    def prior_variance(self, i):
        return self.inner.prior_variance(i)

    def local_matrix(self, nodes):
        mat = self.inner.local_matrix(nodes)
        k = np.shape(nodes)[-1]
        if k == self.q_max + 1:
            mat = mat + 1.5 * (np.ones((k, k)) - np.eye(k))
        return mat


class TestRarePaths:
    """Counters and outputs of the regularization and set-shrinking paths,
    pinned to the values of the one-stencil-at-a-time refresh; the P
    digests are those of the closed-form weights."""

    def test_empirical_k1_regularizes(self):
        cfg = pipeline.RunConfig(case="s-iso", model="emp", K=1, seed=3, grid_m=20)
        run = pipeline.setup(cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state, interp = pipeline.coarsen_run(cfg, run)
        # the variables named by condition-number warnings, in the order warned
        flagged = [int(str(w.message).split()[4]) for w in caught
                   if "condition number" in str(w.message)]
        assert len(flagged) == 108 and flagged[:6] == [244, 265, 286, 357, 376, 126]
        assert hashlib.sha256(str(flagged).encode()).hexdigest()[:16] == "b3ac395db9e9458f"
        assert state.diagnostics == CoarseningDiagnostics(
            negative_variance_events=153, regularized_events=2142,
            qmax_reductions=0, empty_stencils=0)
        assert state.coarse_order[:10] == [31, 178, 284, 378, 362, 206, 353, 130, 347, 105]
        assert digest(state, interp) == "77457721f63af5b8"

    def test_each_stencil_assembled_once_per_attempt(self, monkeypatch):
        cfg = pipeline.RunConfig(case="s-iso", model="emp", K=1, seed=3, grid_m=20)
        run = pipeline.setup(cfg)
        assemble, refresh = coarsen_module.assemble_local_cov, coarsen_module.refresh_stencils
        blocks, sets = [], []

        def counting_assemble(i, members, cov_source):
            blocks.append(len(i))
            return assemble(i, members, cov_source)

        def counting_refresh(fine, member_sets, cov_source, diag):
            sets.extend(len(members) > 0 for members in member_sets)
            return refresh(fine, member_sets, cov_source, diag)

        monkeypatch.setattr(coarsen_module, "assemble_local_cov", counting_assemble)
        monkeypatch.setattr(coarsen_module, "refresh_stencils", counting_refresh)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state, _ = pipeline.coarsen_run(cfg, run)
        assert sum(blocks) == sum(sets) + state.diagnostics.qmax_reductions

    def test_indefinite_full_sets_shrink(self, laplace_7x7):
        src, oracle = parametric_source(laplace_7x7)
        state, interp = coarsen(laplace_7x7, IndefiniteAtQmax(src, 4), n_coarse=12,
                                q_max=4, radius=4.0, oracle=oracle)
        assert state.diagnostics == CoarseningDiagnostics(
            negative_variance_events=0, regularized_events=0,
            qmax_reductions=119, empty_stencils=0)
        assert state.coarse_order == [0, 5, 23, 34, 42, 46, 10, 29, 18, 13, 14, 38]
        assert digest(state, interp) == "56250f9bd2bc4145"


class PerturbedSource:
    """Local covariances cut from a global SPD matrix, except two stencils:
    `bad` gets an indefinite coarse block and `ill` a positive definite one
    with condition number 1e13, each only for its full interpolatory set."""

    def __init__(self, cov, source, bad, ill):
        self.cov, self.source, self.bad, self.ill = cov, source, bad, ill

    def prior_variance(self, i):
        return float(self.cov[i, i])

    def local_matrix(self, nodes):
        nodes = np.asarray(nodes)
        k = nodes.shape[-1]
        rows = nodes.reshape(-1, k)
        mats = np.array([self.cov[np.ix_(row, row)] for row in rows])
        for mat, row in zip(mats, rows.tolist()):
            if (row[-1], row[:-1]) == self.bad:
                mat[0, 1] = mat[1, 0] = 2.0 * mat.diagonal().max()
            elif (row[-1], row[:-1]) == self.ill:
                mat[:-1, :-1] = np.diag([1.0, 1e-13] + [1.0] * (k - 3))
        return mats.reshape(*nodes.shape, k)


def reference_local(src, j, members) -> LocalCovariance:
    """The local covariance of one stencil, factored by scipy's Cholesky."""
    mat = src.local_matrix(members + [j])
    return local_from_dense(0.5 * (mat + mat.T))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.sampled_from(["empirical", "parametric"]))
def test_refresh_matches_one_stencil_reference(seed, source):
    rng = np.random.default_rng(seed)
    n, m = 200, 150
    variables = rng.permutation(n)
    fine = sorted(variables[:m].tolist())
    pool = variables[m:]
    sizes = rng.integers(1, 9, size=m)
    k_bad, k_ill = rng.choice(m, size=2, replace=False)
    sizes[[k_bad, k_ill]] = rng.integers(2, 9, size=2)
    member_sets = [rng.choice(pool, size=q, replace=False).tolist() for q in sizes]
    bad = (fine[k_bad], member_sets[k_bad])
    ill = (fine[k_ill], member_sets[k_ill])
    src = PerturbedSource(random_spd(rng, n), source, bad, ill)

    diag = CoarseningDiagnostics()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stencils = refresh_stencils(fine, member_sets, src, diag)
    cond_warnings = [str(w.message) for w in caught if "condition number" in str(w.message)]
    assert cond_warnings == [
        f"local covariance at variable {ill[0]} has condition number above 1e+12"]
    # the indefinite block stays indefinite after the empirical eps*I, so
    # both sources drop its farthest member once
    assert diag.qmax_reductions == 1
    assert diag.regularized_events == (source == "empirical")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for j, members, stencil in zip(fine, member_sets, stencils):
            if j == bad[0]:
                members = members[:-1]
            ref = ordinary_kriging_reference(j, members, reference_local(src, j, members))
            assert stencil.i == j and stencil.members == members
            np.testing.assert_array_equal(stencil.weights, ref.weights)
            assert stencil.variance == ref.variance
            assert stencil.simple_variance == ref.simple_variance

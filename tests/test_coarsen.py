import dataclasses
import hashlib
import heapq
import types
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from krigamg import coarsen as coarsen_module, pipeline
from krigamg.coarsen import (
    CoarseningDiagnostics,
    InterpolationOperator,
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
from oracles import (
    local_from_dense,
    ordinary_kriging_reference,
    refresh_stencils_by_size,
    sequential_coarsening,
)


def parametric_source(problem, radius=4.0, family="exponential", sigma2=1.0, eta=2.0):
    oracle = GraphDistanceOracle(problem.matrix, radius)
    return ParametricCovariance(ParametricModel(family, sigma2, eta), oracle), oracle


class TestInit:
    def test_parametric_prior_is_sill(self, laplace_5x5):
        src, _ = parametric_source(laplace_5x5, sigma2=1.7)
        state = init_variances(laplace_5x5, src, 4)
        assert np.all(state.variance == 1.7)
        assert state.num_coarse == 0
        assert state.members.shape == (25, 4) and np.all(state.members == -1)
        assert state.weights.shape == (25, 4) and np.all(state.weights == 0.0)

    def test_empirical_prior_is_diagonal(self, laplace_5x5):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((25, 3))
        src = EmpiricalCovariance(v)
        state = init_variances(laplace_5x5, src, 4)
        expected = np.sum(v * v, axis=1) / 3
        np.testing.assert_allclose(state.variance, expected, rtol=1e-12)

    def test_single_variable_problem(self):
        problem = ProblemInstance(matrix=sp.csr_matrix(np.array([[2.0]])))
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((1, 2))
        state = init_variances(problem, EmpiricalCovariance(vectors), 4)
        assert state.variance.shape == (1,)
        assert state.variance[0] == pytest.approx(vectors[0] @ vectors[0] / 2)


class TestSelect:
    def test_uniform_tie_picks_first(self, laplace_5x5):
        src, _ = parametric_source(laplace_5x5)
        state = init_variances(laplace_5x5, src, 4)
        assert select_next(state) == 0

    def test_strict_maximum(self, laplace_5x5):
        src, _ = parametric_source(laplace_5x5)
        state = init_variances(laplace_5x5, src, 4)
        state.variance[17] = 2.0
        assert select_next(state) == 17

    def test_mid_run_matches_full_scan(self, laplace_7x7):
        src, oracle = parametric_source(laplace_7x7)
        state = init_variances(laplace_7x7, src, 4)
        rng = np.random.default_rng(3)
        for _ in range(10):
            update_after_add(state, [select_next(state)], oracle, src, 4)
            masked = [
                (state.variance[i], i)
                for i in range(state.n)
                if not state.is_coarse[i]
            ]
            best = max(masked, key=lambda t: (t[0], -t[1]))
            assert select_next(state) == best[1]

    def test_empty_fine_set_raises(self, laplace_5x5):
        src, oracle = parametric_source(laplace_5x5)
        state, _ = coarsen(laplace_5x5, src, n_coarse=25, q_max=4, oracle=oracle)
        with pytest.raises(ValueError):
            select_next(state)


class TestUpdate:
    def test_round_of_far_picks_equals_sequential_replay(self, laplace_7x7):
        # picks farther apart than 2*radius have disjoint update balls
        src, oracle = parametric_source(laplace_7x7, radius=2.0)
        added = [0, 24, 48]  # pairwise distance >= 6 > 2*radius
        one_round = init_variances(laplace_7x7, src, 4)
        update_after_add(one_round, added, oracle, src, 4)
        sequential = init_variances(laplace_7x7, src, 4)
        for a in added:
            update_after_add(sequential, [a], oracle, src, 4)
        assert one_round.coarse_order == sequential.coarse_order == added
        np.testing.assert_array_equal(one_round.variance, sequential.variance)
        np.testing.assert_array_equal(one_round.members, sequential.members)
        np.testing.assert_allclose(one_round.weights, sequential.weights, atol=1e-15)

    def test_round_commits_its_balls_in_pick_order(self, monkeypatch):
        """Two committed picks 3 apart at radius 2: the variables in both balls
        (the lens) keep the second ball's refresh, which differs from the
        first's, and the condition-number warnings, here raised for every
        variable divisible by 4, come ball by ball as in the one-at-a-time
        replay, not by index."""
        problem = generate_fd_square(9, (1.0, 1.0, 0.0))
        src, oracle = parametric_source(problem, radius=2.0)
        refresh = coarsen_module.refresh_stencils

        def flagging(fine, member_sets, cov_source):
            result = refresh(fine, member_sets, cov_source)
            result[-1][:, 3] = np.asarray(fine) % 4 == 0  # the ill-conditioned count
            return result

        monkeypatch.setattr(coarsen_module, "refresh_stencils", flagging)

        def replay(rounds):
            state = init_variances(problem, src, 4)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for added in rounds:
                    update_after_add(state, added, oracle, src, 4)
            return state, [int(str(w.message).split()[4]) for w in caught]

        one_round, said = replay([[42, 39]])
        first, first_said = replay([[42]])
        sequential, sequential_said = replay([[42], [39]])
        assert one_round.coarse_order == [42, 39]
        assert one_round.last_affected == first.last_affected + sequential.last_affected
        twice = one_round.last_affected
        lens = sorted({j for j in twice if twice.count(j) == 2})
        assert lens == [40, 41]
        assert all((first.weights[j] != sequential.weights[j]).any() for j in lens)
        assert_same_coarsening(one_round, sequential)
        assert said == sequential_said == [24, 32, 40, 44, 52, 60, 40, 48]
        assert said[:len(first_said)] == first_said

    def test_isolated_add_touches_only_itself(self):
        problem = ProblemInstance(matrix=sp.diags([2.0, 3.0, 4.0]).tocsr())
        rng = np.random.default_rng(2)
        src = EmpiricalCovariance(rng.standard_normal((3, 2)))
        oracle = GraphDistanceOracle(problem.matrix, 4.0)
        state = init_variances(problem, src, 2)
        before = state.variance.copy()
        update_after_add(state, [1], oracle, src, 2)
        assert state.is_coarse[1] and state.variance[1] == 0.0
        assert state.variance[0] == before[0] and state.variance[2] == before[2]
        assert state.last_affected == []

    def test_first_add_gives_singleton_unit_stencils(self, laplace_5x5):
        src, oracle = parametric_source(laplace_5x5)
        state = init_variances(laplace_5x5, src, 4)
        update_after_add(state, [12], oracle, src, 4)
        for j in state.last_affected:
            assert state.members[j].tolist() == [12, -1, -1, -1]
            np.testing.assert_allclose(state.weights[j], [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_already_coarse_rejected(self, laplace_5x5):
        src, oracle = parametric_source(laplace_5x5)
        state = init_variances(laplace_5x5, src, 4)
        update_after_add(state, [0], oracle, src, 4)
        with pytest.raises(ValueError):
            update_after_add(state, [0], oracle, src, 4)

    def test_incremental_equals_full_recompute_7x7(self, laplace_7x7):
        src, oracle = parametric_source(laplace_7x7)
        q_max = 4
        state = init_variances(laplace_7x7, src, 4)
        for _ in range(12):
            update_after_add(state, [select_next(state)], oracle, src, q_max)
            # from-scratch recomputation of every fine stencil
            for j in range(state.n):
                if state.is_coarse[j]:
                    continue
                [row] = nearest_coarse([j], state.is_coarse.astype(np.int64), [1], oracle, q_max)
                np.testing.assert_array_equal(state.members[j], row)
                members = row[row >= 0]
                if members.size:
                    local = assemble_local_cov([j], [members], src)
                    [w], _, [simple], [solved] = ordinary_kriging([members], local)
                    assert solved
                    np.testing.assert_allclose(
                        state.weights[j, :members.size], w, atol=1e-12
                    )
                    assert state.variance[j] == pytest.approx(
                        max(simple, 0.0), abs=1e-12
                    )


class TestCoarsen:
    def test_all_coarse_gives_identity(self, laplace_5x5):
        src, oracle = parametric_source(laplace_5x5)
        state, interp = coarsen(laplace_5x5, src, n_coarse=25, q_max=4, oracle=oracle)
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
        state, interp = coarsen(problem, run.source, n_coarse=n_c, q_max=4, oracle=run.oracle)
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
            laplace_7x7, src, tolerance=0.99, q_max=1, oracle=oracle
        )
        assert 1 <= state.num_coarse < 10
        fine = np.flatnonzero(~state.is_coarse)
        assert state.variance[fine].max() <= 0.99
        # singleton stencils: selection variance is the conditional one,
        # sigma2 - C(d)^2/sigma2 for the nearest coarse point
        model = src.model
        for j in fine:
            [member] = state.members[j]  # q_max = 1
            assert member >= 0
            _, members, dists = oracle.distances_from(j, 50.0)
            d = dists[members.tolist().index(member)]
            c = model.cov(d)
            assert state.variance[j] == pytest.approx(
                model.sigma2 - c * c / model.sigma2, rel=1e-10
            )

    def test_unreachable_tolerance_goes_full_coarse(self, laplace_5x5):
        src, oracle = parametric_source(laplace_5x5, radius=50.0)
        state, interp = coarsen(
            laplace_5x5, src, tolerance=1e-30, q_max=4, oracle=oracle
        )
        assert state.num_coarse == 25
        p = interp.to_csr().toarray()
        np.testing.assert_array_equal(p @ p.T, np.eye(25))

    def test_determinism(self, laplace_7x7):
        src, oracle = parametric_source(laplace_7x7)
        c1, _ = coarsen(laplace_7x7, src, n_coarse=12, q_max=4, oracle=oracle)
        src2, oracle2 = parametric_source(laplace_7x7)
        c2, _ = coarsen(laplace_7x7, src2, n_coarse=12, q_max=4, oracle=oracle2)
        assert c1.coarse_order == c2.coarse_order

    def test_variance_zero_on_coarse_and_monotone_under_growth(self, laplace_7x7):
        # monotonicity of the simple variance holds when the interpolatory
        # set grows; caliber truncation may swap members, in which case a
        # closer-but-redundant point can displace an informative one
        src, oracle = parametric_source(laplace_7x7)
        state = init_variances(laplace_7x7, src, 4)
        prev_members = [row[row >= 0].tolist() for row in state.members]
        prev_var = state.variance.copy()
        for _ in range(15):
            update_after_add(state, [select_next(state)], oracle, src, 4)
            assert np.all(state.variance[state.is_coarse] == 0.0)
            for j in range(state.n):
                if state.is_coarse[j]:
                    continue
                members = state.members[j][state.members[j] >= 0].tolist()
                if set(prev_members[j]).issubset(members):
                    assert state.variance[j] <= prev_var[j] + 1e-12
                prev_members[j] = list(members)
            prev_var = state.variance.copy()

    def test_bad_targets_rejected(self, laplace_5x5):
        src, oracle = parametric_source(laplace_5x5)
        with pytest.raises(ValueError):
            coarsen(laplace_5x5, src, q_max=4, oracle=oracle)
        with pytest.raises(ValueError):
            coarsen(laplace_5x5, src, n_coarse=30, q_max=4, oracle=oracle)
        with pytest.raises(ValueError):
            coarsen(laplace_5x5, src, n_coarse=5, tolerance=0.1, q_max=4, oracle=oracle)


FORMAT_CASES = [(case, model) for case in ("s-iso", "s-aniso", "c-iso", "c-aniso")
                for model in ("sph", "emp")]


class TestStencilArrays:
    """The padded member/weight rows the coarsening leaves in its state."""

    @pytest.mark.parametrize("case,model", FORMAT_CASES, ids=lambda p: p)
    def test_rows_after_coarsening(self, case, model):
        cfg = pipeline.RunConfig(case=case, model=model, K=1, seed=1, grid_m=12, rings=8)
        run = pipeline.setup(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state, _ = pipeline.coarsen_run(cfg, run)
        members, weights = state.members, state.weights
        assert members.shape == weights.shape == (state.n, cfg.resolved_q_max())
        assert np.all(members[state.is_coarse] == -1)
        assert np.all(weights[state.is_coarse] == 0.0)
        for j in np.flatnonzero(~state.is_coarse).tolist():
            row = members[j]
            q = int((row >= 0).sum())
            assert np.all(row[:q] >= 0) and np.all(row[q:] == -1)  # -1 only as padding
            assert np.all(weights[j, q:] == 0.0)
            if q == 0:
                continue
            assert len(set(row[:q].tolist())) == q and state.is_coarse[row[:q]].all()
            # nearest first, ties by index: a prefix of the coarse variables in reach
            _, reach, _ = run.oracle.distances_from(j, cfg.radius)
            in_reach = [v for v in reach.tolist() if state.is_coarse[v]]
            assert row[:q].tolist() == in_reach[:q]
            assert abs(weights[j, :q].sum() - 1.0) <= 1e-12
        build_interpolation(state)
        fine_empty = int(np.count_nonzero(~state.is_coarse & (members[:, 0] == -1)))
        assert state.diagnostics.empty_stencils == fine_empty

    def test_to_csr_keeps_an_explicit_zero_weight(self):
        # variables 0 and 2 are coarse; the fine variable 1 interpolates
        # from both, with a weight of exactly 0.0 on 2, and has one padded slot
        op = InterpolationOperator(
            n=3, n_c=2, coarse_index=np.array([0, -1, 1]),
            members=np.array([[-1, -1, -1], [0, 2, -1], [-1, -1, -1]]),
            weights=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        p = op.to_csr()
        assert p.nnz == op.n_c + 2
        assert p.indptr.tolist() == [0, 1, 3, 4]
        assert p.indices.tolist() == [0, 0, 1, 1]
        assert p.data.tolist() == [1.0, 1.0, 0.0, 1.0]


class TestExports:
    def test_splitting_csv_and_p_mtx(self, tmp_path, laplace_5x5):
        src, oracle = parametric_source(laplace_5x5)
        state, interp = coarsen(laplace_5x5, src, n_coarse=6, q_max=4, oracle=oracle)
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
        state, _ = coarsen(laplace_7x7, src, n_coarse=12, q_max=4, oracle=oracle)
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
    """A covariance source whose full-size (q_max) coarse blocks are indefinite:
    those of the rows with q_max real members, whatever their padding."""

    source = "parametric"

    def __init__(self, inner, q_max):
        self.inner, self.q_max = inner, q_max

    def prior_variance(self, nodes):
        return self.inner.prior_variance(nodes)

    def local_matrix(self, nodes):
        mat = self.inner.local_matrix(nodes)
        k = np.shape(nodes)[-1]
        full = (np.asarray(nodes) >= 0).sum(axis=-1) == self.q_max + 1
        return np.where(full[..., None, None], mat + 1.5 * (np.ones((k, k)) - np.eye(k)), mat)


class TestRarePaths:
    """Counters and outputs of the regularization and set-shrinking paths,
    pinned to the values of the elementwise stencil arithmetic, which are
    the same under every BLAS kernel."""

    def test_empirical_k1_regularizes(self):
        cfg = pipeline.RunConfig(case="s-iso", model="emp", K=1, seed=3, grid_m=20)
        run = pipeline.setup(cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state, interp = pipeline.coarsen_run(cfg, run)
        # the variables named by condition-number warnings, in the order warned
        flagged = [int(str(w.message).split()[4]) for w in caught
                   if "condition number" in str(w.message)]
        assert len(flagged) == 30 and flagged[:6] == [357, 376, 273, 292, 311, 216]
        assert hashlib.sha256(str(flagged).encode()).hexdigest()[:16] == "6f9e16a3a67c3b31"
        assert state.diagnostics == CoarseningDiagnostics(
            negative_variance_events=86, regularized_events=2220,
            qmax_reductions=0, empty_stencils=0)
        assert state.coarse_order[:10] == [31, 178, 284, 378, 362, 206, 353, 130, 347, 105]
        assert digest(state, interp) == "11adad83b47d1296"

    def test_each_stencil_assembled_once_per_attempt(self, monkeypatch):
        cfg = pipeline.RunConfig(case="s-iso", model="emp", K=1, seed=3, grid_m=20)
        run = pipeline.setup(cfg)
        assemble, refresh = coarsen_module.assemble_local_cov, coarsen_module.refresh_stencils
        blocks, sets, dropped = [], [], []

        def counting_assemble(i, members, cov_source):
            blocks.append(len(i))
            return assemble(i, members, cov_source)

        def counting_refresh(fine, member_sets, cov_source):
            sets.extend((np.asarray(member_sets)[:, 0] >= 0).tolist())
            result = refresh(fine, member_sets, cov_source)
            dropped.append(int(result[-1][:, 2].sum()))  # the q_max reductions
            return result

        monkeypatch.setattr(coarsen_module, "assemble_local_cov", counting_assemble)
        monkeypatch.setattr(coarsen_module, "refresh_stencils", counting_refresh)
        # the second source forces rejected picks, whose retries are attempts too
        for source in (run.source, TinyPrior(run.source)):
            for collected in (blocks, sets, dropped):
                collected.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                state, _ = pipeline.coarsen_run(cfg, dataclasses.replace(run, source=source))
            retries = sum(dropped)
            assert retries >= state.diagnostics.qmax_reductions
            assert sum(blocks) == sum(sets) + retries

    def test_indefinite_full_sets_shrink(self, laplace_7x7):
        src, oracle = parametric_source(laplace_7x7)
        state, interp = coarsen(laplace_7x7, IndefiniteAtQmax(src, 4), n_coarse=12,
                                q_max=4, oracle=oracle)
        assert state.diagnostics == CoarseningDiagnostics(
            negative_variance_events=0, regularized_events=0,
            qmax_reductions=119, empty_stencils=0)
        assert state.coarse_order == [0, 5, 23, 34, 42, 46, 10, 29, 18, 13, 14, 38]
        assert digest(state, interp) == "3b3ace5e093d7d56"


class TinyPrior:
    """The covariance of `inner` with every prior variance scaled by 1e-12: a
    refreshed variance beats every untouched prior, so once a pick of a
    round refreshes its ball, every later pick still at its prior is
    rejected."""

    def __init__(self, inner):
        self.inner, self.source = inner, inner.source

    def prior_variance(self, nodes):
        return 1e-12 * self.inner.prior_variance(nodes)

    def local_matrix(self, nodes):
        return self.inner.local_matrix(nodes)


ROUND_CASES = [(case, model, K) for case in ("s-iso", "s-aniso", "c-iso", "c-aniso")
               for model, K in (("sph", 1), ("emp", 10), ("emp", 1))]


def coarsen_both_ways(cfg, run, monkeypatch):
    """The coarsening of a set-up to the config's target in speculative
    rounds and one addition at a time, each with the warnings it raised
    (as category and text), and the rounds: the picks of each, how many it
    committed and the picks whose refresh it left kept for reuse."""
    rounds = []
    update = coarsen_module.update_after_add

    def counting_update(state, added, *args, **kwargs):
        before = state.num_coarse
        update(state, added, *args, **kwargs)
        rounds.append((list(added), state.num_coarse - before, set(state.speculated)))
        return state

    monkeypatch.setattr(coarsen_module, "update_after_add", counting_update)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state, _ = pipeline.coarsen_run(cfg, run)
    monkeypatch.undo()
    with warnings.catch_warnings(record=True) as ref_caught:
        warnings.simplefilter("always")
        ref = sequential_coarsening(run.problem, run.source, run.oracle, cfg.resolved_q_max(),
                                    **cfg.resolved_target(run.problem.n))
        build_interpolation(ref)
    said = [[(w.category, str(w.message)) for w in ws] for ws in (caught, ref_caught)]
    return (state, said[0]), (ref, said[1]), rounds


def crowded(picks, oracle, radius) -> list[int]:
    """The picks with an earlier one of `picks` within twice the radius."""
    return [a for k, a in enumerate(picks)
            if set(oracle.distances_from(a, 2.0 * radius)[1].tolist()) & set(picks[:k])]


def lens_rounds(rounds, oracle, radius) -> int:
    """How many rounds committed two picks within twice the radius of each other."""
    return sum(bool(crowded(picks[:kept], oracle, radius)) for picks, kept, _ in rounds)


def assert_same_coarsening(state, ref):
    """Same splitting, stencils and variances (bit for bit) and counters."""
    assert state.coarse_order == ref.coarse_order
    np.testing.assert_array_equal(state.is_coarse, ref.is_coarse)
    for name in ("variance", "members", "weights"):
        mine, theirs = getattr(state, name), getattr(ref, name)
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape)
        assert mine.tobytes() == theirs.tobytes()
    assert state.diagnostics == ref.diagnostics


class TestExactRounds:
    """Speculative rounds give the one-addition-at-a-time greedy's result:
    splitting, stencils, counters and condition-number warnings."""

    @pytest.fixture(scope="class", params=ROUND_CASES, ids=lambda p: "{}-{}-{}".format(*p))
    def case_setup(self, request):
        case, model, K = request.param
        cfg = pipeline.RunConfig(case=case, model=model, K=K, seed=1, grid_m=20, rings=12)
        return cfg, pipeline.setup(cfg)

    @pytest.mark.parametrize("target", ("n_coarse", "tolerance"))
    def test_rounds_equal_sequential_greedy(self, case_setup, target, monkeypatch):
        cfg, run = case_setup
        if target == "tolerance":
            prior = run.source.prior_variance(np.arange(run.problem.n))
            cfg = dataclasses.replace(cfg, tolerance=0.3 * float(np.median(prior)))
        (state, said), (ref, ref_said), rounds = coarsen_both_ways(cfg, run, monkeypatch)
        assert_same_coarsening(state, ref)
        assert said == ref_said
        if cfg.model == "sph":  # the rounds took picks whose balls overlap
            assert lens_rounds(rounds, run.oracle, cfg.radius) > 0

    def test_forced_rejection(self, case_setup, monkeypatch):
        """Rejected picks, among them some whose refresh counted an earlier
        rejected pick of the round within twice the radius as coarse: that
        refresh is stale, and is dropped instead of kept for reuse."""
        cfg, run = case_setup
        run = dataclasses.replace(run, source=TinyPrior(run.source))
        (state, said), (ref, ref_said), rounds = coarsen_both_ways(cfg, run, monkeypatch)
        assert sum(len(picks) - kept for picks, kept, _ in rounds) > 0
        stale = [crowded(picks[kept:], run.oracle, cfg.radius) for picks, kept, _ in rounds]
        assert sum(map(len, stale)) > 0
        for dropped, (_, _, speculated) in zip(stale, rounds):
            assert not speculated & set(dropped)
        assert_same_coarsening(state, ref)
        assert said == ref_said

    def test_stops_at_a_variance_equal_to_the_tolerance(self, laplace_7x7):
        src, oracle = parametric_source(laplace_7x7)
        five = sequential_coarsening(laplace_7x7, src, oracle, 4, n_coarse=5)
        tolerance = five.variance[select_next(five)]  # the sixth pick's variance
        state, _ = coarsen(laplace_7x7, src, tolerance=tolerance, q_max=4, oracle=oracle)
        assert state.coarse_order == five.coarse_order

    def test_set_shrinking_source(self, laplace_7x7):
        src, oracle = parametric_source(laplace_7x7)
        shrinking = IndefiniteAtQmax(src, 4)
        state, _ = coarsen(laplace_7x7, shrinking, n_coarse=12, q_max=4, oracle=oracle)
        ref = sequential_coarsening(laplace_7x7, shrinking, oracle, 4, n_coarse=12)
        build_interpolation(ref)
        assert ref.diagnostics.qmax_reductions > 0
        assert_same_coarsening(state, ref)


def test_one_ball_fetch_per_round(monkeypatch):
    """A round fetches the rows of its picks once, and nearest_coarse the
    rows of the variables it refreshes; selection reads its rows in place
    and pairwise reads no rows."""
    cfg = pipeline.RunConfig(case="s-iso", model="sph", K=1, seed=1, grid_m=15)
    run = pipeline.setup(cfg)
    counts = dict(stacked=0, rounds=0, in_pairwise=0, pairwise=0)
    fetch, pairwise = GraphDistanceOracle.distances_from, GraphDistanceOracle.pairwise
    update = coarsen_module.update_after_add

    def counting_fetch(self, sources, radius=None):
        counts["stacked"] += 1
        return fetch(self, sources, radius)

    def counting_pairwise(self, nodes):
        before = counts["stacked"]
        out = pairwise(self, nodes)
        counts["pairwise"] += 1
        counts["in_pairwise"] += counts["stacked"] - before
        return out

    def counting_update(*args, **kwargs):
        counts["rounds"] += 1
        return update(*args, **kwargs)

    monkeypatch.setattr(GraphDistanceOracle, "distances_from", counting_fetch)
    monkeypatch.setattr(GraphDistanceOracle, "pairwise", counting_pairwise)
    monkeypatch.setattr(coarsen_module, "update_after_add", counting_update)
    state, interp = pipeline.coarsen_run(cfg, run)
    monkeypatch.undo()
    assert counts["rounds"] > 0 and counts["pairwise"] > 0
    assert counts["stacked"] == 2 * counts["rounds"]
    assert counts["in_pairwise"] == 0
    ref = sequential_coarsening(run.problem, run.source, run.oracle, cfg.resolved_q_max(),
                                **cfg.resolved_target(run.problem.n))
    assert state.coarse_order == ref.coarse_order
    p, p_ref = interp.to_csr(), build_interpolation(ref).to_csr()
    for name in ("indptr", "indices", "data"):
        assert getattr(p, name).tobytes() == getattr(p_ref, name).tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.sampled_from(["s-iso", "s-aniso"]),
       st.sampled_from([("sph", 1), ("emp", 10)]), st.integers(min_value=1, max_value=4),
       st.floats(min_value=2.0, max_value=4.0))
def test_rounds_equal_sequential_greedy_on_small_grids(seed, case, model, q_max, radius):
    model, K = model
    cfg = pipeline.RunConfig(case=case, model=model, K=K, seed=seed, grid_m=10, q_max=q_max,
                             radius=radius)
    run = pipeline.setup(cfg)
    with pytest.MonkeyPatch.context() as monkeypatch:
        (state, said), (ref, ref_said), _ = coarsen_both_ways(cfg, run, monkeypatch)
    assert_same_coarsening(state, ref)
    assert said == ref_said


class PerturbedSource:
    """Local covariances cut from a global SPD matrix, except two stencils:
    `bad` gets an indefinite coarse block and `ill` a positive definite one
    with condition number 1e13, each only for its full interpolatory set,
    matched on the real members of a padded row."""

    def __init__(self, cov, source, bad, ill):
        self.cov, self.source, self.bad, self.ill = cov, source, bad, ill

    def prior_variance(self, nodes):
        return self.cov[nodes, nodes]

    def local_matrix(self, nodes):
        nodes = np.asarray(nodes)
        k = nodes.shape[-1]
        rows = nodes.reshape(-1, k)
        mats = np.array([self.cov[np.ix_(row, row)] for row in rows])
        for mat, row in zip(mats, rows.tolist()):
            stencil = (row[-1], [j for j in row[:-1] if j >= 0])
            if stencil == self.bad:
                mat[0, 1] = mat[1, 0] = 2.0 * mat.diagonal()[np.array(row) >= 0].max()
            elif stencil == self.ill:
                mat[:-1, :-1] = np.diag([1.0, 1e-13] + [1.0] * (k - 3))
        return mats.reshape(*nodes.shape, k)


def reference_local(src, j, members) -> LocalCovariance:
    """The local covariance of one stencil, factored by `cholesky_reference`."""
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

    padded = np.full((m, 8), -1)
    for row, members in zip(padded, member_sets):
        row[:len(members)] = members
    members_out, weights, simple, events = refresh_stencils(fine, padded, src)
    assert events[:, 3].tolist() == [int(k == k_ill) for k in range(m)]
    # the indefinite block stays indefinite after the empirical eps*I, so
    # both sources drop its farthest member once, counted at that variable
    one_hot = [int(k == k_bad) for k in range(m)]
    assert events[:, 2].tolist() == one_hot
    assert events[:, 1].tolist() == [(source == "empirical") * b for b in one_hot]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k, (j, members) in enumerate(zip(fine, member_sets)):
            if j == bad[0]:
                members = members[:-1]
            ref = ordinary_kriging_reference(j, members, reference_local(src, j, members))
            pad = 8 - len(members)
            assert members_out[k].tolist() == members + [-1] * pad
            np.testing.assert_array_equal(weights[k], np.append(ref.weights, np.zeros(pad)))
            assert simple[k] == ref.simple_variance


GRID_9X9 = generate_fd_square(9, (1.0, 1.0, 0.0))
PADDED_KINDS = ("emp-k1", "sph", "indefinite")


def padded_stack_case(seed, kind):
    """Stencils of mixed sizes on the 9x9 Laplacian: fine variables (they may
    repeat) with their nearest coarse variables of a random coarse set, each
    set cut to a random size, and a covariance source of `kind`: rank-one
    empirical blocks of one test vector (regularized, mostly ill-conditioned),
    a spherical model of range 1.5, whose cross-covariances beyond it are
    exactly zero, or full sets made indefinite, which retry smaller.  The
    first two scale their variances far from 1, the padding's diagonal."""
    rng = np.random.default_rng(seed)
    n = GRID_9X9.n
    oracle = GraphDistanceOracle(GRID_9X9.matrix, 3.0)
    scale = 10.0 ** rng.uniform(-4.0, 4.0)
    if kind == "emp-k1":
        src = EmpiricalCovariance(scale * rng.standard_normal((n, 1)))
    elif kind == "sph":
        src = ParametricCovariance(ParametricModel("spherical", scale, 1.5), oracle)
    else:
        src = IndefiniteAtQmax(ParametricCovariance(ParametricModel("exponential", 1.0, 2.0),
                                                    oracle), 4)
    rank = (rng.random(n) < rng.uniform(0.15, 0.5)).astype(np.int64)
    rank[rng.integers(n)] = 1
    fine = rng.choice(np.flatnonzero(rank == 0), size=int(rng.integers(20, 60)))
    sets = nearest_coarse(fine, rank, np.ones(fine.size, dtype=np.int64), oracle, 4)
    sets[np.arange(4) >= rng.integers(1, 5, size=fine.size)[:, None]] = -1
    return fine, sets, src


def assert_padded_equals_by_size(fine, sets, src):
    """refresh_stencils, one padded stack per pass, gives the members, weights,
    simple variances and events of one stack per size, byte for byte."""
    got = refresh_stencils(fine, sets, src)
    ref = refresh_stencils_by_size(fine, sets, src)
    for mine, theirs in zip(got, ref, strict=True):
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape)
        assert mine.tobytes() == theirs.tobytes()
    return got


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.sampled_from(PADDED_KINDS))
def test_padded_stack_equals_stacks_by_size(seed, kind):
    fine, sets, src = padded_stack_case(seed, kind)
    assert_padded_equals_by_size(fine, sets, src)


@pytest.mark.parametrize("kind", PADDED_KINDS)
def test_padded_stack_covers_its_rare_blocks(kind):
    """The drawn cases reach what the padding must keep: stacks of mixed sizes,
    regularized and ill-conditioned rank-one blocks, cross-covariances of
    exactly zero, and blocks that retry smaller."""
    fine, sets, src = padded_stack_case(1, kind)
    sizes = (sets >= 0).sum(axis=1)
    assert np.unique(sizes).size >= 3
    _, _, _, events = assert_padded_equals_by_size(fine, sets, src)
    if kind == "emp-k1":
        assert events[:, 1].sum() > 0 and events[:, 3].sum() > 0
    elif kind == "sph":
        real = sets >= 0
        cross = src.local_matrix(np.column_stack([sets, fine]))[:, :-1, -1]
        assert (cross[real] == 0.0).any() and (cross[real] > 0.0).any()
    else:
        retried = events[:, 2] > 0
        assert retried.any() and (events[retried, 2] < sizes[retried]).any()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.booleans())
def test_lazy_rekeys_select_as_a_rebuilt_heap(seed, ties):
    """After rounds of picks and of variances refreshed up and down, re-keyed
    lazily, select_batch returns the picks, popped set and lens flags of a heap
    rebuilt from the current variances, with and without a tolerance and at
    lens budgets from 0."""
    rng = np.random.default_rng(seed)
    n = GRID_9X9.n
    oracle = GraphDistanceOracle(GRID_9X9.matrix, 2.0)

    def draw(size):  # ties make a refreshed variance land on an old key
        return rng.integers(1, 6, size=size) / 4.0 if ties else rng.random(size)

    state = init_variances(GRID_9X9, EmpiricalCovariance(np.ones((n, 1))), 4)
    state.variance[:] = draw(n)
    top = state.variance.copy()
    heap = [(-v, j) for j, v in enumerate(top.tolist())]
    heapq.heapify(heap)
    for _ in range(int(rng.integers(1, 8))):
        picks, popped, _ = select_batch(heap, top, state, oracle, int(rng.integers(1, 6)),
                                        None, int(rng.integers(0, 3)))
        kept = picks[:int(rng.integers(0, len(picks) + 1))]
        state.is_coarse[kept] = True
        state.variance[kept] = 0.0
        fine = np.flatnonzero(~state.is_coarse)
        refreshed = rng.choice(fine, size=min(fine.size, int(rng.integers(0, 40))),
                               replace=False)
        state.variance[refreshed] = draw(refreshed.size)
        state.last_affected = refreshed.tolist()
        coarsen_module._rekey(heap, top, state, popped)
    fine = np.flatnonzero(~state.is_coarse)
    rebuilt = [(-v, j) for v, j in zip(state.variance[fine].tolist(), fine.tolist())]
    heapq.heapify(rebuilt)
    for tolerance in (None, float(np.median(state.variance[fine]))):
        for budget in (0, 1, 3):
            limit = int(rng.integers(1, n + 1))
            lazy = select_batch(list(heap), top.copy(), state, oracle, limit, tolerance, budget)
            eager = select_batch(list(rebuilt), state.variance.copy(), state, oracle, limit,
                                 tolerance, budget)
            assert lazy[0] == eager[0] and lazy[2] == eager[2]
            assert set(lazy[1]) == set(eager[1])


WORK_COUNTS = [
    (pipeline.RunConfig(case="s-iso", model="sph", K=1, seed=3, grid_m=20),
     dict(stacks=31, pushes=1126, pops=1151)),
    (pipeline.RunConfig(case="c-aniso", model="emp", K=10, seed=3, rings=12),
     dict(stacks=33, pushes=577, pops=756)),
]


@pytest.mark.parametrize("cfg, expected", WORK_COUNTS, ids=["s-iso-sph1", "c-aniso-emp10"])
def test_work_counts(cfg, expected, monkeypatch):
    """The Kriging stacks (one per round and retry pass), heap pushes and heap
    pops of a coarsening, exact: they are the same on every machine, so work
    that grows per round shows here without a timing."""
    run = pipeline.setup(cfg)
    counts = dict(stacks=0, pushes=0, pops=0)
    assemble = coarsen_module.assemble_local_cov

    def counting_assemble(*args):
        counts["stacks"] += 1
        return assemble(*args)

    def counting_push(heap, item):
        counts["pushes"] += 1
        heapq.heappush(heap, item)

    def counting_pop(heap):
        counts["pops"] += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(coarsen_module, "assemble_local_cov", counting_assemble)
    monkeypatch.setattr(coarsen_module, "heapq", types.SimpleNamespace(
        heapify=heapq.heapify, heappush=counting_push, heappop=counting_pop))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pipeline.coarsen_run(cfg, run)
    assert counts == expected

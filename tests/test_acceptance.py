"""Acceptance gate: benchmark bands, oracle equivalences, and properties.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see them
on success).  Full-size solver runs are shared through a session fixture.
"""

import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from krigamg.cli import main as cli_main
from krigamg.coarsen import coarsen, init_variances, select_next, update_after_add
from krigamg.covariance import (
    EmpiricalSemivariogram,
    ParametricCovariance,
    ParametricModel,
    fit_semivariogram,
)
from krigamg import pipeline
from krigamg.kriging import assemble_local_cov, ordinary_kriging
from krigamg.metric import GraphDistanceOracle, distance_correlation, nearest_coarse
from krigamg.pipeline import RunConfig, build_problem, run_solve
from krigamg.problems import generate_fd_square
from krigamg.twogrid import build_twogrid, estimate_asymptotic_rate, precondition_apply, vcycle_apply

from conftest import greedy_sweeper, random_spd
from oracles import local_from_dense, ls_multi_interpolation, simple_kriging


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return passed


@pytest.fixture(scope="session")
def solver_runs():
    """One full-size run per table configuration, with wall times."""
    runs = {}
    for case, model in [
        ("s-iso", "sph"), ("s-iso", "exp"), ("c-iso", "sph"),
        ("s-aniso", "sph"), ("c-aniso", "sph"),
    ]:
        cfg = RunConfig(case=case, model=model, K=1, seed=1)
        t0 = time.perf_counter()
        out = run_solve(cfg)
        runs[(case, model)] = (*out, time.perf_counter() - t0)
    return runs


def test_criterion_1_table2_siso(solver_runs):
    ok = True
    for model in ("sph", "exp"):
        rep, *_, wall = solver_runs[("s-iso", model)]
        line_ok = rep.rho <= 0.35 and rep.pcg_iterations <= 12 and wall <= 60.0
        ok &= report(
            f"criterion 1 (s-iso {model}-1)", line_ok,
            f"rho={rep.rho:.4f} (<=0.35), k={rep.pcg_iterations} (<=12), "
            f"runtime={wall:.1f}s (<=60)",
        )
        assert rep.n_c == 2025 // 4
    assert ok


def test_criterion_2_table2_ciso(solver_runs):
    rep, _, _, _, problem, wall = solver_runs[("c-iso", "sph")]
    ok = (
        2400 <= problem.n <= 2700
        and rep.rho <= 0.40
        and rep.pcg_iterations <= 13
    )
    assert report(
        "criterion 2 (c-iso sph-1)", ok,
        f"n={problem.n} (2400..2700), rho={rep.rho:.4f} (<=0.40), "
        f"k={rep.pcg_iterations} (<=13), runtime={wall:.1f}s",
    )


def test_criterion_3_table3_saniso(solver_runs):
    rep, state, interp, _, problem, wall = solver_runs[("s-aniso", "sph")]
    m = 45
    fine = np.flatnonzero(~state.is_coarse)
    same_row = 0
    nonempty = 0
    for i in fine:
        members = state.members[i][state.members[i] >= 0]
        if not members.size:
            continue
        nonempty += 1
        if all(c // m == i // m for c in members):
            same_row += 1
    frac = same_row / len(fine)
    ok = (
        rep.n_c == 2025 // 2
        and rep.rho <= 0.20
        and rep.pcg_iterations <= 9
        and frac >= 0.80
    )
    assert report(
        "criterion 3 (s-aniso sph-1)", ok,
        f"rho={rep.rho:.4f} (<=0.20), k={rep.pcg_iterations} (<=9), "
        f"same-row stencils={frac:.3f} (>=0.80), runtime={wall:.1f}s",
    )


def test_criterion_4_table3_caniso(solver_runs):
    rep, *_, wall = solver_runs[("c-aniso", "sph")]
    ok = rep.pcg_iterations <= 28 and rep.rho <= 0.75
    assert report(
        "criterion 4 (c-aniso sph-1)", ok,
        f"rho={rep.rho:.4f} (<=0.75), k={rep.pcg_iterations} (<=28), "
        f"runtime={wall:.1f}s",
    )


def test_criterion_5_distance_correlations():
    p_s = build_problem(RunConfig(case="s-iso", model="sph"))
    p_c = build_problem(RunConfig(case="c-iso", model="sph"))
    corr_s = distance_correlation(p_s, sample_pairs=6000, seed=3)
    corr_c = distance_correlation(p_c, sample_pairs=6000, seed=3)
    ok_s = report("criterion 5 (s-iso correlation)", corr_s >= 0.98,
                  f"corr={corr_s:.4f} (>=0.98)")
    ok_c = report("criterion 5 (c-iso correlation)", corr_c >= 0.95,
                  f"corr={corr_c:.4f} (>=0.95)")
    assert ok_c
    # The s-iso floor is unattainable for a 5-point stencil graph: its graph
    # distance is the Manhattan metric, whose uniform-pair Pearson correlation
    # with Euclidean distance is ~0.977 regardless of sampling protocol.
    assert ok_s


def test_criterion_6a_dense_gaussian_conditioning():
    rng = np.random.default_rng(42)
    worst = 0.0
    for n in (5, 9, 12):
        full = random_spd(rng, n)
        members = list(range(n - 1))
        [w], _, _, [solved] = ordinary_kriging([members], local_from_dense(full))
        assert solved
        inv = np.linalg.inv(full[:-1, :-1])
        ones = np.ones(n - 1)
        x_c = rng.standard_normal((n - 1, 8))
        mu = (ones @ inv @ x_c) / (ones @ inv @ ones)
        cond = mu + full[:-1, -1] @ inv @ (x_c - np.outer(ones, mu))
        worst = max(worst, np.max(np.abs(w @ x_c - cond)))
    assert report("criterion 6a (dense conditioning oracle)", worst <= 1e-10,
                  f"max deviation {worst:.2e} (<=1e-10)")


def test_criterion_6b_appendix_weight_identity():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(25):
        k = 8
        vectors = rng.standard_normal((5, k))
        members = [1, 2, 3, 4]
        from krigamg.covariance import EmpiricalCovariance

        src = EmpiricalCovariance(vectors, mean_mode="zero")
        local = assemble_local_cov([0], [members], src)
        if np.isnan(local.cho[0]).any() or local.regularized[0]:
            continue
        [w], _, _, [solved] = ordinary_kriging([members], local)
        assert solved
        p_sharp, _ = ls_multi_interpolation(vectors, 0, members)
        c_cc = local.matrix[0, :-1, :-1]
        inv = np.linalg.inv(c_cc)
        ones = np.ones(4)
        correction = (1 - p_sharp @ ones) / (ones @ inv @ ones) * (inv @ ones)
        worst = max(worst, np.max(np.abs(w - (p_sharp + correction))))
    assert report("criterion 6b (least-squares + constant-sum correction)",
                  worst <= 1e-10, f"max deviation {worst:.2e} (<=1e-10)")


def test_criterion_6c_variance_decomposition():
    rng = np.random.default_rng(44)
    worst = 0.0
    min_corr = np.inf
    for _ in range(25):
        full = random_spd(rng, 5)
        local = local_from_dense(full)
        _, [ok_var], _, [solved] = ordinary_kriging([[1, 2, 3, 4]], local)
        assert solved
        simple = simple_kriging(0, local)
        inv = np.linalg.inv(full[:-1, :-1])
        ones = np.ones(4)
        expected = (1 - full[:-1, -1] @ inv @ ones) ** 2 / (ones @ inv @ ones)
        worst = max(worst, abs(ok_var - simple.variance - expected))
        min_corr = min(min_corr, ok_var - simple.variance)
    passed = worst <= 1e-10 and min_corr >= -1e-10
    assert report("criterion 6c (variance decomposition)", passed,
                  f"max residual {worst:.2e} (<=1e-10), min correction {min_corr:.2e} (>=0)")


def test_criterion_6d_incremental_vs_full_recompute():
    problem = generate_fd_square(7, (1, 1, 0))
    oracle = GraphDistanceOracle(problem.matrix, 4.0)
    src = ParametricCovariance(ParametricModel("exponential", 1.0, 2.0), oracle)
    state = init_variances(problem, src, 4)
    worst = 0.0
    for _ in range(12):
        update_after_add(state, [select_next(state)], oracle, src, 4)
        for j in range(state.n):
            if state.is_coarse[j]:
                continue
            [row] = nearest_coarse([j], state.is_coarse.astype(np.int64), [1], oracle, 4)
            assert state.members[j].tobytes() == row.tobytes()
            members = row[row >= 0]
            if members.size:
                [w], _, [simple], [solved] = ordinary_kriging(
                    [members], assemble_local_cov([j], [members], src))
                assert solved
                worst = max(worst, np.max(np.abs(state.weights[j, :members.size] - w)))
                worst = max(worst, abs(state.variance[j] - max(simple, 0.0)))
    assert report("criterion 6d (incremental coarsening vs full recompute, 7x7)",
                  worst <= 1e-12, f"max drift {worst:.2e} (<=1e-12)")


def test_criterion_6e_cycle_vs_dense_propagator():
    problem = generate_fd_square(4, (1, 1, 0))  # n = 16
    oracle = GraphDistanceOracle(problem.matrix, 4.0)
    src = ParametricCovariance(ParametricModel("exponential", 1.0, 2.0), oracle)
    _, interp = coarsen(problem, src, n_coarse=4, q_max=4, oracle=oracle)
    sweeper = greedy_sweeper(problem.matrix)
    op = build_twogrid(problem.matrix, interp.to_csr(), sweeper)
    n = problem.n
    a = problem.matrix.toarray()
    zero = np.zeros(n)
    smoother = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        smoother[:, i] = sweeper.sweep(e[sweeper.order], zero)[sweeper.position]
    p = op.p.toarray()
    pi = p @ np.linalg.solve(p.T @ a @ p, p.T @ a)
    expected = smoother @ (np.eye(n) - pi) @ smoother
    built = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        built[:, i] = vcycle_apply(op, zero, e)
    worst = np.max(np.abs(built - expected))
    assert report("criterion 6e (V(1,1) vs dense propagator, n=16)",
                  worst <= 1e-10, f"max deviation {worst:.2e} (<=1e-10)")


def test_criterion_7_property_suite(solver_runs, tmp_path):
    rep, state, interp, op, problem, _ = solver_runs[("s-iso", "sph")]
    checks = []

    p = interp.to_csr()
    sums = np.asarray(p.sum(axis=1)).ravel()
    fine = ~state.is_coarse
    checks.append(("weights sum to 1", np.allclose(sums[fine], 1.0, atol=1e-10)))

    ones_c = np.ones(interp.n_c)
    checks.append(("constant-vector exact interpolation",
                   np.allclose(p @ ones_c, 1.0, atol=1e-10)))

    coarse_rows_ok = all(
        p.indptr[c + 1] - p.indptr[c] == 1
        and p.indices[p.indptr[c]] == interp.coarse_index[c]
        and p.data[p.indptr[c]] == 1.0
        for c in np.flatnonzero(state.is_coarse)
    )
    checks.append(("interpolation identity block", coarse_rows_ok))

    try:
        scipy.linalg.cholesky(op.a_c.toarray())
        checks.append(("Galerkin coarse matrix SPD", True))
    except scipy.linalg.LinAlgError:
        checks.append(("Galerkin coarse matrix SPD", False))

    rng = np.random.default_rng(77)
    sym_ok = True
    for _ in range(5):
        r1 = rng.standard_normal(op.n)
        r2 = rng.standard_normal(op.n)
        z1 = precondition_apply(op, r1)
        z2 = precondition_apply(op, r2)
        sym_ok &= abs(z1 @ r2 - z2 @ r1) <= 1e-10 * max(1.0, abs(z1 @ r2))
    checks.append(("preconditioner symmetry (1e-10)", sym_ok))

    op_exact = build_twogrid(problem.matrix, sp.identity(problem.n, format="csr"), op.sweeper)
    rate = estimate_asymptotic_rate(op_exact, seed=1)
    checks.append(("P = I gives rho <= 1e-8", rate.rho <= 1e-8))

    h = np.arange(0.5, 10.01, 0.5)
    fit_ok = True
    for family, s2, eta in (("exponential", 1.0, 2.0), ("spherical", 2.0, 3.0)):
        model = ParametricModel(family, s2, eta)
        emp = EmpiricalSemivariogram(0.5, h, np.full(h.size, 50, dtype=int),
                                     np.asarray(model.gamma(h)))
        fit = fit_semivariogram(emp, family)
        fit_ok &= abs(fit.sigma2 - s2) / s2 <= 1e-3 and abs(fit.eta - eta) / eta <= 1e-3
    checks.append(("semivariogram generate-then-fit (1e-3)", fit_ok))

    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        with pytest.raises(SystemExit) as exc:
            cli_main(["solve", "--case", "s-iso", "--grid-m", "15", "--model",
                      "sph", "--K", "1", "--seed", "13", "--out", str(out)])
        assert exc.value.code == 0
        outs.append((out / "s-iso_sph-1_report.csv").read_bytes()
                    + (out / "s-iso_sph-1_splitting.csv").read_bytes())
    checks.append(("byte-identical CSV under fixed seed", outs[0] == outs[1]))

    all_ok = all(ok for _, ok in checks)
    detail = "; ".join(f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in checks)
    assert report("criterion 7 (property suite)", all_ok, detail)


def test_criterion_8_k_robustness():
    ok = True
    details = []
    for case in ("s-iso", "s-aniso", "c-iso", "c-aniso"):
        cfg = RunConfig(case=case, model="sph", K=1, seed=1, pair_budget=20000)
        problem = build_problem(cfg)
        etas = {"spherical": [], "exponential": []}
        for K in (1, 10, 100):
            cfg.K = K
            emp = pipeline.setup(cfg, problem).emp
            for family in etas:
                etas[family].append(fit_semivariogram(emp, family).eta)
        for family, values in etas.items():
            ratio = max(values) / min(values)
            ok &= ratio <= 2.0
            details.append(f"{case}/{family[:3]}: {ratio:.2f}")
    assert report("criterion 8 (eta stable across K in {1,10,100})", ok,
                  "max/min eta ratios " + ", ".join(details) + " (all <=2)")

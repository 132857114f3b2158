import numpy as np
import pytest
import scipy.sparse as sp

from krigamg.problems import generate_fd_square
from krigamg.smoother import Coloring, ColoredSweeper, generate_test_vectors, greedy_coloring

from oracles import colored_sweep_reference


class TestColoring:
    def test_grid_is_red_black(self):
        problem = generate_fd_square(3, (1, 1, 0))
        coloring = greedy_coloring(problem.matrix)
        assert coloring.num_colors == 2

    def test_diagonal_matrix_one_color(self):
        coloring = greedy_coloring(sp.identity(6, format="csr"))
        assert coloring.num_colors == 1

    def test_fem_coloring_valid_and_bounded(self, circle_small):
        a = circle_small.matrix
        coloring = greedy_coloring(a)
        coo = a.tocoo()
        degree = np.bincount(coo.row[coo.row != coo.col], minlength=a.shape[0])
        assert coloring.num_colors <= degree.max() + 1
        # brute-force edge scan
        for i, j in zip(coo.row, coo.col):
            if i != j:
                assert coloring.color_of[i] != coloring.color_of[j]


class TestSweep:
    def test_diagonal_solve_in_one_sweep(self):
        a = sp.diags([2.0, 4.0, 8.0]).tocsr()
        coloring = greedy_coloring(a)
        b = np.array([2.0, 8.0, 32.0])
        x = ColoredSweeper(a, coloring).sweep(np.zeros(3), b)
        np.testing.assert_allclose(x, [1.0, 2.0, 4.0])

    def test_two_by_two_hand_value(self):
        a = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        coloring = greedy_coloring(a)
        assert coloring.num_colors == 2
        x = ColoredSweeper(a, coloring).sweep(np.array([1.0, 1.0]), np.zeros(2))
        np.testing.assert_allclose(x, [0.5, 0.25])

    def test_zero_diagonal_rejected(self):
        a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        coloring = greedy_coloring(a)
        with pytest.raises(ValueError):
            ColoredSweeper(a, coloring).sweep(np.zeros(2), np.ones(2))

    def test_forward_reverse_composition_symmetric(self):
        problem = generate_fd_square(4, (1, 1, 0))
        a = problem.matrix
        n = problem.n
        sweeper = ColoredSweeper(a, greedy_coloring(a))
        s = np.empty((n, n))
        zero = np.zeros(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            mid = sweeper.sweep(e, zero)
            s[:, i] = sweeper.sweep(mid, zero, reverse=True)
        ad = a.toarray()
        np.testing.assert_allclose(ad @ s, s.T @ ad, atol=1e-10)

    def test_equals_lexicographic_within_color_gs(self, laplace_5x5):
        a = laplace_5x5.matrix
        n = laplace_5x5.n
        coloring = greedy_coloring(a)
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal(n)
        b = rng.standard_normal(n)
        got = ColoredSweeper(a, coloring).sweep(x0, b)
        # dense Gauss-Seidel in color-blocked order, sequential within color
        ad = a.toarray()
        x = x0.copy()
        order = np.concatenate(coloring.color_indices())
        for i in order:
            x[i] = (b[i] - ad[i] @ x + ad[i, i] * x[i]) / ad[i, i]
        np.testing.assert_allclose(got, x, atol=1e-12)

    def test_a_norm_never_increases_with_zero_rhs(self, laplace_5x5):
        a = laplace_5x5.matrix
        sweeper = ColoredSweeper(a, greedy_coloring(a))
        rng = np.random.default_rng(11)
        x = rng.standard_normal(laplace_5x5.n)
        zero = np.zeros_like(x)
        prev = x @ (a @ x)
        for _ in range(5):
            x = sweeper.sweep(x, zero)
            cur = x @ (a @ x)
            assert cur <= prev + 1e-12
            prev = cur


def unsorted_with_stored_zero(a_44=7.0):
    """5x5 tridiagonal matrix, plus a stored zero at (0, 3) and (3, 0),
    with each row's column indices in descending order, and a valid
    coloring whose last color holds variable 4 alone."""
    rows = [[(3, 0.0), (1, -1.0), (0, 4.0)],
            [(2, -1.5), (1, 5.0), (0, -1.0)],
            [(3, -0.5), (2, 3.0), (1, -1.5)],
            [(4, -2.0), (3, 6.0), (2, -0.5), (0, 0.0)],
            [(4, a_44), (3, -2.0)]]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([j for r in rows for j, _ in r])
    data = np.array([v for r in rows for _, v in r])
    a = sp.csr_matrix((data, indices, indptr), shape=(5, 5))
    return a, Coloring(color_of=np.array([0, 1, 0, 1, 2]), num_colors=3)


class TestBlockedRowsBitwise:
    """The color-blocked sweep against per-color fancy indexing on A."""

    def assert_matches(self, a, coloring, rng):
        sweeper = ColoredSweeper(a, coloring)
        for shape in ((a.shape[0],), (a.shape[0], 3)):
            b = rng.standard_normal(shape)
            for x in (None, np.zeros(shape), rng.standard_normal(shape)):
                for reverse in (False, True):
                    x0 = np.zeros(shape) if x is None else x
                    got = sweeper.sweep(x, b, reverse)
                    assert np.array_equal(got, colored_sweep_reference(a, coloring, x0, b, reverse))
                    assert not np.shares_memory(got, x0)

    def test_fd_and_fem(self, laplace_7x7, circle_small):
        rng = np.random.default_rng(4)
        for problem in (laplace_7x7, circle_small):
            self.assert_matches(problem.matrix, greedy_coloring(problem.matrix), rng)

    def test_unsorted_indices_stored_zero_single_last_color(self):
        a, coloring = unsorted_with_stored_zero()
        assert not a.has_sorted_indices and np.count_nonzero(a.data == 0.0) == 2
        assert coloring.color_indices()[-1].size == 1
        self.assert_matches(a, coloring, np.random.default_rng(6))

    def test_zero_diagonal_rejected(self):
        a, coloring = unsorted_with_stored_zero(a_44=0.0)
        with pytest.raises(ValueError):
            ColoredSweeper(a, coloring)


class TestTestVectors:
    def test_unsmoothed_noise_statistics(self):
        problem = generate_fd_square(45, (1, 1, 0))
        tv = generate_test_vectors(problem.matrix, 3, 0, seed=7)
        for k in range(3):
            assert 0.8 <= tv[:, k].var() <= 1.2

    def test_smoothing_reduces_rayleigh_quotient(self, laplace_7x7):
        a = laplace_7x7.matrix
        raw = generate_test_vectors(a, 1, 0, seed=3)[:, 0]
        smooth = generate_test_vectors(a, 1, 1, seed=3)[:, 0]

        def rayleigh(v):
            return (v @ (a @ v)) / (v @ v)

        assert rayleigh(smooth) < rayleigh(raw)

    def test_deterministic(self, laplace_5x5):
        a = laplace_5x5.matrix
        t1 = generate_test_vectors(a, 4, 2, seed=9)
        t2 = generate_test_vectors(a, 4, 2, seed=9)
        assert np.array_equal(t1, t2)

    def test_columns_nested_across_K(self, laplace_5x5):
        a = laplace_5x5.matrix
        t1 = generate_test_vectors(a, 2, 1, seed=9)
        t2 = generate_test_vectors(a, 5, 1, seed=9)
        assert np.array_equal(t1, t2[:, :2])

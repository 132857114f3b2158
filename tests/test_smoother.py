import numpy as np
import pytest
import scipy.sparse as sp

from krigamg.problems import generate_fd_square
from krigamg.smoother import ColoredSweeper, _spmv, generate_test_vectors, greedy_coloring

from conftest import greedy_sweeper
from oracles import colored_sweep_reference


def natural_sweep(sweeper, x, b, reverse=False):
    """One sweep on vectors in natural numbering: gather, sweep, scatter."""
    order = sweeper.order
    return sweeper.sweep(None if x is None else x[order], b[order], reverse)[sweeper.position]


class TestColoring:
    def test_grid_is_red_black(self):
        problem = generate_fd_square(3, (1, 1, 0))
        coloring = greedy_coloring(problem.matrix)
        assert coloring.max() + 1 == 2

    def test_diagonal_matrix_one_color(self):
        coloring = greedy_coloring(sp.identity(6, format="csr"))
        assert coloring.max() + 1 == 1

    def test_fem_coloring_valid_and_bounded(self, circle_small):
        a = circle_small.matrix
        coloring = greedy_coloring(a)
        coo = a.tocoo()
        degree = np.bincount(coo.row[coo.row != coo.col], minlength=a.shape[0])
        assert coloring.max() + 1 <= degree.max() + 1
        # brute-force edge scan
        for i, j in zip(coo.row, coo.col):
            if i != j:
                assert coloring[i] != coloring[j]


class TestSweep:
    def test_diagonal_solve_in_one_sweep(self):
        a = sp.diags([2.0, 4.0, 8.0]).tocsr()
        coloring = greedy_coloring(a)
        b = np.array([2.0, 8.0, 32.0])
        x = natural_sweep(ColoredSweeper(a, coloring), np.zeros(3), b)
        np.testing.assert_allclose(x, [1.0, 2.0, 4.0])

    def test_two_by_two_hand_value(self):
        a = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        coloring = greedy_coloring(a)
        assert coloring.max() + 1 == 2
        x = natural_sweep(ColoredSweeper(a, coloring), np.array([1.0, 1.0]), np.zeros(2))
        np.testing.assert_allclose(x, [0.5, 0.25])

    def test_zero_diagonal_rejected(self):
        a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        coloring = greedy_coloring(a)
        with pytest.raises(ValueError):
            natural_sweep(ColoredSweeper(a, coloring), np.zeros(2), np.ones(2))

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
            mid = natural_sweep(sweeper, e, zero)
            s[:, i] = natural_sweep(sweeper, mid, zero, reverse=True)
        ad = a.toarray()
        np.testing.assert_allclose(ad @ s, s.T @ ad, atol=1e-10)

    def test_equals_lexicographic_within_color_gs(self, laplace_5x5):
        a = laplace_5x5.matrix
        n = laplace_5x5.n
        coloring = greedy_coloring(a)
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal(n)
        b = rng.standard_normal(n)
        got = natural_sweep(ColoredSweeper(a, coloring), x0, b)
        # dense Gauss-Seidel in color-blocked order, sequential within color
        ad = a.toarray()
        x = x0.copy()
        order = np.argsort(coloring, kind="stable")
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
            x = natural_sweep(sweeper, x, zero)
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
    return a, np.array([0, 1, 0, 1, 2])


class TestBlockedRowsBitwise:
    """The color-blocked sweep, its inputs gathered and its output
    scattered, against per-color fancy indexing on A."""

    def assert_matches(self, a, coloring, rng):
        sweeper = ColoredSweeper(a, coloring)
        order, position = sweeper.order, sweeper.position
        n = a.shape[0]
        b = rng.standard_normal(n)
        for x in (None, np.zeros(n), rng.standard_normal(n)):
            for reverse in (False, True):
                x0 = np.zeros(n) if x is None else x
                xb = None if x is None else x[order]
                got = sweeper.sweep(xb, b[order], reverse)
                expected = colored_sweep_reference(a, coloring, x0, b, reverse)
                assert np.array_equal(got[position], expected)
                assert xb is None or not np.shares_memory(got, xb)

    def test_fd_and_fem(self, laplace_7x7, circle_small):
        rng = np.random.default_rng(4)
        for problem in (laplace_7x7, circle_small):
            self.assert_matches(problem.matrix, greedy_coloring(problem.matrix), rng)

    def test_unsorted_indices_stored_zero_single_last_color(self):
        a, coloring = unsorted_with_stored_zero()
        assert not a.has_sorted_indices and np.count_nonzero(a.data == 0.0) == 2
        assert np.count_nonzero(coloring == coloring.max()) == 1
        self.assert_matches(a, coloring, np.random.default_rng(6))

    def test_zero_diagonal_rejected(self):
        a, coloring = unsorted_with_stored_zero(a_44=0.0)
        with pytest.raises(ValueError):
            ColoredSweeper(a, coloring)

    @pytest.mark.parametrize("color_of", [
        [0, 1, 0, 1],        # one variable short
        [0, 1, 0, 1, 2, 0],  # one variable too many
        [0, 1, 0, 1, -1],    # a negative color drops variable 4
    ])
    def test_coloring_not_covering_the_variables_rejected(self, color_of):
        a, _ = unsorted_with_stored_zero()
        with pytest.raises(ValueError, match="cover"):
            ColoredSweeper(a, np.array(color_of))

    @pytest.mark.parametrize("color_of", [
        [0, 0, 1, 0, 1],  # 0 and 1 share a color and a nonzero coupling
        [0, 1, 2, 0, 1],  # 0 and 3 share a color and are coupled by a stored zero
    ])
    def test_coupled_variables_of_one_color_rejected(self, color_of):
        a, _ = unsorted_with_stored_zero()
        with pytest.raises(ValueError, match="same color"):
            ColoredSweeper(a, np.array(color_of))


def assert_same_bits(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestDirectKernel:
    """`_spmv` against `csr_matrix @ x`: the same bits, signed zeros included,
    so a SciPy release that changes its private kernel fails here."""

    @staticmethod
    def matrices():
        """The unsorted matrix with stored zeros, with an empty row 5 and a row
        6 whose products with `signed_zero_x` are all -0.0, in int32 and int64
        index arrays."""
        a, _ = unsorted_with_stored_zero()
        rows = [(a.indices[a.indptr[i]:a.indptr[i + 1]], a.data[a.indptr[i]:a.indptr[i + 1]])
                for i in range(5)]
        rows += [(np.array([], dtype=int), np.array([])), (np.array([6, 1]), np.array([-2.0, 3.0]))]
        indptr = np.cumsum([0] + [cols.size for cols, _ in rows])
        indices = np.concatenate([cols for cols, _ in rows])
        data = np.concatenate([vals for _, vals in rows])
        for dtype in (np.int32, np.int64):
            m = sp.csr_matrix((data, indices.astype(dtype), indptr.astype(dtype)), shape=(7, 7))
            m.indices, m.indptr = indices.astype(dtype), indptr.astype(dtype)
            assert m.indices.dtype == m.indptr.dtype == dtype and not m.has_sorted_indices
            yield m

    @staticmethod
    def inputs(rng):
        x = rng.standard_normal(7)
        yield x
        signed_zero_x = x.copy()
        signed_zero_x[1], signed_zero_x[6] = -0.0, 0.0
        yield signed_zero_x

    def test_bits_equal_matmul(self):
        rng = np.random.default_rng(12)
        for m in self.matrices():
            for x in self.inputs(rng):
                expected = m @ x
                assert_same_bits(_spmv(m.indptr, m.indices, m.data, x), expected)
                if x[1] == 0.0:
                    assert not np.signbit(expected[6])  # the sum starts at +0.0
                for lo, hi in ((0, 3), (3, 7), (5, 6)):
                    got = _spmv(m.indptr[lo:hi + 1], m.indices, m.data, x)
                    assert_same_bits(got, m[lo:hi] @ x)


class TestTestVectors:
    def test_unsmoothed_noise_statistics(self):
        problem = generate_fd_square(45, (1, 1, 0))
        tv = generate_test_vectors(greedy_sweeper(problem.matrix), 3, 0, seed=7)
        for k in range(3):
            assert 0.8 <= tv[:, k].var() <= 1.2

    def test_smoothing_reduces_rayleigh_quotient(self, laplace_7x7):
        a = laplace_7x7.matrix
        raw = generate_test_vectors(greedy_sweeper(a), 1, 0, seed=3)[:, 0]
        smooth = generate_test_vectors(greedy_sweeper(a), 1, 1, seed=3)[:, 0]

        def rayleigh(v):
            return (v @ (a @ v)) / (v @ v)

        assert rayleigh(smooth) < rayleigh(raw)

    def test_deterministic(self, laplace_5x5):
        a = laplace_5x5.matrix
        t1 = generate_test_vectors(greedy_sweeper(a), 4, 2, seed=9)
        t2 = generate_test_vectors(greedy_sweeper(a), 4, 2, seed=9)
        assert np.array_equal(t1, t2)

    @pytest.mark.parametrize("K", [1, 10])
    @pytest.mark.parametrize("nu", [1, 2])
    def test_bitwise_against_reference_sweeps(self, laplace_7x7, circle_small, K, nu):
        """nu sweeps of each column, gathered once and scattered once, equal
        nu plain sweeps of the (n, K) block."""
        cases = [(p.matrix, greedy_coloring(p.matrix)) for p in (laplace_7x7, circle_small)]
        cases.append(unsorted_with_stored_zero())
        for a, coloring in cases:
            got = generate_test_vectors(ColoredSweeper(a, coloring), K, nu, seed=4)
            expected = generate_test_vectors(ColoredSweeper(a, coloring), K, 0, seed=4)
            for _ in range(nu):
                expected = colored_sweep_reference(a, coloring, expected, np.zeros_like(expected))
            assert np.array_equal(got, expected)

    def test_columns_nested_across_K(self, laplace_5x5):
        a = laplace_5x5.matrix
        t1 = generate_test_vectors(greedy_sweeper(a), 2, 1, seed=9)
        t2 = generate_test_vectors(greedy_sweeper(a), 5, 1, seed=9)
        assert np.array_equal(t1, t2[:, :2])

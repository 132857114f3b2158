import numpy as np
import pytest
import scipy.sparse as sp

from krigamg.problems import generate_fd_square, generate_fem_circle
from krigamg.smoother import ColoredSweeper, greedy_coloring


@pytest.fixture(scope="session")
def laplace_5x5():
    return generate_fd_square(5, (1.0, 1.0, 0.0))


@pytest.fixture(scope="session")
def laplace_7x7():
    return generate_fd_square(7, (1.0, 1.0, 0.0))


@pytest.fixture(scope="session")
def aniso_7x7():
    return generate_fd_square(7, (1.0, 1e-2, 0.0))


@pytest.fixture(scope="session")
def circle_small():
    return generate_fem_circle(5, (1.0, 1.0, 0.0))


def greedy_sweeper(matrix):
    """The sweeper of a matrix on its greedy coloring, as a run builds it."""
    return ColoredSweeper(matrix, greedy_coloring(matrix))


def random_spd(rng, q, jitter=0.5):
    """Random well-conditioned SPD matrix of size q."""
    m = rng.standard_normal((q, q))
    return m @ m.T + (q * jitter) * np.eye(q)


def tridiagonal_mtx(path, diagonal_2):
    """Write a symmetric 3x3 tridiagonal .mtx whose entry (2, 2) is the line
    diagonal_2 ("" leaves it out)."""
    entries = "1 1 2.0\n" + diagonal_2 + "3 3 2.0\n2 1 -1.0\n3 2 -1.0\n"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    f"3 3 {entries.count(chr(10))}\n" + entries)
    return path


def isolate(a, k):
    """a with row and column k cut down to the diagonal entry."""
    keep = sp.diags((np.arange(a.shape[0]) != k).astype(float))
    return keep @ a @ keep + sp.diags(np.where(np.arange(a.shape[0]) == k, a.diagonal(), 0.0))

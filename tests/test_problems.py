import hashlib
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from krigamg.problems import (
    DiffusionCoefficients,
    generate_case,
    generate_fd_square,
    generate_fem_circle,
    load_matrix_market,
    save_matrix_market,
    triangle_stiffness,
    _polar_mesh,
)

from conftest import tridiagonal_mtx


def fd_stencil_oracle(m, c1, c2, c3):
    """Dense assembly by direct stencil enumeration (independent of the CSR path)."""
    n = m * m
    a = np.zeros((n, n))
    offsets = {
        (0, 0): 2 * c1 + 2 * c2,
        (1, 0): -c1, (-1, 0): -c1,
        (0, 1): -c2, (0, -1): -c2,
        (1, 1): -c3 / 2, (-1, -1): -c3 / 2,
        (1, -1): c3 / 2, (-1, 1): c3 / 2,
    }
    for iy in range(m):
        for ix in range(m):
            i = iy * m + ix
            for (dx, dy), v in offsets.items():
                jx, jy = ix + dx, iy + dy
                if 0 <= jx < m and 0 <= jy < m and v != 0.0:
                    a[i, jy * m + jx] += v
    return a


class TestFdSquare:
    def test_s_iso_dimensions_and_stencil(self):
        problem = generate_fd_square(45, (1, 1, 0))
        assert problem.n == 2025
        # interior-interior row carries the 5-point values [-1,-1,4,-1,-1]
        mid = 22 * 45 + 22
        row = problem.matrix.getrow(mid)
        assert sorted(row.data) == [-1.0, -1.0, -1.0, -1.0, 4.0]

    def test_smallest_laplacian(self):
        problem = generate_fd_square(2, (1, 1, 0))
        a = problem.matrix.toarray()
        assert problem.n == 4
        assert np.all(np.diag(a) == 4.0)
        expected = np.array([
            [4, -1, -1, 0],
            [-1, 4, 0, -1],
            [-1, 0, 4, -1],
            [0, -1, -1, 4],
        ], dtype=float)
        np.testing.assert_array_equal(a, expected)

    def test_aniso_row_sums_against_oracle(self):
        problem = generate_fd_square(45, (1, 1e-2, 0))
        a = problem.matrix
        m = 45
        interior = [iy * m + ix for iy in range(1, m - 1) for ix in range(1, m - 1)]
        sums = np.asarray(a.sum(axis=1)).ravel()[interior]
        assert np.max(np.abs(sums)) < 1e-12
        oracle = fd_stencil_oracle(5, 1.0, 1e-2, 0.0)
        small = generate_fd_square(5, (1, 1e-2, 0)).matrix.toarray()
        np.testing.assert_allclose(small, oracle, atol=1e-14)

    def test_mixed_derivative_stencil_matches_oracle(self):
        small = generate_fd_square(4, (2.0, 1.5, 0.5)).matrix.toarray()
        np.testing.assert_allclose(small, fd_stencil_oracle(4, 2.0, 1.5, 0.5), atol=1e-14)

    def test_m_matrix_for_no_cross_term(self):
        a = generate_fd_square(8, (1, 1e-2, 0)).matrix.tocoo()
        off = a.row != a.col
        assert np.all(a.data[off] <= 0)
        assert np.all(a.data[~off] > 0)

    def test_rejects_indefinite_coefficients(self):
        with pytest.raises(ValueError):
            generate_fd_square(5, (1.0, 1.0, 1.5))
        with pytest.raises(ValueError):
            DiffusionCoefficients(-1.0, 1.0, 0.0)

    def test_deterministic(self):
        a = generate_fd_square(9, (1, 1e-2, 0)).matrix
        b = generate_fd_square(9, (1, 1e-2, 0)).matrix
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)

    def test_coords_layout(self):
        problem = generate_fd_square(3, (1, 1, 0))
        h = 0.25
        np.testing.assert_allclose(problem.coords[0], [h, h])
        np.testing.assert_allclose(problem.coords[5], [3 * h, 2 * h])


class TestFemCircle:
    def test_symmetric_and_spd(self):
        for coeffs in ((1, 1, 0), (1, 1e-2, 0)):
            problem = generate_fem_circle(7, coeffs)
            a = problem.matrix
            asym = abs(a - a.T)
            assert asym.nnz == 0 or asym.data.max() < 1e-12
            scipy.linalg.cholesky(a.toarray())

    def test_default_rings_size_in_band(self):
        problem = generate_case("c-iso")
        assert 2400 <= problem.n <= 2700

    def test_assembled_rows_match_per_element_oracle(self):
        # quadrature-based per-triangle oracle, independent of the B^T D B path
        for rings in (2, 3):
            for coeffs in ((1.0, 1.0, 0.0), (1.0, 1e-2, 0.0), (2.0, 1.5, 0.5)):
                coeffs = DiffusionCoefficients(*coeffs)
                points, tris = _polar_mesh(rings)
                d = coeffs.as_matrix()
                n_total = points.shape[0]
                dense = np.zeros((n_total, n_total))
                ref_pts = [(0.5, 0.0), (0.5, 0.5), (0.0, 0.5)]  # 3-point edge-midpoint rule
                for tri in tris:
                    p1, p2, p3 = points[tri[0]], points[tri[1]], points[tri[2]]
                    jac = np.column_stack([p2 - p1, p3 - p1])
                    det = np.linalg.det(jac)
                    inv_t = np.linalg.inv(jac).T
                    grads_ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
                    k_loc = np.zeros((3, 3))
                    for _ in ref_pts:  # gradients constant; rule weights sum to area
                        g = grads_ref @ inv_t.T
                        k_loc += (abs(det) / 2.0 / len(ref_pts)) * (g @ d @ g.T)
                    for a_ in range(3):
                        for b_ in range(3):
                            dense[tri[a_], tri[b_]] += k_loc[a_, b_]
                interior = np.arange(n_total - 6 * rings)
                assembled = generate_fem_circle(rings, coeffs).matrix.toarray()
                np.testing.assert_allclose(
                    assembled, dense[np.ix_(interior, interior)], atol=1e-12,
                    err_msg=f"rings={rings}, {coeffs}",
                )

    def test_triangle_stiffness_rejects_degenerate(self):
        with pytest.raises(ValueError):
            triangle_stiffness((0, 0), (1, 0), (2, 0), np.eye(2))

    def test_interior_row_sums_vanish(self):
        # constant function is in the kernel away from the boundary
        problem = generate_fem_circle(6, (1, 1, 0))
        sums = np.asarray(problem.matrix.sum(axis=1)).ravel()
        assert abs(sums[0]) < 1e-12  # center node touches no boundary node


class TestMatrixMarket:
    def test_identity_roundtrip(self, tmp_path):
        path = tmp_path / "eye.mtx"
        eye = sp.identity(2, format="csr")
        from krigamg.problems import ProblemInstance

        save_matrix_market(ProblemInstance(matrix=eye), path)
        problem = load_matrix_market(path)
        assert problem.n == 2
        np.testing.assert_array_equal(problem.matrix.diagonal(), [1.0, 1.0])

    def test_fd_roundtrip_bit_identical(self, tmp_path):
        original = generate_fd_square(3, (1, 1, 0))
        mtx = tmp_path / "fd.mtx"
        coords = tmp_path / "fd.coords"
        save_matrix_market(original, mtx, coords)
        back = load_matrix_market(mtx, coords)
        assert np.array_equal(back.matrix.toarray(), original.matrix.toarray())
        np.testing.assert_array_equal(back.coords, original.coords)

    def test_coords_length_mismatch(self, tmp_path):
        original = generate_fd_square(3, (1, 1, 0))
        mtx = tmp_path / "fd.mtx"
        coords = tmp_path / "fd.coords"
        save_matrix_market(original, mtx, coords)
        lines = coords.read_text().splitlines()[:-1]
        coords.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="coords"):
            load_matrix_market(mtx, coords)

    def test_nonsymmetric_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 4\n"
            "1 1 2.0\n2 2 2.0\n3 3 2.0\n1 2 -1.0\n"
        )
        with pytest.raises(ValueError, match="symmetric"):
            load_matrix_market(path)

    @pytest.mark.parametrize("diagonal", ["2 2 -1.0\n", "2 2 0.0\n", ""])
    def test_non_positive_diagonal_rejected(self, tmp_path, diagonal):
        path = tridiagonal_mtx(tmp_path / "bad.mtx", diagonal)
        with pytest.raises(ValueError, match=re.escape(f"{path}: matrix has a non-positive")):
            load_matrix_market(path)

    @pytest.mark.parametrize("entries", ["2 2 nan\n", "2 2 inf\n", "2 2 2.0\n3 1 -inf\n"])
    def test_non_finite_entry_rejected(self, tmp_path, entries):
        path = tridiagonal_mtx(tmp_path / "bad.mtx", entries)
        with pytest.raises(ValueError, match=re.escape(f"{path}: matrix has a non-finite entry")):
            load_matrix_market(path)

    def test_repeated_coords_index_rejected(self, tmp_path):
        original = generate_fd_square(3, (1, 1, 0))
        mtx = tmp_path / "fd.mtx"
        coords = tmp_path / "fd.coords"
        save_matrix_market(original, mtx, coords)
        lines = coords.read_text().splitlines()
        lines[1] = "1" + lines[1][1:]  # index 1 twice, index 2 never
        coords.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{coords}:2: index 1 listed twice")):
            load_matrix_market(mtx, coords)

    @pytest.mark.parametrize("line", ["2 0.5x 0.25", "2.0 0.5 0.25", "2 0.5", "2 0.5 0.25 1",
                                      "2 nan 0.25", "2 0.5 -inf"])
    def test_malformed_coords_line_names_file_and_line(self, tmp_path, line):
        original = generate_fd_square(3, (1, 1, 0))
        mtx = tmp_path / "fd.mtx"
        coords = tmp_path / "fd.coords"
        save_matrix_market(original, mtx, coords)
        lines = coords.read_text().splitlines()
        lines[1] = line
        coords.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{coords}:2: expected 'i x y'")):
            load_matrix_market(mtx, coords)

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "garbage.mtx"
        path.write_text("this is not a matrix\n")
        with pytest.raises(ValueError):
            load_matrix_market(path)


def test_generated_matrices_pass_dense_cholesky():
    for label in ("s-iso", "s-aniso"):
        problem = generate_case(label, m=12)
        scipy.linalg.cholesky(problem.matrix.toarray())
    scipy.linalg.cholesky(generate_fem_circle(6, (1, 1e-2, 0)).matrix.toarray())


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# SHA-256 of the bytes of indptr, indices, data and coords, recorded when
# assembly ran as per-offset and per-triangle loops (numpy 2.4, scipy 1.17,
# x86-64).  Assembly must reproduce every bit: the CLI pins and the
# benchmark compare outputs byte for byte.
GENERATED_DIGESTS = [
    pytest.param(lambda: generate_case("s-iso"), "s-iso", (
        "6cf62850ae97aeaacbd3076d8a1b92b0c1198e8f68d01a5448a8f49a3ac3cdb0",
        "3a43ed66f017d908772fdb16ef3be93d8763695137eaa2c8def35684dc5dba20",
        "40d1f27309bd65982f2fb42fa9c8acffebb46810662941ee80d4066db73f577f",
        "7ad073d899d22993ac2af823f0d267c8059154410a63a5ec2f7c87eac60e532f",
    ), id="s-iso"),
    pytest.param(lambda: generate_case("s-aniso"), "s-aniso", (
        "6cf62850ae97aeaacbd3076d8a1b92b0c1198e8f68d01a5448a8f49a3ac3cdb0",
        "3a43ed66f017d908772fdb16ef3be93d8763695137eaa2c8def35684dc5dba20",
        "4715792c5225d5365e1e218c6440239b35c3710385ed905e27b83655919e81c7",
        "7ad073d899d22993ac2af823f0d267c8059154410a63a5ec2f7c87eac60e532f",
    ), id="s-aniso"),
    pytest.param(lambda: generate_case("c-iso"), "c-iso", (
        "a96f857d5053b5d162e2b2bb6302e0ddd4b18d2c84ec9e423be4cc0aeac97c1d",
        "7f1ec15dab825da7fe015259627d8495414322db5351472e277847fe35bed4c2",
        "674e260cc416ef36d191de2675354d0916af25b3bf23409765e9890f0d5e0859",
        "5ea08205e6e08cff7a536fba7293fa925a520c1921cffaf0e6c363f10d9270eb",
    ), id="c-iso"),
    pytest.param(lambda: generate_case("c-aniso"), "c-aniso", (
        "a96f857d5053b5d162e2b2bb6302e0ddd4b18d2c84ec9e423be4cc0aeac97c1d",
        "7f1ec15dab825da7fe015259627d8495414322db5351472e277847fe35bed4c2",
        "02e32a5e3fb047211fb741fec7ac38b48beaadbb483df6e3eb666367ed64353e",
        "5ea08205e6e08cff7a536fba7293fa925a520c1921cffaf0e6c363f10d9270eb",
    ), id="c-aniso"),
    pytest.param(lambda: generate_fd_square(7, (2.0, 1.5, 0.5)), "s-aniso", (
        "aa8c3a6e2e88e8d4f9fb5cedc8e4e053fcf0a877ce7aff8f14295687035d0cd4",
        "1b1224c0019f21f7ffebd21b8528966f7a6ac1c6aa5fc23a61cb0732849539aa",
        "6d1b42af5315cb53dd06f9dda635d478c61114cf5d374f193fd276cf2692ee7f",
        "a1fa11d80448b0ebbc57f5b70dddb6b9f8a5893d05268bd837a8e75121e128b5",
    ), id="fd7-mixed"),
    pytest.param(lambda: generate_fem_circle(8, (1.0, 1e-2, 0.0)), "c-aniso", (
        "7c27a6a7f94f1c6b5a47e7d259748386c8c56395e283b969802e12da136a92f3",
        "ba28b28d38ecdeb14a708fd1de8d0d177026d95dcadddd8e2c206eebb612e73c",
        "e4a2caf4b568cda0745dad5458fd4ffebdc0e81c2c3aeb02e603436e0768fd20",
        "34ce5200e2f80c8870100a64c9751072890700fb38d1f0f78516a44b763c2a43",
    ), id="fem8-aniso"),
]


@pytest.mark.parametrize("build, label, digests", GENERATED_DIGESTS)
def test_generated_problems_bit_identical(build, label, digests):
    problem = build()
    a = problem.matrix
    assert problem.label == label
    assert tuple(map(_sha256, (a.indptr, a.indices, a.data, problem.coords))) == digests


@pytest.mark.parametrize("rings, digests", [
    (3, ("555d82c6be1bef7aa2f85932f62fec98305010cb2a9ccf32cda30802424b022b",
         "a3bef02d50a7d66008d6e132589a1e7ae3e725722806e8de6abf4327b3d86d60")),
    (29, ("93dbc103672a2dbcd875e8c3eace5b1ec57a3b6ffe151ab175441920b4f3ef5a",
          "33085b6a4a3fcd9d402c11bd9e54c28628fdba8faf8e786cd25049937acfc833")),
])
def test_polar_mesh_bit_identical(rings, digests):
    points, tris = _polar_mesh(rings)
    assert tris.dtype == np.int64
    assert (_sha256(points), _sha256(tris)) == digests

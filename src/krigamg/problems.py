"""Diffusion test problems and Matrix Market ingestion.

Generates the two benchmark families (finite differences on the unit
square, linear finite elements on the unit disc) for the operator

    -(c1 d2/dx2 + c2 d2/dy2 + 2 c3 d2/dxdy) u = f

with homogeneous Dirichlet boundary and eliminated boundary unknowns,
and reads/writes external systems in Matrix Market coordinate format.
Matrices are stored unscaled (entries carry the h^2 factor for the FD
family); the coarsening pipeline is scale-invariant except for the raw
semivariogram sill, which only rescales the fitted parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse as sp

__all__ = [
    "DiffusionCoefficients",
    "ProblemInstance",
    "CASE_LABELS",
    "generate_fd_square",
    "generate_fem_circle",
    "generate_case",
    "load_matrix_market",
    "save_matrix_market",
    "validate_spd_matrix",
]

CASE_LABELS = ("s-iso", "s-aniso", "c-iso", "c-aniso")

# Table of benchmark coefficient choices, keyed by case label.
_CASE_COEFFS = {
    "s-iso": (1.0, 1.0, 0.0),
    "s-aniso": (1.0, 1e-2, 0.0),
    "c-iso": (1.0, 1.0, 0.0),
    "c-aniso": (1.0, 1e-2, 0.0),
}


@dataclass(frozen=True)
class DiffusionCoefficients:
    """Constant coefficients of the second-order diffusion operator.

    The 2x2 coefficient matrix [[c1, c3], [c3, c2]] must be positive
    definite (c1 > 0 and c1*c2 - c3^2 > 0).
    """

    c1: float
    c2: float
    c3: float = 0.0

    def __post_init__(self):
        if not (self.c1 > 0.0 and self.c1 * self.c2 - self.c3 ** 2 > 0.0):
            raise ValueError(
                f"coefficient matrix [[{self.c1},{self.c3}],[{self.c3},{self.c2}]] "
                "is not positive definite"
            )

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.c1, self.c3], [self.c3, self.c2]])


@dataclass
class ProblemInstance:
    """An SPD system matrix plus optional node coordinates and a case label."""

    matrix: sp.csr_matrix
    coords: np.ndarray | None = None
    label: str = "external"

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def __post_init__(self):
        if self.coords is not None:
            self.coords = np.asarray(self.coords, dtype=float)
            if self.coords.shape != (self.matrix.shape[0], 2):
                raise ValueError(
                    f"coords shape {self.coords.shape} does not match n={self.matrix.shape[0]}"
                )


def _finalize_csr(a: sp.spmatrix, drop_tol_rel: float = 1e-14) -> sp.csr_matrix:
    """Symmetrize storage, drop assembly-roundoff zeros, sort indices."""
    a = a.tocsr()
    a = (a + a.T) * 0.5
    a = a.tocsr()
    a.sum_duplicates()
    if a.nnz:
        cutoff = drop_tol_rel * np.abs(a.data).max()
        a.data[np.abs(a.data) <= cutoff] = 0.0
    a.eliminate_zeros()
    a.sort_indices()
    return a


def validate_spd_matrix(a: sp.csr_matrix, tol: float = 1e-12) -> None:
    """Check finite entries, structural symmetry, value symmetry and a positive diagonal.

    Raises ValueError on the first violated invariant.  A full Cholesky
    SPD check is left to the tests (dense, n <= 3000).
    """
    if not np.isfinite(a.data).all():
        raise ValueError("matrix has a non-finite entry")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: {a.shape}")
    diag = a.diagonal()
    if np.any(diag <= 0.0):
        raise ValueError("matrix has a non-positive or missing diagonal entry")
    asym = abs(a - a.T)
    scale = np.abs(a.data).max() if a.nnz else 1.0
    if asym.nnz and asym.data.max() > tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")


def generate_fd_square(m: int, coeffs: DiffusionCoefficients | tuple) -> ProblemInstance:
    """Finite-difference diffusion matrix on the m x m interior grid of (0,1)^2.

    Assembles the 9-point stencil for -(c1 uxx + c2 uyy + 2 c3 uxy) with
    homogeneous Dirichlet boundary, unscaled (entries multiplied by h^2,
    h = 1/(m+1)).  The mixed term uses the 4-corner cross stencil with
    entries -c3/2 at the (+1,+1)/(-1,-1) neighbours and +c3/2 at the
    (+1,-1)/(-1,+1) neighbours.  In Kronecker form the matrix is
    c1 I(x)T + c2 T(x)I - (c3/2) U(x)U with T = tridiag(-1, 2, -1) and
    U = tridiag(-1, 0, 1).

    Parameters
    ----------
    m : int
        Grid side; n = m^2 interior unknowns.
    coeffs : DiffusionCoefficients or (c1, c2, c3) tuple

    Returns
    -------
    ProblemInstance
        CSR matrix with node k = iy*m + ix and coords of the interior
        grid points.
    """
    if not isinstance(coeffs, DiffusionCoefficients):
        coeffs = DiffusionCoefficients(*coeffs)
    if m < 2:
        raise ValueError("grid side m must be >= 2")

    c1, c2, c3 = coeffs.c1, coeffs.c2, coeffs.c3
    eye = sp.identity(m)
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    u = sp.diags([-1.0, 1.0], [-1, 1], shape=(m, m))
    a = c1 * sp.kron(eye, t) + c2 * sp.kron(t, eye) - (c3 / 2) * sp.kron(u, u)
    a = _finalize_csr(a)
    validate_spd_matrix(a)

    xs = (np.arange(m) + 1) * (1.0 / (m + 1))
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    coords = np.column_stack([gx.ravel(), gy.ravel()])
    label = "s-iso" if (c1 == c2 and c3 == 0.0) else "s-aniso"
    return ProblemInstance(matrix=a, coords=coords, label=label)


def _polar_mesh(rings: int) -> tuple[np.ndarray, np.ndarray]:
    """Structured-polar triangulation of the unit disc.

    Ring r (r = 1..rings) carries 6r nodes at radius r/rings; node 0 is
    the centre.  Returns (points, triangles) with triangles oriented
    counter-clockwise.
    """
    sizes = 6 * np.arange(rings + 1)  # nodes per ring; ring 0 is the centre
    starts = np.concatenate([[0, 1], 1 + np.cumsum(sizes[1:])])
    ring = np.repeat(np.arange(1, rings + 1), sizes[1:])
    ang = 2.0 * np.pi * (np.arange(1, starts[-1]) - starts[ring]) / sizes[ring]
    radius = ring / rings
    points = np.vstack([[0.0, 0.0], np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])])

    k = np.arange(6)
    tris = [np.column_stack([np.zeros(6, dtype=int), 1 + k, 1 + (k + 1) % 6])]
    # annulus strips: merge rings with 6r and 6(r+1) nodes by the angle of
    # the next node on each; the outer ring advances first on equal angles
    for r in range(1, rings):
        ni, no = sizes[r], sizes[r + 1]
        si, so = starts[r], starts[r + 1]
        ai = 2.0 * np.pi * np.arange(ni + 1) / ni
        ao = 2.0 * np.pi * np.arange(no + 1) / no
        outer = np.argsort(np.concatenate([ao[1:], ai[1:]]), kind="stable") < no
        j = np.cumsum(outer) - outer  # outer nodes passed before each step
        i = np.cumsum(~outer) - ~outer
        tris.append(np.column_stack([
            si + i % ni, so + j % no,
            np.where(outer, so + (j + 1) % no, si + (i + 1) % ni),
        ]))
    return points, np.concatenate(tris)


def triangle_stiffness(p1, p2, p3, coeff_matrix: np.ndarray) -> np.ndarray:
    """P1 stiffness K[a,b] = area * grad(l_a)^T D grad(l_b) of triangles (p1, p2, p3).

    Each vertex is an (x, y) pair or a (T, 2) array of them; returns the
    (3, 3) element matrix, or a (T, 3, 3) stack.
    """
    (x1, y1), (x2, y2), (x3, y3) = (np.asarray(p, dtype=float).T for p in (p1, p2, p3))
    area2 = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    area = 0.5 * np.abs(area2)
    if np.any(area < 1e-14):
        raise ValueError("degenerate triangle in mesh (area < 1e-14)")
    b = np.stack([y2 - y3, y3 - y1, y1 - y2], axis=-1)
    c = np.stack([x3 - x2, x1 - x3, x2 - x1], axis=-1)
    grads = np.stack([b, c], axis=-1) / area2[..., None, None]  # rows: grad l_a
    return area[..., None, None] * grads @ coeff_matrix @ np.swapaxes(grads, -1, -2)


def generate_fem_circle(rings: int, coeffs: DiffusionCoefficients | tuple) -> ProblemInstance:
    """P1 finite-element diffusion matrix on a polar triangulation of the unit disc.

    Boundary (outermost ring) unknowns are eliminated; n = 1 + 3*rings*(rings-1)
    interior nodes remain.  rings=29 gives n=2437.
    """
    if not isinstance(coeffs, DiffusionCoefficients):
        coeffs = DiffusionCoefficients(*coeffs)
    if rings < 2:
        raise ValueError("rings must be >= 2")

    points, tris = _polar_mesh(rings)
    k_loc = triangle_stiffness(*(points[tris[:, v]] for v in range(3)), coeffs.as_matrix())
    # entries in triangle, row-vertex, column-vertex order: tocsr sums
    # duplicates in input order, so this order fixes the summed bits
    rows = np.broadcast_to(tris[:, :, None], k_loc.shape).ravel()
    cols = np.broadcast_to(tris[:, None, :], k_loc.shape).ravel()
    n_total = points.shape[0]
    a_full = sp.coo_matrix((k_loc.ravel(), (rows, cols)), shape=(n_total, n_total)).tocsr()

    interior = np.arange(n_total - 6 * rings)
    a = _finalize_csr(a_full[np.ix_(interior, interior)])
    validate_spd_matrix(a)

    label = "c-iso" if (coeffs.c1 == coeffs.c2 and coeffs.c3 == 0.0) else "c-aniso"
    return ProblemInstance(matrix=a, coords=points[interior], label=label)


def generate_case(label: str, *, m: int = 45, rings: int = 29) -> ProblemInstance:
    """Build one of the named benchmark cases (s-iso, s-aniso, c-iso, c-aniso)."""
    if label not in _CASE_COEFFS:
        raise ValueError(f"unknown case {label!r}; expected one of {CASE_LABELS}")
    coeffs = DiffusionCoefficients(*_CASE_COEFFS[label])
    if label.startswith("s-"):
        return generate_fd_square(m, coeffs)
    return generate_fem_circle(rings, coeffs)


def load_matrix_market(path, coords_path=None) -> ProblemInstance:
    """Read a real symmetric coordinate Matrix Market file, optionally with coords.

    The coordinates file holds one whitespace-separated "i x y" triple per
    line with 1-based indices, each index exactly once.  Input that fails
    validate_spd_matrix (a non-finite entry, not square, a non-positive or
    missing diagonal entry, not symmetric within 1e-12 relative) is
    rejected; storage is explicitly symmetrized.
    """
    try:
        raw = scipy.io.mmread(str(path))
    except Exception as exc:
        raise ValueError(f"failed to parse Matrix Market file {path}: {exc}") from exc
    if np.iscomplexobj(raw.data if sp.issparse(raw) else raw):
        raise ValueError(f"matrix in {path} is not real")
    a = sp.csr_matrix(raw)
    try:
        validate_spd_matrix(a)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    a = _finalize_csr(a)

    coords = None
    if coords_path is not None:
        coords = _read_coords(coords_path, a.shape[0])
    return ProblemInstance(matrix=a, coords=coords, label="external")


def _read_coords(path, n: int) -> np.ndarray:
    entries = {}  # 1-based index -> (x, y)
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            try:
                i, x, y = line.split()
                idx, xy = int(i), (float(x), float(y))
                valid = bool(np.isfinite(xy).all())
            except ValueError:
                valid = False
            if not valid:
                raise ValueError(f"{path}:{lineno}: expected 'i x y' with an integer i "
                                 f"and finite x, y, got {line!r}")
            if idx in entries:
                raise ValueError(f"{path}:{lineno}: index {idx} listed twice")
            entries[idx] = xy
    if len(entries) != n:
        raise ValueError(
            f"coords file {path} has {len(entries)} entries, matrix dimension is {n}"
        )
    coords = np.empty((n, 2))
    for idx, xy in entries.items():
        if not (1 <= idx <= n):
            raise ValueError(f"coords file {path}: index {idx} out of range 1..{n}")
        coords[idx - 1] = xy
    return coords


def save_matrix_market(problem: ProblemInstance, path, coords_path=None) -> None:
    """Write the matrix as coordinate real symmetric .mtx, plus coords if given.

    Values are written with enough digits to round-trip float64 exactly.
    """
    scipy.io.mmwrite(str(path), problem.matrix.tocoo(), symmetry="symmetric", precision=17)
    if coords_path is not None:
        if problem.coords is None:
            raise ValueError("problem has no coordinates to save")
        with open(coords_path, "w") as handle:
            for i, (x, y) in enumerate(problem.coords, start=1):
                handle.write(f"{i} {float(x)!r} {float(y)!r}\n")

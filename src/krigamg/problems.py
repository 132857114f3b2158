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
    """Check structural symmetry, value symmetry and a positive diagonal.

    Raises ValueError on the first violated invariant.  A full Cholesky
    SPD check is left to the tests (dense, n <= 3000).
    """
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
    (+1,-1)/(-1,+1) neighbours.

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
    n = m * m
    h = 1.0 / (m + 1)

    # stencil offsets (dx, dy) -> value, already multiplied by h^2
    stencil = {
        (0, 0): 2.0 * c1 + 2.0 * c2,
        (1, 0): -c1,
        (-1, 0): -c1,
        (0, 1): -c2,
        (0, -1): -c2,
    }
    if c3 != 0.0:
        stencil[(1, 1)] = -0.5 * c3
        stencil[(-1, -1)] = -0.5 * c3
        stencil[(1, -1)] = 0.5 * c3
        stencil[(-1, 1)] = 0.5 * c3

    rows, cols, vals = [], [], []
    for (dx, dy), v in stencil.items():
        if v == 0.0:
            continue
        ix = np.arange(m)
        iy = np.arange(m)
        gx, gy = np.meshgrid(ix, iy, indexing="xy")
        keep = (
            (gx + dx >= 0) & (gx + dx < m) & (gy + dy >= 0) & (gy + dy < m)
        )
        src = (gy[keep] * m + gx[keep]).ravel()
        dst = ((gy[keep] + dy) * m + (gx[keep] + dx)).ravel()
        rows.append(src)
        cols.append(dst)
        vals.append(np.full(src.size, v))

    a = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    a = _finalize_csr(a)
    validate_spd_matrix(a)

    xs = (np.arange(m) + 1) * h
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
    pts = [(0.0, 0.0)]
    ring_start = [0]
    for r in range(1, rings + 1):
        ring_start.append(len(pts))
        k = 6 * r
        radius = r / rings
        ang = 2.0 * np.pi * np.arange(k) / k
        pts.extend(zip(radius * np.cos(ang), radius * np.sin(ang)))
    points = np.asarray(pts)

    tris = []
    # centre fan to ring 1
    for k in range(6):
        a = ring_start[1] + k
        b = ring_start[1] + (k + 1) % 6
        tris.append((0, a, b))

    # annulus strips: merge rings with 6r and 6(r+1) nodes by angle
    for r in range(1, rings):
        ni, no = 6 * r, 6 * (r + 1)
        si, so = ring_start[r], ring_start[r + 1]
        ai = 2.0 * np.pi * np.arange(ni + 1) / ni  # angle of inner node i (wraps)
        ao = 2.0 * np.pi * np.arange(no + 1) / no
        i = j = 0
        while i < ni or j < no:
            inner_next = ai[i + 1] if i < ni else np.inf
            outer_next = ao[j + 1] if j < no else np.inf
            vi = si + i % ni
            vo = so + j % no
            if outer_next <= inner_next:
                tris.append((vi, vo, so + (j + 1) % no))
                j += 1
            else:
                tris.append((vi, vo, si + (i + 1) % ni))
                i += 1
    return points, np.asarray(tris, dtype=int)


def triangle_stiffness(p1, p2, p3, coeff_matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """P1 stiffness of one triangle: K[a,b] = area * grad(l_a)^T D grad(l_b)."""
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    area2 = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    area = 0.5 * abs(area2)
    if area < 1e-14:
        raise ValueError("degenerate triangle in mesh (area < 1e-14)")
    b = np.array([y2 - y3, y3 - y1, y1 - y2])
    c = np.array([x3 - x2, x1 - x3, x2 - x1])
    grads = np.column_stack([b, c]) / area2  # rows: grad l_a
    return area * grads @ coeff_matrix @ grads.T, area


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
    d = coeffs.as_matrix()
    n_total = points.shape[0]

    rows, cols, vals = [], [], []
    for tri in tris:
        k_loc, _ = triangle_stiffness(points[tri[0]], points[tri[1]], points[tri[2]], d)
        for a in range(3):
            for b in range(3):
                rows.append(tri[a])
                cols.append(tri[b])
                vals.append(k_loc[a, b])
    a_full = sp.coo_matrix((vals, (rows, cols)), shape=(n_total, n_total)).tocsr()

    n_boundary = 6 * rings
    interior = np.arange(n_total - n_boundary)
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
    line with 1-based indices.  Input that fails validate_spd_matrix (not
    square, a non-positive or missing diagonal entry, not symmetric within
    1e-12 relative) is rejected; storage is explicitly symmetrized.
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
    entries = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'i x y', got {line!r}")
            entries.append((int(parts[0]), float(parts[1]), float(parts[2])))
    if len(entries) != n:
        raise ValueError(
            f"coords file {path} has {len(entries)} entries, matrix dimension is {n}"
        )
    coords = np.empty((n, 2))
    for idx, x, y in entries:
        if not (1 <= idx <= n):
            raise ValueError(f"coords file {path}: index {idx} out of range 1..{n}")
        coords[idx - 1] = (x, y)
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

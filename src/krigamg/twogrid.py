"""Galerkin two-grid operator, V(1,1) cycle, rate estimation, and PCG.

The cycle pairs one colored Gauss-Seidel pre-sweep, an exact coarse
correction through the Galerkin operator A_c = P^T A P, and one
post-sweep.  A_c is factored once by sparse SuperLU in symmetric mode
(minimum-degree ordering of A_c + A_c^T, diagonal pivots only), so the
factor is an LDL^T whose storage follows the fill of A_c, not n_c^2.
The whole cycle runs in the sweeper's color-blocked numbering: it
gathers b (and x0) once, takes both sweeps, the residual on the
sweeper's blocked rows of A, the restriction and the prolongation
there, and scatters the result once.  The restriction R = P^T is stored
once as CSR with its columns relabelled into the blocked numbering, and
P with its rows in that numbering; each row keeps its stored order, so
a row of R sums in ascending fine index, as the product through the
transpose of P does, and every product, through the sweeper's direct
CSR kernel, has the bits of the same product on A, P and P^T in
natural numbering.  As a preconditioner the cycle starts from a zero
guess, so its pre-sweep skips the first color's product.
The stationary solver applies both sweeps in the same ascending color
order, so its error propagator is exactly
(I-MA)(I-Pi)(I-MA) with one and the same smoother M on both sides.
Reversing the post-sweep order instead makes the cycle self-adjoint in
the A inner product; that symmetrized pairing is used exclusively when
the cycle preconditions conjugate gradients, where symmetry is
mandatory.  (For red-black colorings the reversed pairing also wastes
part of the second sweep, since the middle color is relaxed twice in a
row, which is why the solver keeps the same-order form.)

The asymptotic convergence factor is estimated by power iteration on the
solver's error propagator (zero right-hand side), measured in the A-norm
and renormalized every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg  # noqa: F401  perfbench/spans.py traces twogrid.scipy.linalg
import scipy.sparse as sp

from .errors import NumericalError
from .smoother import ColoredSweeper, _spmv

RATE_MAX_CYCLES = 200
RATE_STALL_TOL = 1e-3
PCG_MAX_IT = 500

__all__ = [
    "TwoGridOperator",
    "build_twogrid",
    "galerkin",
    "vcycle_apply",
    "precondition_apply",
    "RateEstimate",
    "estimate_asymptotic_rate",
    "PCGResult",
    "pcg_solve",
    "SolveReport",
    "REPORT_COLUMNS",
    "write_report_csv",
]


def galerkin(a: sp.csr_matrix, p: sp.csr_matrix) -> sp.csr_matrix:
    """Coarse operator P^T A P, explicitly symmetrized against roundoff."""
    a_c = (p.T @ (a @ p)).tocsr()
    a_c = ((a_c + a_c.T) * 0.5).tocsr()
    a_c.sort_indices()
    return a_c


@dataclass
class TwoGridOperator:
    """Assembled V(1,1) two-grid method for one matrix/interpolation pair.

    a, p and a_c are in natural numbering; restriction (P^T, columns
    relabelled) and prolongation (P, rows permuted) are in the sweeper's
    blocked numbering."""

    a: sp.csr_matrix
    p: sp.csr_matrix
    a_c: sp.csr_matrix
    restriction: sp.csr_matrix = field(repr=False)
    prolongation: sp.csr_matrix = field(repr=False)
    sweeper: ColoredSweeper = field(repr=False)
    coarse_factor: sp.linalg.SuperLU = field(repr=False)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def n_c(self) -> int:
        return self.p.shape[1]


def build_twogrid(a: sp.csr_matrix, p: sp.csr_matrix, sweeper: ColoredSweeper) -> TwoGridOperator:
    """The two-grid operator of A and P, relaxing with the sweeper of A."""
    a_c = galerkin(a, p)
    try:
        factor = sp.linalg.splu(a_c.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise NumericalError("Galerkin coarse matrix is not positive definite") from exc
    # Diagonal pivots only make the factor an LDL^T of a symmetric permutation
    # of A_c, and a positive D is then Sylvester's criterion for A_c SPD.
    if not (np.array_equal(factor.perm_r, factor.perm_c) and np.all(factor.U.diagonal() > 0.0)):
        raise NumericalError("Galerkin coarse matrix is not positive definite")
    p = p.tocsr()
    r = p.T.tocsr()
    return TwoGridOperator(
        a=a.tocsr(),
        p=p,
        a_c=a_c,
        restriction=sp.csr_matrix((r.data, sweeper.position[r.indices], r.indptr), shape=r.shape),
        prolongation=p[sweeper.order],
        sweeper=sweeper,
        coarse_factor=factor,
    )


def vcycle_apply(
    op: TwoGridOperator, b: np.ndarray, x0: np.ndarray | None, post_reverse: bool = False
) -> np.ndarray:
    """One V(1,1) cycle: pre-sweep, exact coarse correction, post-sweep.

    By default both sweeps ascend the color order (the stationary solver,
    error propagator (I-MA)(I-Pi)(I-MA)).  With post_reverse=True the
    post-sweep descends, giving the A-self-adjoint variant required for
    preconditioning CG.  x0=None is a zero initial guess.  b, x0 and the
    result are in natural numbering.
    """
    s, rt, pb = op.sweeper, op.restriction, op.prolongation
    b = b[s.order]
    x = s.sweep(None if x0 is None else x0[s.order], b, reverse=False)
    r = b - _spmv(s.indptr, s.indices, s.data, x)
    coarse = op.coarse_factor.solve(_spmv(rt.indptr, rt.indices, rt.data, r))
    x += _spmv(pb.indptr, pb.indices, pb.data, coarse)
    return s.sweep(x, b, reverse=post_reverse)[s.position]


def precondition_apply(op: TwoGridOperator, r: np.ndarray) -> np.ndarray:
    """Symmetrized V(1,1) cycle on residual r with zero initial guess."""
    return vcycle_apply(op, r, None, post_reverse=True)


@dataclass
class RateEstimate:
    rho: float
    cycles: int
    diverged: bool


def estimate_asymptotic_rate(op: TwoGridOperator, seed: int = 0) -> RateEstimate:
    """Power iteration on the error propagator; rho = A-norm reduction per cycle.

    Stops once consecutive A-norm ratios differ by less than RATE_STALL_TOL
    or after RATE_MAX_CYCLES cycles.  A sustained ratio above 1 is reported
    as divergence, not raised.
    """
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(op.n)
    zero = np.zeros(op.n)
    a = op.a

    def a_norm(v):
        return float(np.sqrt(max(v @ _spmv(a.indptr, a.indices, a.data, v), 0.0)))

    e /= a_norm(e)
    rho = 0.0
    prev = None
    over_one = 0
    cycles = 0
    for cycles in range(1, RATE_MAX_CYCLES + 1):
        e_next = vcycle_apply(op, zero, e)
        rho = a_norm(e_next)  # previous iterate had unit A-norm
        if rho == 0.0:
            break
        e = e_next / rho
        over_one = over_one + 1 if rho > 1.0 else 0
        if prev is not None and abs(rho - prev) < RATE_STALL_TOL:
            break
        prev = rho
    return RateEstimate(rho=rho, cycles=cycles, diverged=over_one >= 5)


@dataclass
class PCGResult:
    iterations: int
    converged: bool
    residuals: list[float]


def pcg_solve(op: TwoGridOperator, b: np.ndarray, reduction: float = 1e-8) -> PCGResult:
    """Conjugate gradients from a zero start, preconditioned by one V(1,1)
    cycle per application; only the residual history is kept.

    The preconditioner is applied with a zero initial guess on the
    current residual.  Stops when ||r_k|| <= reduction * ||r_0||; running
    out of iterations (PCG_MAX_IT) is reported, an indefinite
    preconditioner (z^T r <= 0) is raised as NumericalError.
    """
    a = op.a
    r = np.array(b, dtype=float)
    r0_norm = float(np.linalg.norm(r))
    residuals = [r0_norm]
    if r0_norm == 0.0:
        return PCGResult(iterations=0, converged=True, residuals=residuals)
    z = precondition_apply(op, r)
    rz = float(r @ z)
    if rz <= 0.0:
        raise NumericalError("two-grid preconditioner is not positive definite")
    p = z.copy()
    for k in range(1, PCG_MAX_IT + 1):
        ap = _spmv(a.indptr, a.indices, a.data, p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise NumericalError("system matrix is not positive definite in PCG")
        alpha = rz / pap
        r -= alpha * ap
        rnorm = float(np.linalg.norm(r))
        residuals.append(rnorm)
        if rnorm <= reduction * r0_norm:
            return PCGResult(iterations=k, converged=True, residuals=residuals)
        z = precondition_apply(op, r)
        rz_next = float(r @ z)
        if rz_next <= 0.0:
            raise NumericalError("two-grid preconditioner is not positive definite")
        p *= rz_next / rz
        p += z
        rz = rz_next
    return PCGResult(iterations=PCG_MAX_IT, converged=False, residuals=residuals)


REPORT_COLUMNS = ("case", "model", "K", "n_c", "q_max", "radius", "rho", "k")


@dataclass
class SolveReport:
    """One solver-evaluation record (one cell of the results tables)."""

    case: str
    model: str
    K: int
    n_c: int
    q_max: int
    radius: float
    rho: float
    pcg_iterations: int
    converged: bool = True
    diverged: bool = False
    residuals: list[float] = field(default_factory=list)
    error: str = ""

    def csv_row(self) -> str:
        return (
            f"{self.case},{self.model},{self.K},{self.n_c},{self.q_max},"
            f"{float(self.radius)!r},{float(self.rho)!r},{self.pcg_iterations}"
        )


def write_report_csv(reports, path) -> None:
    with open(path, "w") as handle:
        handle.write(",".join(REPORT_COLUMNS) + "\n")
        for rep in reports:
            handle.write(rep.csv_row() + "\n")

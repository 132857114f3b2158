"""Set-up and solve in stages: problem -> test vectors -> covariance -> coarsening -> solve.

Every subcommand runs the same stages, as far as it needs them:

* ``setup`` validates a RunConfig and builds the problem, the run's one
  colored sweeper, the smoothed test vectors, the run's one
  graph-distance oracle and the covariance source; on the parametric
  path also the binned semivariogram and its fitted model;
* ``coarsen_run`` runs the greedy variance coarsening on a set-up;
* ``run_solve`` follows both with the two-grid operator, which relaxes
  with the set-up's sweeper, the rate estimate and preconditioned CG.

RunConfig defaults follow the benchmark protocol: coarse fraction 1/4
with caliber 4 for the isotropic cases, fraction 1/2 with caliber 2
(square) or 3 (circle) for the anisotropic ones, localization radius 4,
one smoothing sweep, and a 10^8 PCG residual reduction.

Seeds: the run seed drives the test vectors; the variogram subsample,
the rate-estimation start vector and the PCG right-hand side use fixed
documented offsets of it, so every artifact of a run is reproducible
from the single seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import covariance as cov
from .coarsen import InterpolationOperator, PartitionState, coarsen, embeddability_failure_fraction
from .errors import NumericalError
from .metric import GraphDistanceOracle, median_neighbor_distance
from .problems import CASE_LABELS, ProblemInstance, generate_case, load_matrix_market
from .smoother import ColoredSweeper, generate_test_vectors, greedy_coloring
from .twogrid import SolveReport, build_twogrid, estimate_asymptotic_rate, pcg_solve

__all__ = ["RunConfig", "Setup", "build_problem", "setup", "coarsen_run", "run_solve",
           "embeddability_failure_fraction", "parse_config_file", "CASE_DEFAULTS", "MODELS"]

FAMILY = {"sph": "spherical", "exp": "exponential"}
MODELS = ("emp", *FAMILY)

CLOUD_SEED_OFFSET = 1_000_003
RATE_SEED_OFFSET = 2_000_003
RHS_SEED_OFFSET = 3_000_003

# (q_max, coarse fraction) per benchmark case
CASE_DEFAULTS = {
    "s-iso": (4, 0.25),
    "c-iso": (4, 0.25),
    "s-aniso": (2, 0.5),
    "c-aniso": (3, 0.5),
    "external": (4, 0.25),
}


@dataclass
class RunConfig:
    """Parameters of one run; the CLI options and config-file keys are its fields."""

    case: str | None = None
    matrix: str | None = None
    coords: str | None = None
    model: str = "sph"
    K: int = 1
    nu: int = 1
    seed: int = 1
    q_max: int | None = None
    radius: float = 4.0
    nc_fraction: float | None = None
    tolerance: float | None = None
    grid_m: int = 45
    rings: int = 29
    vario_max_distance: float | None = None
    bin_width: float | None = None
    pair_budget: int | None = None
    out: str = "."

    def validate(self) -> None:
        if (self.case is None) == (self.matrix is None):
            raise ValueError("specify exactly one of case or matrix")
        if self.coords is not None and self.matrix is None:
            raise ValueError("coords needs matrix; a named case brings its own coordinates")
        if self.case is not None and self.case not in CASE_LABELS:
            raise ValueError(f"unknown case {self.case!r}; expected one of {CASE_LABELS}")
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.nu < 0:
            raise ValueError("nu must be >= 0")
        if self.q_max is not None and self.q_max < 1:
            raise ValueError("q_max must be >= 1")
        for name in ("radius", "tolerance", "vario_max_distance", "bin_width"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:  # NaN fails both
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.nc_fraction is not None and not (0.0 < self.nc_fraction <= 1.0):
            raise ValueError("nc_fraction must be in (0, 1]")
        if self.nc_fraction is not None and self.tolerance is not None:
            raise ValueError("nc_fraction and tolerance are mutually exclusive")
        if self.grid_m < 2:
            raise ValueError("grid_m must be >= 2")
        if self.rings < 2:
            raise ValueError("rings must be >= 2")
        if self.pair_budget is not None and self.pair_budget < 1:
            raise ValueError("pair_budget must be >= 1")

    @property
    def case_label(self) -> str:
        return self.case if self.case is not None else "external"

    def resolved_q_max(self) -> int:
        if self.q_max is not None:
            return self.q_max
        return CASE_DEFAULTS[self.case_label][0]

    def resolved_target(self, n: int) -> dict:
        if self.tolerance is not None:
            return {"tolerance": self.tolerance}
        frac = self.nc_fraction
        if frac is None:
            frac = CASE_DEFAULTS[self.case_label][1]
        return {"n_coarse": max(1, math.floor(n * frac))}

    def model_name(self) -> str:
        return f"{self.model}-{self.K}"


def parse_config_file(path) -> dict:
    """Flat key=value config; keys are RunConfig fields, values parse as their types."""
    types = {f.name: f.type for f in fields(RunConfig)}
    out = {}
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                out[key] = _coerce(types[key], value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


def _coerce(annotation: str, value: str):
    """Parse value as a field annotated e.g. "int" or "float | None"."""
    kind, *optional = annotation.split(" | ")
    if optional and value.lower() in ("none", ""):
        return None
    try:
        return {"int": int, "float": float, "str": str}[kind](value)
    except ValueError:
        raise ValueError(f"expected {kind}, got {value!r}") from None


def build_problem(config: RunConfig) -> ProblemInstance:
    if config.case is not None:
        return generate_case(config.case, m=config.grid_m, rings=config.rings)
    return load_matrix_market(config.matrix, config.coords)


def default_pair_budget(K: int) -> int:
    """Cap the cloud at roughly two million squared differences."""
    return min(200_000, max(20_000, 2_000_000 // K))


@dataclass
class Setup:
    """Everything the stages after set-up read; emp and model only on the parametric path.

    The sweeper relaxes the test vectors and, later, the two-grid cycle."""

    problem: ProblemInstance
    sweeper: ColoredSweeper
    oracle: GraphDistanceOracle
    source: cov.EmpiricalCovariance | cov.ParametricCovariance
    emp: cov.EmpiricalSemivariogram | None = None
    model: cov.ParametricModel | None = None


def setup(config: RunConfig, problem: ProblemInstance | None = None) -> Setup:
    """Validate the config and build the problem (unless given), test vectors,
    distance oracle and covariance source.

    The oracle's ball matrix is built once per matrix and reach (a later run
    on the same matrix reads the one `metric` keeps); on the parametric path
    it reaches the variogram cloud too, which bins pairs read from it.
    """
    config.validate()
    if problem is None:
        problem = build_problem(config)
    sweeper = ColoredSweeper(problem.matrix, greedy_coloring(problem.matrix))
    vectors = generate_test_vectors(sweeper, config.K, config.nu, config.seed)
    if config.model == "emp":
        oracle = GraphDistanceOracle(problem.matrix, config.radius)
        source = cov.EmpiricalCovariance(vectors)
        return Setup(problem, sweeper, oracle, source)

    max_d = config.vario_max_distance
    if max_d is None:
        max_d = 2.0 * config.radius
    oracle = GraphDistanceOracle(problem.matrix, config.radius, reach=max_d)
    width = config.bin_width
    if width is None:
        width = median_neighbor_distance(problem.matrix)
    budget = config.pair_budget
    if budget is None:
        budget = default_pair_budget(config.K)
    cloud = cov.build_variogram_cloud(
        vectors, oracle, max_d, pair_budget=budget, seed=config.seed + CLOUD_SEED_OFFSET,
    )
    emp = cov.bin_semivariogram(cloud, width)
    if len(emp) < 2:
        raise NumericalError(cov.TOO_FEW_BINS)
    model = cov.fit_semivariogram(emp, FAMILY[config.model])
    source = cov.ParametricCovariance(model, oracle)
    return Setup(problem, sweeper, oracle, source, emp, model)


def coarsen_run(config: RunConfig, run: Setup) -> tuple[PartitionState, InterpolationOperator]:
    """Greedy variance coarsening of a set-up to the config's target."""
    return coarsen(
        run.problem,
        run.source,
        q_max=config.resolved_q_max(),
        oracle=run.oracle,
        **config.resolved_target(run.problem.n),
    )


def run_solve(config: RunConfig):
    """Full pipeline; returns (SolveReport, PartitionState, InterpolationOperator,
    TwoGridOperator, ProblemInstance)."""
    run = setup(config)
    state, interp = coarsen_run(config, run)
    problem, sweeper = run.problem, run.sweeper
    # the pair index and the covariance source go before the two-grid stage; the ball
    # matrix stays kept in `metric` for the next run on this matrix
    del run
    op = build_twogrid(problem.matrix, interp.to_csr(), sweeper)
    rate = estimate_asymptotic_rate(op, seed=config.seed + RATE_SEED_OFFSET)
    rhs = np.random.default_rng(config.seed + RHS_SEED_OFFSET).standard_normal(problem.n)
    pcg = pcg_solve(op, rhs, reduction=1e-8)

    report = SolveReport(
        case=problem.label,
        model=config.model_name(),
        K=config.K,
        n_c=interp.n_c,
        q_max=config.resolved_q_max(),
        radius=config.radius,
        rho=rate.rho,
        pcg_iterations=pcg.iterations,
        converged=pcg.converged,
        diverged=rate.diverged,
        residuals=pcg.residuals,
    )
    return report, state, interp, op, problem

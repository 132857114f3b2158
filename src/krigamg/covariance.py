"""Covariance structure of smooth error: empirical entries and variogram fits.

Two interchangeable covariance sources feed the Kriging predictor:

* ``EmpiricalCovariance`` reads entries straight off the test vectors,
  C_ij = (1/K) sum_k (v_i - mu_i)(v_j - mu_j); mean_mode="zero" takes
  mu = 0 (centred smoothed noise, and the only non-degenerate choice at
  K=1), mean_mode="estimated" the per-variable mean over the K columns.
* ``ParametricCovariance`` evaluates a fitted semivariogram model at the
  pseudo-distance, C(d) = sill - gamma(d).

The empirical semivariogram averages squared value differences in
distance bins; gamma_hat includes the 1/2 of the semivariogram
definition, i.e. gamma_hat = (sum of squared differences) / (2 * bin
count), so it estimates gamma directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

__all__ = [
    "EmpiricalCovariance",
    "VariogramCloud",
    "build_variogram_cloud",
    "EmpiricalSemivariogram",
    "bin_semivariogram",
    "ParametricModel",
    "fit_semivariogram",
    "ParametricCovariance",
    "write_semivariogram_csv",
    "write_model_curve_csv",
]

FAMILIES = ("exponential", "spherical")
TOO_FEW_BINS = ("empirical semivariogram has fewer than 2 nonempty bins; "
                "increase vario_max_distance or lower bin_width")


@dataclass
class EmpiricalCovariance:
    """Covariance source backed by test vectors (entries computed on demand)."""

    vectors: np.ndarray
    mean_mode: str = "zero"
    source: str = field(default="empirical", init=False)

    def __post_init__(self):
        if self.mean_mode not in ("zero", "estimated"):
            raise ValueError(f"unknown mean_mode {self.mean_mode!r}")
        v = np.asarray(self.vectors, dtype=float)
        if self.mean_mode == "estimated":
            v = v - v.mean(axis=1, keepdims=True)
        self._centered = v
        self._K = v.shape[1]

    def entry(self, i: int, j: int) -> float:
        return float(self._centered[i] @ self._centered[j]) / self._K

    def prior_variance(self, i: int) -> float:
        return self.entry(i, i)

    def local_matrix(self, nodes) -> np.ndarray:
        rows = self._centered[list(nodes)]
        return (rows @ rows.T) / self._K


@dataclass
class VariogramCloud:
    """Sampled (pair distance, squared value difference) scatter.

    distances has one entry per variable pair; sq_diffs holds the K
    squared differences of that pair, one column per test vector.  Each
    (pair, column) combination counts as one cloud point.
    """

    distances: np.ndarray  # (n_pairs,)
    sq_diffs: np.ndarray  # (n_pairs, K)

    @property
    def num_points(self) -> int:
        return self.sq_diffs.size


def build_variogram_cloud(
    vectors: np.ndarray,
    oracle,
    max_distance: float,
    pair_budget: int | None = None,
    seed: int = 0,
) -> VariogramCloud:
    """Collect (d(i,j), (v_i - v_j)^2) over sampled pairs with d <= max_distance.

    Eligible pairs (i < j) are enumerated through the distance oracle; if
    there are more than pair_budget, a uniform subset is drawn
    (deterministic by seed).  pair_budget=None means exhaustive.
    """
    if max_distance <= 0.0:
        raise ValueError("max_distance must be positive")
    n = vectors.shape[0]
    src, dst, dist = [], [], []
    for i in range(n):
        for j, d in oracle.distances_from(i, max_distance).items():
            if j > i:
                src.append(i)
                dst.append(j)
                dist.append(d)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    dist = np.asarray(dist, dtype=float)

    if pair_budget is not None and src.size > pair_budget:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(src.size, size=pair_budget, replace=False))
        src, dst, dist = src[keep], dst[keep], dist[keep]

    diffs = vectors[src] - vectors[dst]
    return VariogramCloud(distances=dist, sq_diffs=diffs * diffs)


@dataclass
class EmpiricalSemivariogram:
    """Binned semivariogram: (bin center, cloud-point count, gamma_hat) rows."""

    bin_width: float
    centers: np.ndarray
    counts: np.ndarray
    gammas: np.ndarray

    def __len__(self) -> int:
        return self.centers.size


def bin_semivariogram(cloud: VariogramCloud, bin_width: float) -> EmpiricalSemivariogram:
    """Average the cloud into bins [b*w, (b+1)*w); gamma_hat = sum/(2*count)."""
    if bin_width <= 0.0:
        raise ValueError("bin_width must be positive")
    if cloud.num_points == 0:
        empty = np.empty(0)
        return EmpiricalSemivariogram(bin_width, empty, np.empty(0, dtype=int), empty)
    K = cloud.sq_diffs.shape[1]
    bins = np.floor(cloud.distances / bin_width).astype(np.int64)
    nbins = bins.max() + 1
    pair_counts = np.bincount(bins, minlength=nbins)
    sums = np.zeros(nbins)
    np.add.at(sums, bins, cloud.sq_diffs.sum(axis=1))
    nonempty = np.flatnonzero(pair_counts)
    counts = pair_counts[nonempty] * K
    gammas = sums[nonempty] / (2.0 * counts)
    centers = (nonempty + 0.5) * bin_width
    return EmpiricalSemivariogram(bin_width, centers, counts, gammas)


@dataclass
class ParametricModel:
    """Two-parameter semivariogram model with sill sigma2 and range eta.

    exponential: gamma(h) = sigma2 * (1 - exp(-h/eta))
    spherical:   gamma(h) = sigma2 * (1.5 h/eta - 0.5 (h/eta)^3) for h < eta,
                 sigma2 beyond.
    The induced covariance is C(h) = sigma2 - gamma(h); the spherical
    covariance has compact support (exactly 0 for h >= eta).
    """

    family: str
    sigma2: float
    eta: float
    fit_warning: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not (self.sigma2 > 0.0 and self.eta > 0.0):
            raise ValueError("sigma2 and eta must be positive")

    def gamma(self, h):
        out = _semivariogram(self.family, np.asarray(h, dtype=float), self.sigma2, self.eta)
        return out if out.ndim else float(out)

    def cov(self, h):
        h = np.asarray(h, dtype=float)
        if self.family == "exponential":
            out = self.sigma2 * np.exp(-h / self.eta)
        else:
            t = np.minimum(h / self.eta, 1.0)
            out = self.sigma2 * (1.0 - 1.5 * t + 0.5 * t ** 3)
            out = np.where(t >= 1.0, 0.0, out)
        return out if out.ndim else float(out)


def _semivariogram(family: str, h: np.ndarray, sigma2: float, eta: float) -> np.ndarray:
    """The model formulas of ParametricModel, shared with the fit objective."""
    if family == "exponential":
        return sigma2 * (1.0 - np.exp(-h / eta))
    t = np.minimum(h / eta, 1.0)
    return sigma2 * (1.5 * t - 0.5 * t ** 3)


def fit_semivariogram(
    emp: EmpiricalSemivariogram, family: str, max_iter: int = 2000
) -> ParametricModel:
    """Weighted least-squares fit of (sigma2, eta) to the binned semivariogram.

    Minimizes sum_b w_b (gamma_hat_b - gamma_theta(h_b))^2 with weights
    w_b = count_b / h_b^2, via a coarse log-grid search followed by
    Nelder-Mead refinement in log-parameters.  Deterministic.  If the
    refinement hits the iteration cap the best point found so far is
    returned with fit_warning set.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if len(emp) < 2:
        raise ValueError(TOO_FEW_BINS)
    h = emp.centers
    g = emp.gammas
    w = emp.counts / (h * h)

    def objective(log_theta):
        s2, eta = np.exp(log_theta)
        resid = g - _semivariogram(family, h, s2, eta)
        return float(w @ (resid * resid))

    g_scale = max(g.max(), 1e-300)
    s2_grid = np.log(g_scale) + np.log(np.logspace(-1.0, 1.0, 21))
    eta_grid = np.log(h.min() / 4.0) + np.linspace(
        0.0, np.log((4.0 * h.max()) / (h.min() / 4.0)), 25
    )
    best = None
    for ls2 in s2_grid:
        for leta in eta_grid:
            val = objective((ls2, leta))
            if best is None or val < best[0]:
                best = (val, ls2, leta)

    res = scipy.optimize.minimize(
        objective,
        x0=np.array(best[1:]),
        method="Nelder-Mead",
        options={"maxiter": max_iter, "xatol": 1e-12, "fatol": 1e-16},
    )
    if res.fun <= best[0]:
        log_s2, log_eta = res.x
    else:
        log_s2, log_eta = best[1:]
    return ParametricModel(
        family=family,
        sigma2=float(np.exp(log_s2)),
        eta=float(np.exp(log_eta)),
        fit_warning=not res.success,
    )


@dataclass
class ParametricCovariance:
    """Covariance source pairing a fitted model with a distance oracle."""

    model: ParametricModel
    oracle: object
    source: str = field(default="parametric", init=False)

    def prior_variance(self, i: int) -> float:
        return self.model.sigma2

    def local_matrix(self, nodes) -> np.ndarray:
        return np.asarray(self.model.cov(self.oracle.pairwise(nodes)))


def write_semivariogram_csv(emp: EmpiricalSemivariogram, path) -> None:
    with open(path, "w") as handle:
        handle.write("h,count,gamma\n")
        for h, c, g in zip(emp.centers, emp.counts, emp.gammas):
            handle.write(f"{float(h)!r},{int(c)},{float(g)!r}\n")


def write_model_curve_csv(model: ParametricModel, h_grid: np.ndarray, path) -> None:
    """Dump the fitted curve as "h,gamma_model,fit_warning" (flag 0 or 1 on every row)."""
    gam = np.atleast_1d(model.gamma(h_grid))
    flag = int(model.fit_warning)
    with open(path, "w") as handle:
        handle.write("h,gamma_model,fit_warning\n")
        for h, g in zip(h_grid, gam):
            handle.write(f"{float(h)!r},{float(g)!r},{flag}\n")

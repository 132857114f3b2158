"""Covariance structure of smooth error: empirical entries and variogram fits.

Two interchangeable covariance sources feed the Kriging predictor:

* ``EmpiricalCovariance`` reads entries straight off the test vectors,
  C_ij = (1/K) sum_k (v_i - mu_i)(v_j - mu_j); mean_mode="zero" takes
  mu = 0 (centred smoothed noise, and the only non-degenerate choice at
  K=1), mean_mode="estimated" the per-variable mean over the K columns.
* ``ParametricCovariance`` evaluates a fitted semivariogram model at the
  pseudo-distance, C(d) = sill - gamma(d).

``fit_semivariogram`` fits the sill and range of a model family by
weighted least squares.  The sill is linear in the model, so it is
solved in closed form for each range (variable projection) and only the
range is searched, on a log grid refined by bounded Brent, which runs
in this module (``_bounded_brent``), so no optimizer is imported.

``local_matrix`` maps a node set (k,) to its (k, k) covariance, a stack (m, k) to (m, k, k),
each equal to its transpose bit for bit, and ``prior_variance`` a stack of nodes to their
C_ii, the local diagonals bit for bit.  No BLAS call computes an entry or a sum of the fit,
so none depends on the BLAS kernel.

The empirical semivariogram averages squared value differences in
distance bins; gamma_hat includes the 1/2 of the semivariogram
definition, i.e. gamma_hat = (sum of squared differences) / (2 * bin
count), so it estimates gamma directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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

    def prior_variance(self, nodes) -> np.ndarray:
        rows = self._centered[np.asarray(nodes)]
        return (rows * rows).sum(axis=-1) / self._K

    def local_matrix(self, nodes) -> np.ndarray:
        rows = self._centered[np.asarray(nodes)]
        return (rows[..., :, None, :] * rows[..., None, :, :]).sum(axis=-1) / self._K


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

    Eligible pairs (i < j) are read from the oracle's ball matrix in row
    order; if there are more than pair_budget, a uniform subset is drawn
    (deterministic by seed).  pair_budget=None means exhaustive.
    """
    if max_distance <= 0.0:
        raise ValueError("max_distance must be positive")
    src, dst, dist = oracle.distances_from(np.arange(vectors.shape[0]), max_distance)
    later = dst > src
    src, dst, dist = src[later], dst[later], dist[later]

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


def _exponential(t):
    return np.exp(-t)


def _spherical(t):
    t = np.minimum(t, 1.0)
    return np.where(t >= 1.0, 0.0, 1.0 - 1.5 * t + 0.5 * t ** 3)


# unit-sill correlation rho(t) of each model family, t = h / eta
_CORRELATIONS = {"exponential": _exponential, "spherical": _spherical}
FAMILIES = tuple(_CORRELATIONS)


@dataclass
class ParametricModel:
    """Two-parameter semivariogram model with sill sigma2 and range eta.

    C(h) = sigma2 * rho(h/eta) and gamma(h) = sigma2 * (1 - rho(h/eta)), with
    exponential: rho(t) = exp(-t)
    spherical:   rho(t) = 1 - 1.5 t + 0.5 t^3 for t < 1, 0 beyond
    (so the spherical covariance has compact support).  gamma and cov
    take an array of distances h and return an array of its shape.
    fit_warning says why a fit is doubtful, and is empty when it is not.
    """

    family: str
    sigma2: float
    eta: float
    fit_warning: str = ""

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not (self.sigma2 > 0.0 and self.eta > 0.0):
            raise ValueError("sigma2 and eta must be positive")

    def _rho(self, h):
        return _CORRELATIONS[self.family](np.asarray(h, dtype=float) / self.eta)

    def gamma(self, h):
        return self.sigma2 * (1.0 - self._rho(h))

    def cov(self, h):
        return self.sigma2 * self._rho(h)


def fit_semivariogram(emp: EmpiricalSemivariogram, family: str) -> ParametricModel:
    """Weighted least-squares fit of (sigma2, eta) to the binned semivariogram.

    The objective is sum_b w_b (gamma_hat_b - sigma2 f_b)^2, with weights
    w_b = count_b / h_b^2 and f_b = 1 - rho(h_b / eta).  For fixed eta the
    sill is linear, so sigma2(eta) = sum w g f / sum w f f, and only log eta
    is searched: a 25-point grid over [h_min/4, 4 h_max], then bounded Brent
    between the neighbours of the best grid point.  Deterministic.
    fit_warning gives the reason when eta ends at an end of that interval
    or the search does not converge.  A bin with a non-finite center,
    count or gamma is rejected before the search, by its position.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    bad = np.flatnonzero(~(np.isfinite(emp.centers) & np.isfinite(emp.counts)
                           & np.isfinite(emp.gammas)))
    if bad.size:
        b = int(bad[0])
        raise ValueError(f"empirical semivariogram bin {b} is not finite (center "
                         f"{emp.centers[b].item()!r}, count {emp.counts[b].item()!r}, "
                         f"gamma {emp.gammas[b].item()!r})")
    if len(emp) < 2:
        raise ValueError(TOO_FEW_BINS)
    rho = _CORRELATIONS[family]
    h, g = emp.centers, emp.gammas
    w = emp.counts / (h * h)

    def profile(log_eta):
        """(objective, sill) at range exp(log_eta), with the sill in closed form."""
        f = 1.0 - rho(h / np.exp(log_eta))
        wf = w * f
        s2 = np.sum(wf * g) / np.sum(wf * f)
        resid = g - s2 * f
        return float(np.sum(w * (resid * resid))), float(s2)

    lo, hi = np.log(h.min() / 4.0), np.log(4.0 * h.max())
    grid = np.linspace(lo, hi, 25)
    best = int(np.argmin([profile(x)[0] for x in grid]))
    x, converged = _bounded_brent(lambda x: profile(x)[0], grid[max(best - 1, 0)],
                                  grid[min(best + 1, grid.size - 1)], xatol=1e-10)
    eta = float(np.exp(x))
    warning = ""
    # bounded Brent never evaluates a bound itself; it stops about 1e-7 short
    if min(x - lo, hi - x) < 1e-6:
        warning = (f"range reached the search bound (eta={eta:.6g}); "
                   "the cloud does not identify it")
    elif not converged:
        warning = f"range search did not converge (eta={eta:.6g})"
    return ParametricModel(family, profile(x)[1], eta, warning)


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_MAX_EVALS = 500


def _bounded_brent(func, lo, hi, xatol):
    """Minimize func on [lo, hi] by Brent's golden-section search with
    parabolic steps; returns (x, converged).

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 5,
    in the form of Forsythe, Malcolm & Moler's fmin (1977).  It ports
    SciPy's bounded scalar minimization (method "bounded"; BSD-3-Clause,
    Copyright (c) 2001-2002 Enthought, Inc. and 2003 onward the SciPy
    Developers) step for step, with the same operations in the same
    order, so it evaluates func at the same points and returns the same
    x bit for bit.  It stops when x is known to within about xatol;
    converged is False after 500 evaluations, or when x, its value or
    the last value evaluated is NaN.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    fu = np.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:  # parabola through xf, nfc and fulc
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if np.abs(p) < np.abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_EVALS:
            return xf, False
    return xf, not (np.isnan(xf) or np.isnan(fx) or np.isnan(fu))


@dataclass
class ParametricCovariance:
    """Covariance source pairing a fitted model with a distance oracle."""

    model: ParametricModel
    oracle: object
    source: str = field(default="parametric", init=False)

    def prior_variance(self, nodes) -> np.ndarray:
        return np.full(np.shape(nodes), self.model.sigma2)

    def local_matrix(self, nodes) -> np.ndarray:
        return self.model.cov(self.oracle.pairwise(nodes))


def write_semivariogram_csv(emp: EmpiricalSemivariogram, path) -> None:
    with open(path, "w") as handle:
        handle.write("h,count,gamma\n")
        for h, c, g in zip(emp.centers, emp.counts, emp.gammas):
            handle.write(f"{float(h)!r},{int(c)},{float(g)!r}\n")


def write_model_curve_csv(model: ParametricModel, h_grid: np.ndarray, path) -> None:
    """Dump the fitted curve as "h,gamma_model,fit_warning" (flag 0 or 1 on every row)."""
    gam = model.gamma(h_grid)
    flag = int(bool(model.fit_warning))
    with open(path, "w") as handle:
        handle.write("h,gamma_model,fit_warning\n")
        for h, g in zip(h_grid, gam):
            handle.write(f"{float(h)!r},{float(g)!r},{flag}\n")

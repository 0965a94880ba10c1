"""Simulation of correlated GBM intensities and the counts they drive.

The latent process is a bivariate geometric Brownian motion

    dX1 = X1 * mu1 dt + X1 * sigma1 dW1
    dX2 = X2 * mu2 dt + X2 * rho * sigma2 dW1 + X2 * sqrt(1-rho^2) * sigma2 dW2

observed only through a two-dimensional counting process whose conditional
law, given the latent path, is Poisson with intensity ``a_n * X``.  The
observation grid is equidistant, ``t_j = j * T / b_n``; the latent path
lives on a finer grid with ``m`` subintervals per observation interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "ModelParams",
    "SamplingDesign",
    "LatentPath",
    "CountPath",
    "RegimeReport",
    "replication_rng",
    "simulate_latent",
    "integrated_intensity",
    "simulate_counts",
    "validate_regime",
]

# numpy's Generator.poisson rejects means above ~9.22e18; anything close to
# that would overflow cumulative int64 counts anyway.
_POISSON_MEAN_MAX = 9.0e18


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the bivariate GBM intensity model on [0, T]."""

    mu1: float
    mu2: float
    sigma1: float
    sigma2: float
    rho: float
    x1_0: float
    x2_0: float
    T: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.sigma1 < 0 or self.sigma2 < 0:
            raise ValueError("sigma1 and sigma2 must be nonnegative")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        if self.x1_0 <= 0 or self.x2_0 <= 0:
            raise ValueError("initial intensities x1_0, x2_0 must be positive")
        if self.T <= 0:
            raise ValueError("horizon T must be positive")


@dataclass(frozen=True)
class SamplingDesign:
    """Observation grid: ``b_n`` intervals of width ``delta_n = T / b_n``.

    ``m`` is the latent-path refinement (fine subintervals per observation
    interval); ``a_n`` is the intensity scale of the counting process.
    """

    b_n: int
    a_n: float
    m: int = 8
    T: float = 1.0

    def __post_init__(self):
        if self.b_n < 4:
            raise ValueError("b_n must be at least 4")
        if not (self.a_n > 0 and math.isfinite(self.a_n)):
            raise ValueError("a_n must be positive and finite")
        if self.m < 1:
            raise ValueError("refinement m must be at least 1")
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError("horizon T must be positive and finite")

    @property
    def delta_n(self) -> float:
        return self.T / self.b_n

    @property
    def n_fine(self) -> int:
        """Number of fine steps on the latent grid (``b_n * m``)."""
        return self.b_n * self.m


@dataclass(frozen=True)
class LatentPath:
    """Latent intensity trajectory on the fine grid.

    ``times`` has length ``b_n*m + 1``; ``x1``/``x2`` hold the (strictly
    positive) intensity levels at those nodes.
    """

    times: np.ndarray  # (b_n*m + 1,)
    x1: np.ndarray     # (b_n*m + 1,)
    x2: np.ndarray     # (b_n*m + 1,)

    def __post_init__(self):
        if not (len(self.times) == len(self.x1) == len(self.x2)):
            raise ValueError("times, x1, x2 must have equal length")

    @property
    def n_nodes(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class CountPath:
    """Cumulative counts at the ``b_n + 1`` observation times (y[0] = 0)."""

    y1: np.ndarray  # (b_n + 1,) int64
    y2: np.ndarray  # (b_n + 1,) int64

    def __post_init__(self):
        if len(self.y1) != len(self.y2):
            raise ValueError("y1 and y2 must have equal length")
        if len(self.y1) < 2:
            raise ValueError("a count path needs at least two observation times")
        if self.y1[0] != 0 or self.y2[0] != 0:
            raise ValueError("cumulative counts must start at 0")
        if np.any(np.diff(self.y1) < 0) or np.any(np.diff(self.y2) < 0):
            raise ValueError("cumulative counts must be nondecreasing")

    @property
    def b_n(self) -> int:
        return len(self.y1) - 1


@dataclass(frozen=True)
class RegimeReport:
    """Heuristic check of the rate conditions linking b_n and a_n."""

    b_n: int
    a_n: float
    r: float
    satisfies_b_i: bool        # b_n^(5/2)/a_n -> 0 trend, i.e. r > 2.5
    satisfies_bss_i: bool      # b_n^3/a_n -> 0 trend, i.e. r > 3
    notes: str = field(default="", compare=False)


def replication_rng(root_seed: int, b_n: int, r: float, index: int) -> np.random.Generator:
    """Independent substream for one replication of one experiment cell.

    The spawn key is ``(b_n, round(1000*r) mod 2^32, index)``, so a cell's
    streams are reproducible across runs and independent across cells and
    replications.  Within a replication the stream is consumed in a fixed
    order: first the latent-path normals (one ``(2, b_n*m)`` block), then the
    count Poisson draws (one ``(2, b_n)`` block).
    """
    key = (int(b_n), int(round(1000.0 * r)) & 0xFFFFFFFF, int(index))
    return np.random.default_rng(np.random.SeedSequence(root_seed, spawn_key=key))


def simulate_latent(
    params: ModelParams, design: SamplingDesign, rng: np.random.Generator
) -> LatentPath:
    """Simulate the latent GBM pair on the fine grid by exact log-normal steps.

    Per fine step of length ``dt = delta_n / m``:

        X1 *= exp((mu1 - sigma1^2/2) dt + sigma1 sqrt(dt) Z1)
        X2 *= exp((mu2 - sigma2^2/2) dt + sigma2 sqrt(dt) (rho Z1 + sqrt(1-rho^2) Z2))

    with Z1, Z2 independent standard normals, so the marginal law at the grid
    nodes is exact (no Euler bias).

    Parameters
    ----------
    params : ModelParams
    design : SamplingDesign
        Must share the horizon ``T`` with ``params``.
    rng : numpy.random.Generator
        Consumes exactly one ``(2, b_n*m)`` block of standard normals.

    Returns
    -------
    LatentPath
    """
    if design.T != params.T:
        raise ValueError("params.T and design.T disagree")
    n = design.n_fine
    dt = params.T / n
    sqdt = math.sqrt(dt)

    z = rng.standard_normal((2, n))
    z1 = z[0]
    z2 = params.rho * z[0] + math.sqrt(1.0 - params.rho**2) * z[1]

    log_inc1 = (params.mu1 - 0.5 * params.sigma1**2) * dt + params.sigma1 * sqdt * z1
    log_inc2 = (params.mu2 - 0.5 * params.sigma2**2) * dt + params.sigma2 * sqdt * z2

    x1 = np.empty(n + 1)
    x2 = np.empty(n + 1)
    x1[0] = params.x1_0
    x2[0] = params.x2_0
    np.exp(np.cumsum(log_inc1) + math.log(params.x1_0), out=x1[1:])
    np.exp(np.cumsum(log_inc2) + math.log(params.x2_0), out=x2[1:])

    times = np.arange(n + 1) * dt
    return LatentPath(times=times, x1=x1, x2=x2)


def integrated_intensity(path: LatentPath, design: SamplingDesign) -> tuple[np.ndarray, np.ndarray]:
    """Per-observation-interval integrals of the latent intensities.

    Trapezoidal rule over the ``m`` fine subintervals of each observation
    interval:  ``lam[j-1] ~= int_{t_{j-1}}^{t_j} X_s ds`` for j = 1..b_n.

    Returns
    -------
    (lam1, lam2) : pair of (b_n,) arrays, strictly positive.
    """
    if path.n_nodes != design.n_fine + 1:
        raise ValueError(
            f"path has {path.n_nodes} nodes, expected {design.n_fine + 1} for this design"
        )
    dt = design.T / design.n_fine

    def per_interval(x: np.ndarray) -> np.ndarray:
        cell = 0.5 * dt * (x[:-1] + x[1:])               # (b_n*m,)
        return cell.reshape(design.b_n, design.m).sum(axis=1)

    return per_interval(path.x1), per_interval(path.x2)


def simulate_counts(
    intensities: tuple[np.ndarray, np.ndarray], a_n: float, rng: np.random.Generator
) -> CountPath:
    """Draw the count path given the integrated intensities.

    Conditional on the latent path, interval increments are independent
    Poisson variables with means ``a_n * lam[j]``; all dependence between the
    two coordinates flows through the latent intensities.  Event times are
    never materialized: the estimators only read grid counts.

    Parameters
    ----------
    intensities : (lam1, lam2)
        Per-interval integrals from :func:`integrated_intensity`.
    a_n : float
        Intensity scale, > 0.
    rng : numpy.random.Generator
        Consumes exactly one ``(2, b_n)`` block of Poisson draws.

    Returns
    -------
    CountPath
    """
    lam1, lam2 = intensities
    if a_n <= 0:
        raise ValueError("a_n must be positive")
    means = np.vstack([lam1, lam2]) * a_n  # (2, b_n)
    if not np.all(np.isfinite(means)) or np.any(means < 0):
        raise ValueError("Poisson means must be finite and nonnegative")
    if np.any(means > _POISSON_MEAN_MAX):
        raise ValueError("Poisson mean exceeds the supported 64-bit range")

    inc = rng.poisson(means)  # (2, b_n) int64
    y1 = np.concatenate([[0], np.cumsum(inc[0])]).astype(np.int64)
    y2 = np.concatenate([[0], np.cumsum(inc[1])]).astype(np.int64)
    return CountPath(y1=y1, y2=y2)


def validate_regime(b_n: int, a_n: float) -> RegimeReport:
    """Classify the (b_n, a_n) pair against the rate-condition trends.

    Computes the effective exponent ``r = log(a_n)/log(b_n)`` and flags
    whether the pair is on a trajectory satisfying the two rate conditions
    (``r > 2.5`` resp. ``r > 3``).  This is a finite-n heuristic: the
    conditions are statements about limits, so boundary values count as not
    satisfied.
    """
    if b_n < 4:
        raise ValueError("b_n must be at least 4")
    if a_n <= 0:
        raise ValueError("a_n must be positive")
    r = math.log(a_n) / math.log(b_n)
    # Guard band keeps exact boundary cases (a_n = b_n^2.5) classified as
    # "not satisfied" despite rounding in the log ratio.
    eps = 1e-12
    return RegimeReport(
        b_n=b_n,
        a_n=a_n,
        r=r,
        satisfies_b_i=r > 2.5 + eps,
        satisfies_bss_i=r > 3.0 + eps,
        notes="boundary exponents classified as not satisfied",
    )

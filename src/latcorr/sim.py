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
import numbers
from collections.abc import Sequence
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

# Bound on each count path's total Poisson mean: its draws sum to the path's
# last int64 count, which a total below 9e18 keeps 2e17 from overflowing, and
# numpy's Generator.poisson rejects any one mean above ~9.22e18.
_POISSON_MEAN_MAX = 9.0e18


def _integer_at_least(value, least: int, name: str) -> int:
    """``value`` as an int if it is an integer (not a bool) of at least ``least``, else a
    ValueError that starts with ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _positive_finite(value, name: str):
    """``value`` if it is positive and finite, else a ValueError that starts with ``name``."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def _open_unit(value, name: str):
    """``value`` if it lies in (0, 1), else a ValueError that starts with ``name``."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {value!r}")
    return value


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
        # every message starts with the field's name, so a config reader can name its key
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("sigma1", "sigma2"):
            sigma = getattr(self, name)
            if sigma < 0:
                raise ValueError(f"{name} must be nonnegative, got {sigma!r}")
            if sigma * sigma == math.inf:  # the drift's sigma**2 / 2 would overflow
                raise ValueError(f"{name} = {sigma!r} is too large: its square overflows a float")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        for name in ("x1_0", "x2_0", "T"):
            _positive_finite(getattr(self, name), name)


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
        _integer_at_least(self.b_n, 4, "b_n")
        _positive_finite(self.a_n, "a_n")
        _integer_at_least(self.m, 1, "refinement m")
        _positive_finite(self.T, "T")

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
    positive) intensity levels at those nodes, with a leading replication
    axis when several paths are simulated together.
    """

    times: np.ndarray  # (b_n*m + 1,)
    x1: np.ndarray     # (..., b_n*m + 1)
    x2: np.ndarray     # (..., b_n*m + 1)

    def __post_init__(self):
        if not (len(self.times) == self.x1.shape[-1] == self.x2.shape[-1]):
            raise ValueError("times, x1, x2 must have equal length")

    @property
    def n_nodes(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class CountPath:
    """Cumulative counts at the ``b_n + 1`` observation times (y[..., 0] = 0),
    with a leading replication axis when several paths are drawn together."""

    y1: np.ndarray  # (..., b_n + 1) int64
    y2: np.ndarray  # (..., b_n + 1) int64

    def __post_init__(self):
        if self.y1.shape != self.y2.shape:
            raise ValueError("y1 and y2 must have equal length")
        if self.y1.shape[-1] < 2:
            raise ValueError("a count path needs at least two observation times")
        if (self.y1[..., 0] != 0).any() or (self.y2[..., 0] != 0).any():
            raise ValueError("cumulative counts must start at 0")
        if (self.y1[..., 1:] < self.y1[..., :-1]).any() or (
                self.y2[..., 1:] < self.y2[..., :-1]).any():
            raise ValueError("cumulative counts must be nondecreasing")

    @property
    def b_n(self) -> int:
        return self.y1.shape[-1] - 1


@dataclass(frozen=True)
class RegimeReport:
    """Heuristic check of the rate conditions linking b_n and a_n."""

    b_n: int
    a_n: float
    r: float
    satisfies_b_i: bool        # b_n^(5/2)/a_n -> 0 trend, i.e. r > 2.5
    satisfies_bss_i: bool      # b_n^3/a_n -> 0 trend, i.e. r > 3
    notes: str = field(default="", compare=False)


def _r_key(r: float) -> int:
    """The part of a substream's spawn key that ``r`` gives: ``round(1000*r) mod 2^32``, so two
    ``r`` that round to the same 1/1000 share their draws."""
    return int(round(1000.0 * r)) & 0xFFFFFFFF


def replication_rng(root_seed: int, b_n: int, r: float, index: int) -> np.random.Generator:
    """Independent substream for one replication of one experiment cell.

    The spawn key is ``(b_n, _r_key(r), index)``, so a cell's streams are
    reproducible across runs and independent across cells and replications
    (a config rejects two ``r`` of one key).  Within a replication the stream
    is consumed in a fixed order: first the latent-path normals (one
    ``(2, b_n*m)`` block), then the count Poisson draws (one ``(2, b_n)`` block).
    """
    key = (int(b_n), _r_key(r), int(index))
    # what default_rng builds from a SeedSequence, without its dispatch on the seed's type
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(root_seed, spawn_key=key)))


def simulate_latent(
    params: ModelParams, design: SamplingDesign,
    rng: np.random.Generator | Sequence[np.random.Generator],
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
    rng : numpy.random.Generator, or a sequence (list, tuple or 1-d array) of R of them
        Each consumes exactly one ``(2, b_n*m)`` block of standard normals.
        A sequence simulates R paths at once: the path arrays then have a
        leading axis of length R, and path k equals the one simulated from
        ``rng[k]`` alone.

    Returns
    -------
    LatentPath
    """
    if design.T != params.T:
        raise ValueError("params.T and design.T disagree")
    n = design.n_fine
    dt = params.T / n
    sqdt = math.sqrt(dt)

    z = np.empty(np.shape(rng) + (2, n))
    for g, out in zip(np.ravel(rng), z.reshape(-1, 2, n), strict=True):
        g.standard_normal(out=out)
    z[..., 1, :] *= math.sqrt(1.0 - params.rho**2)
    z[..., 1, :] += params.rho * z[..., 0, :]

    # per-coordinate constants, as (2, 1) columns against the (..., 2, n) rows
    drift, scale, log_x0, x0 = np.array([
        [(params.mu1 - 0.5 * params.sigma1**2) * dt, (params.mu2 - 0.5 * params.sigma2**2) * dt],
        [params.sigma1 * sqdt, params.sigma2 * sqdt],
        [math.log(params.x1_0), math.log(params.x2_0)],
        [params.x1_0, params.x2_0],
    ])[..., None]
    z *= scale
    z += drift  # the log increments
    np.cumsum(z, axis=-1, out=z)
    z += log_x0
    x = np.empty(z.shape[:-1] + (n + 1,))
    x[..., :1] = x0
    np.exp(z, out=x[..., 1:])

    times = np.arange(n + 1) * dt
    return LatentPath(times=times, x1=x[..., 0, :], x2=x[..., 1, :])


def integrated_intensity(path: LatentPath, design: SamplingDesign) -> tuple[np.ndarray, np.ndarray]:
    """Per-observation-interval integrals of the latent intensities.

    Trapezoidal rule over the ``m`` fine subintervals of each observation
    interval:  ``lam[..., j-1] ~= int_{t_{j-1}}^{t_j} X_s ds`` for j = 1..b_n.

    Returns
    -------
    (lam1, lam2) : pair of (..., b_n) arrays, strictly positive, with the
        path's leading axes.
    """
    if path.n_nodes != design.n_fine + 1:
        raise ValueError(
            f"path has {path.n_nodes} nodes, expected {design.n_fine + 1} for this design"
        )
    dt = design.T / design.n_fine

    def per_interval(x: np.ndarray) -> np.ndarray:
        cell = 0.5 * dt * (x[..., :-1] + x[..., 1:])      # (..., b_n*m)
        return cell.reshape(x.shape[:-1] + (design.b_n, design.m)).sum(axis=-1)

    return per_interval(path.x1), per_interval(path.x2)


def simulate_counts(
    intensities: tuple[np.ndarray, np.ndarray], a_n: float | Sequence[float],
    rng: np.random.Generator | Sequence[np.random.Generator],
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
    a_n : float, or a sequence (list, tuple or 1-d array) with one per leading row
        Intensity scale, > 0: one value for every row of ``intensities``,
        or each leading row its own.
    rng : numpy.random.Generator, or a sequence (list, tuple or 1-d array) of R of them
        Each consumes exactly one ``(2, b_n)`` block of Poisson draws.  A
        sequence draws R count paths, one per leading row of
        ``intensities``, each from its own generator.

    Returns
    -------
    CountPath
    """
    lam1, lam2 = intensities
    a_n = np.asarray(a_n)[..., None, None]  # against the (..., 2, b_n) means
    if a_n.shape[:-2] not in ((), lam1.shape[:-1]) or (a_n <= 0).any():
        raise ValueError(f"a_n must be one positive value or one per row of {lam1.shape[:-1]}")
    means = np.stack([lam1, lam2], axis=-2) * a_n
    lo, hi = means.min(), means.max()  # NaN if any mean is NaN
    if not (lo >= 0.0 and hi < math.inf):
        raise ValueError("Poisson means must be finite and nonnegative")
    if means.sum(axis=-1).max() > _POISSON_MEAN_MAX:  # covers each mean, as none is negative
        raise ValueError("Poisson means of a count path sum past the supported 64-bit range")

    y = np.zeros(means.shape[:-1] + (means.shape[-1] + 1,), dtype=np.int64)
    for g, mean, out in zip(np.ravel(rng), means.reshape(-1, *means.shape[-2:]),
                            y.reshape(-1, *y.shape[-2:]), strict=True):  # one generator a row
        np.cumsum(g.poisson(mean), axis=-1, out=out[..., 1:])  # int64 increments
    return CountPath(y1=y[..., 0, :], y2=y[..., 1, :])


def validate_regime(b_n: int, a_n: float) -> RegimeReport:
    """Classify the (b_n, a_n) pair against the rate-condition trends.

    Computes the effective exponent ``r = log(a_n)/log(b_n)`` and flags
    whether the pair is on a trajectory satisfying the two rate conditions
    (``r > 2.5`` resp. ``r > 3``).  This is a finite-n heuristic: the
    conditions are statements about limits, so boundary values count as not
    satisfied.
    """
    _integer_at_least(b_n, 4, "b_n")
    _positive_finite(a_n, "a_n")
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

"""Path-wise ground truth for the estimation targets.

Given a latent path, the targets are integrals of the diffusion-coefficient
rows ``x1row = (sigma1*X1, 0)`` and ``x2row = (rho*sigma2*X2,
sqrt(1-rho^2)*sigma2*X2)``:

    U^{ab}   = (2/3) * int_0^T x_a_row . x_b_row dt
    R        = U^{12} / sqrt(U^{11} U^{22})
    gamma^pq = int_0^T sym(x_a1, x_b1) . sym(x_a2, x_b2) dt
    xi       = v(U)' Gamma v(U)

where ``sym(x, y) = (x_i y_j + x_j y_i)/2`` is the symmetrized outer product
and the matrix dot is entrywise.  All integrals use the trapezoidal rule on
the path's own fine grid, so truth and simulation share their discretization.
These quantities are random (path-dependent); Monte Carlo errors are always
measured against the same replication's own truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import (
    PAIRS, CovEstimate, DegenerateDataError, GammaMatrix, correlation_weights, pairmap, xi_forms,
)
from .sim import LatentPath, ModelParams

__all__ = [
    "TruthRecord",
    "diffusion_rows",
    "true_U",
    "true_gamma",
    "true_gamma_halfsum",
    "true_xi",
    "truth_record",
]


@dataclass(frozen=True)
class TruthRecord:
    """All path-wise targets for one latent path, or arrays of them over a replication axis."""

    U: CovEstimate
    R: float
    gamma: GammaMatrix
    xi: float


def diffusion_rows(path: LatentPath, params: ModelParams) -> np.ndarray:
    """Diffusion-coefficient rows at every fine-grid node, shape (n, 2, 2).

    ``rows[t, 0] = (sigma1*X1, 0)`` and
    ``rows[t, 1] = (rho*sigma2*X2, sqrt(1-rho^2)*sigma2*X2)``.
    """
    n = path.n_nodes
    rows = np.zeros((n, 2, 2))
    rows[:, 0, 0] = params.sigma1 * path.x1
    rows[:, 1, 0] = params.rho * params.sigma2 * path.x2
    rows[:, 1, 1] = np.sqrt(1.0 - params.rho**2) * params.sigma2 * path.x2
    return rows


def _grid_step(path: LatentPath) -> float:
    return float(path.times[1] - path.times[0])


def true_U(path: LatentPath, params: ModelParams) -> tuple[CovEstimate, float]:
    """Target (co)variances U = (U12, U11, U22) and correlation R.

    Raises
    ------
    DegenerateDataError
        If either volatility is zero, making R undefined.
    """
    rows = diffusion_rows(path, params)
    dt = _grid_step(path)
    u12, u11, u22 = (float((2.0 / 3.0) * np.trapezoid(
        np.einsum("ni,ni->n", rows[:, a - 1], rows[:, b - 1]), dx=dt)) for a, b in PAIRS)
    if u11 * u22 <= 0.0:
        raise DegenerateDataError("U11*U22 = 0: true correlation undefined")
    return CovEstimate(s12=u12, s11=u11, s22=u22), u12 / math.sqrt(u11 * u22)


def true_gamma(path: LatentPath, params: ModelParams) -> GammaMatrix:
    """Target Gamma matrix via the symmetrized-tensor form.

    Entry (p, q) integrates the entrywise product of the symmetrized outer
    products of the rows selected by p and q.
    """
    rows = diffusion_rows(path, params)
    dt = _grid_step(path)
    sym = {}
    for a, b in PAIRS:
        outer = np.einsum("ni,nj->nij", rows[:, a - 1], rows[:, b - 1])
        sym[(a, b)] = 0.5 * (outer + outer.transpose(0, 2, 1))

    g = np.empty((3, 3))
    for i in range(3):
        for j in range(i, 3):
            integrand = np.einsum("nij,nij->n", sym[PAIRS[i]], sym[PAIRS[j]])
            g[i, j] = g[j, i] = np.trapezoid(integrand, dx=dt)
    return GammaMatrix(values=g)


def _gram_targets(path: LatentPath, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Targets in Gram form: ``U = (2/3) D w`` and ``gamma = 1/2 pairmap((D w) D')``.

    ``D`` (..., 3, n) holds the pointwise dots ``x_a . x_b`` of the diffusion
    rows in PAIRS order, ``(rho s1 s2 X1 X2, s1^2 X1^2, s2^2 X2^2)``, and
    ``w`` the trapezoid weights; ``U`` has shape (..., 3) and ``gamma``
    (..., 3, 3), with the path's leading axes.
    """
    dots = np.empty(path.x1.shape[:-1] + (3, path.n_nodes))
    cross, s1x1, s2x2 = dots[..., 0, :], dots[..., 1, :], dots[..., 2, :]
    np.multiply(params.sigma1, path.x1, out=s1x1)
    np.multiply(params.sigma2, path.x2, out=s2x2)
    np.multiply(params.rho, s1x1, out=cross)
    cross *= s2x2
    s1x1 *= s1x1
    s2x2 *= s2x2
    w = np.full(path.n_nodes, _grid_step(path))
    w[[0, -1]] *= 0.5
    u = (2.0 / 3.0) * (dots @ w)
    dots *= np.sqrt(w)  # the Gram root; a Gram product of one array is exactly symmetric
    return u, 0.5 * pairmap(dots @ dots.swapaxes(-1, -2))


def true_gamma_halfsum(path: LatentPath, params: ModelParams) -> GammaMatrix:
    """Target Gamma via the dot-product identity
    ``1/2 [ (x_a1 . x_a2)(x_b1 . x_b2) + (x_a1 . x_b2)(x_b1 . x_a2) ]``.

    Algebraically equal to :func:`true_gamma`; this is the Gram form that
    :func:`truth_record` uses.
    """
    return GammaMatrix(values=_gram_targets(path, params)[1])


def true_xi(U: CovEstimate, gamma: GammaMatrix) -> float:
    """Asymptotic variance of the correlation estimator at the true targets."""
    v = correlation_weights(U)
    return float(v @ gamma.values @ v)


def truth_record(path: LatentPath, params: ModelParams) -> TruthRecord:
    """Compute all targets in a single pass, in the Gram form of
    :func:`true_gamma_halfsum`; :func:`true_U` and :func:`true_gamma` are the
    reference forms.

    A path with a leading replication axis gives one record of arrays over
    that axis, each row with the bits of that path alone.  Raises ValueError
    if a target or the weight vector of ``xi`` is out of float range, and
    DegenerateDataError if ``U11*U22 = 0``: the first failing row raises its own.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite target raises below
        u, gamma = _gram_targets(path, params)
        sums = u.reshape(-1, 3)
        product = sums[:, 1] * sums[:, 2]  # overflows only where the xi weights do
    if not (np.isfinite(u).all() and np.isfinite(gamma).all()):
        raise ValueError("path-wise targets U or gamma overflow a float")
    xi, errors = xi_forms(sums.tolist(), gamma.reshape(-1, 3, 3))
    for dead, error in zip((product <= 0.0).tolist(), errors):
        if dead:
            raise DegenerateDataError("U11*U22 = 0: true correlation undefined")
        if error:  # the model's truth, not the data, is out of range
            raise ValueError(f"path-wise xi: {error}") from error
    fields = [*sums.T, sums[:, 0] / np.sqrt(product), xi]  # U12, U11, U22, R, xi
    u12, u11, u22, R, xi = [float(x[0]) for x in fields] if path.x1.ndim == 1 else fields
    return TruthRecord(U=CovEstimate(s12=u12, s11=u11, s22=u22), R=R,
                       gamma=GammaMatrix(values=gamma), xi=xi)

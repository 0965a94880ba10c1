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

from dataclasses import dataclass

import numpy as np

from .estimators import (
    PAIRS, CovEstimate, DegenerateDataError, GammaMatrix, correlation_weights, pairmap,
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
    """All path-wise targets for one latent path."""

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


def _cov_and_R(u12: float, u11: float, u22: float) -> tuple[CovEstimate, float]:
    if u11 * u22 <= 0.0:
        raise DegenerateDataError("U11*U22 = 0: true correlation undefined")
    U = CovEstimate(s12=float(u12), s11=float(u11), s22=float(u22))
    return U, float(u12 / np.sqrt(u11 * u22))


def true_U(path: LatentPath, params: ModelParams) -> tuple[CovEstimate, float]:
    """Target (co)variances U = (U12, U11, U22) and correlation R.

    Raises
    ------
    DegenerateDataError
        If either volatility is zero, making R undefined.
    """
    rows = diffusion_rows(path, params)
    dt = _grid_step(path)
    return _cov_and_R(*(
        (2.0 / 3.0) * np.trapezoid(np.einsum("ni,ni->n", rows[:, a - 1], rows[:, b - 1]), dx=dt)
        for a, b in PAIRS
    ))


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


def _gram_targets(path: LatentPath, params: ModelParams) -> tuple[np.ndarray, GammaMatrix]:
    """Targets in Gram form: ``U = (2/3) D w`` and ``gamma = 1/2 pairmap((D w) D')``.

    ``D`` (3, n) holds the pointwise dots ``x_a . x_b`` of the diffusion rows
    in PAIRS order, ``(rho s1 s2 X1 X2, s1^2 X1^2, s2^2 X2^2)``, and ``w`` the
    trapezoid weights.
    """
    s1x1 = params.sigma1 * path.x1
    s2x2 = params.sigma2 * path.x2
    dots = np.array([params.rho * s1x1 * s2x2, s1x1 * s1x1, s2x2 * s2x2])
    w = np.full(path.n_nodes, _grid_step(path))
    w[[0, -1]] *= 0.5
    root = dots * np.sqrt(w)  # a Gram product of one array is exactly symmetric
    return (2.0 / 3.0) * (dots @ w), GammaMatrix(values=0.5 * pairmap(root @ root.T))


def true_gamma_halfsum(path: LatentPath, params: ModelParams) -> GammaMatrix:
    """Target Gamma via the dot-product identity
    ``1/2 [ (x_a1 . x_a2)(x_b1 . x_b2) + (x_a1 . x_b2)(x_b1 . x_a2) ]``.

    Algebraically equal to :func:`true_gamma`; this is the Gram form that
    :func:`truth_record` uses.
    """
    return _gram_targets(path, params)[1]


def true_xi(U: CovEstimate, gamma: GammaMatrix) -> float:
    """Asymptotic variance of the correlation estimator at the true targets."""
    v = correlation_weights(U)
    return float(v @ gamma.values @ v)


def truth_record(path: LatentPath, params: ModelParams) -> TruthRecord:
    """Compute all targets for one path in a single pass, in the Gram form
    of :func:`true_gamma_halfsum`; :func:`true_U` and :func:`true_gamma` are
    the reference forms."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite target raises below
        u, gamma = _gram_targets(path, params)
    if not (np.isfinite(u).all() and np.isfinite(gamma.values).all()):
        raise ValueError("path-wise targets U or gamma overflow a float")
    U, R = _cov_and_R(*u)
    return TruthRecord(U=U, R=R, gamma=gamma, xi=true_xi(U, gamma))

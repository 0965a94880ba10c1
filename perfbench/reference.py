"""Everything the benchmark knows without asking latcorr.

* the model and the N = 1000 reference MSE values of the paper's study
  (the same numbers as ``REFERENCE_MSE`` in ``scripts/run_reference_study.py``);
* a count-series generator of its own (exact log-normal GBM steps, trapezoid
  intensity, Poisson counts) that writes the CSV inputs of ``count_files``;
* the estimators recomputed from their defining formulas, so the printed
  ``C``, ``xi`` and CI of ``latcorr estimate`` can be checked;
* ``HostProbe``, a fixed task built from the above that the workload process
  times next to every sample, to measure how fast the host runs right then.

Nothing here imports latcorr.
"""

from __future__ import annotations

import csv
import gc
import io
import math
import time
from statistics import NormalDist

import numpy as np

#: Parameters of the simulation study (mu1, mu2, sigma1, sigma2, rho, x1_0, x2_0, T).
STUDY_MODEL = {"mu1": 0.2, "mu2": 0.3, "sigma1": 0.2, "sigma2": 0.3, "rho": 0.7,
               "x1_0": 1.0, "x2_0": 2.0, "T": 1.0}

VARIANTS = ("1", "2", "w", "m", "n")

#: Kernel bandwidth exponents: h = T * b_n**(-e).
KERNEL_EXPONENTS = {"w": 0.25, "m": 0.5, "n": 0.75}

#: Confidence level of ``latcorr estimate``'s default intervals.
CI_LEVEL = 0.95

#: Fine latent steps per grid interval in the generated count series.
COUNT_REFINEMENT = 4

#: Replications behind each reference value.
REFERENCE_N = 1000

#: Reference MSE, N = 1000 paths, columns b_n = 2^4..2^10, a_n = b_n^r.
REFERENCE_BNS = tuple(2**k for k in range(4, 11))
REFERENCE_MSE = {
    2.0: {
        "1": [0.6514, 0.6775, 0.6931, 0.6835, 0.6892, 0.6923, 0.6908],
        "2": [0.4758, 0.5838, 0.6427, 0.6537, 0.6749, 0.6845, 0.6865],
        "w": [0.2102, 0.2279, 0.2783, 0.3554, 0.3980, 0.4213, 0.4667],
        "m": [0.6063, 0.3973, 0.7440, 0.6470, 0.7390, 0.6298, 0.7188],
        "n": [1.3349, 0.7355, 0.3196, 0.8940, 1.3771, 0.5679, 0.6630],
    },
    3.5: {
        "1": [0.3284, 0.1144, 0.0423, 0.0135, 0.0058, 0.0027, 0.0015],
        "2": [0.2468, 0.0948, 0.0391, 0.0128, 0.0057, 0.0027, 0.0015],
        "w": [0.1003, 0.0288, 0.0132, 0.0082, 0.0059, 0.0043, 0.0027],
        "m": [0.2784, 0.0471, 0.0313, 0.0086, 0.0041, 0.0017, 0.0009],
        "n": [0.6123, 0.1014, 0.0142, 0.0125, 0.0147, 0.0025, 0.0010],
    },
}


def reference_mse(variant: str, b_n: int, r: float) -> float | None:
    """The paper's MSE for one cell, or None where the study has no value."""
    table = REFERENCE_MSE.get(r)
    if table is None or b_n not in REFERENCE_BNS:
        return None
    return table[variant][REFERENCE_BNS.index(b_n)]


def simulate_count_series(b_n: int, a_n: float,
                          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative counts ``(y1, y2)`` at ``b_n + 1`` grid times on [0, T] of the
    study model, with latent intensity ``a_n * X`` and ``COUNT_REFINEMENT``
    fine steps per grid interval."""
    p = STUDY_MODEL
    n = b_n * COUNT_REFINEMENT
    dt = p["T"] / n
    z = rng.standard_normal((2, n))
    w1 = z[0]
    w2 = p["rho"] * z[0] + math.sqrt(1.0 - p["rho"] ** 2) * z[1]
    x = np.empty((2, n + 1))
    for row, (mu, sigma, x0, w) in enumerate(((p["mu1"], p["sigma1"], p["x1_0"], w1),
                                              (p["mu2"], p["sigma2"], p["x2_0"], w2))):
        steps = (mu - 0.5 * sigma**2) * dt + sigma * math.sqrt(dt) * w
        x[row, 0] = x0
        x[row, 1:] = x0 * np.exp(np.cumsum(steps))
    lam = (0.5 * dt * (x[:, :-1] + x[:, 1:])).reshape(2, b_n, COUNT_REFINEMENT).sum(axis=2)
    inc = rng.poisson(a_n * lam)
    y = np.zeros((2, b_n + 1), dtype=np.int64)
    y[:, 1:] = np.cumsum(inc, axis=1)
    return y[0], y[1]


def count_csv(y1: np.ndarray, y2: np.ndarray, nan_row: int | None = None) -> str:
    """CSV text ``t,y1,y2`` on the grid ``t_j = j / b_n``; ``nan_row`` writes
    that row's time as ``nan``."""
    b_n = len(y1) - 1
    lines = ["t,y1,y2"]
    for j in range(b_n + 1):
        t = "nan" if j == nan_row else repr(j / b_n)
        lines.append(f"{t},{int(y1[j])},{int(y2[j])}")
    return "\n".join(lines) + "\n"


def _window_sums(values: np.ndarray, width: int) -> np.ndarray:
    """``out[j] = sum(values[max(j - width + 1, 0) : j + 1])``."""
    c = np.concatenate([[0.0], np.cumsum(values)])
    j = np.arange(len(values))
    return c[j + 1] - c[np.maximum(j - width + 1, 0)]


def estimate(y1: np.ndarray, y2: np.ndarray, T: float,
             a_n: float) -> tuple[float, dict[str, tuple]]:
    """``C`` and, per variant, ``(xi, clamped, lo, hi, lo_clamped, hi_clamped)``
    of one count path at confidence level ``CI_LEVEL``, from the defining
    formulas.

    ``ytil[k] = (Y[k] - Y[k-1]) / (a_n delta)``, ``d[k] = ytil[k] - ytil[k-1]``,
    ``S^ab = sum d^a d^b``, ``C = S12 / sqrt(S11 S22)`` clipped to [-1, 1];
    the Gamma estimators are quadratic forms of ``D^ab = d^a d^b`` (lag-2
    corrected, lag-2 differenced, kernel windows of ``n(h)`` steps), and
    ``xi = max(v' Gamma v, 0)`` with ``v`` the gradient of ``C`` in ``S``.
    """
    b_n = len(y1) - 1
    delta = T / b_n
    d = {a: np.diff(np.diff(np.asarray(y, dtype=np.float64)) / (a_n * delta))
         for a, y in ((1, y1), (2, y2))}
    pairs = ((1, 2), (1, 1), (2, 2))
    D = {(a, b): d[a] * d[b] for a in (1, 2) for b in (1, 2)}
    s12, s11, s22 = (float(np.sum(D[p])) for p in pairs)
    C = min(1.0, max(-1.0, s12 / math.sqrt(s11 * s22)))
    v = np.array([1.0 / math.sqrt(s11 * s22),
                  -s12 / (2.0 * math.sqrt(s11**3 * s22)),
                  -s12 / (2.0 * math.sqrt(s11 * s22**3))])

    def quadratic(entry) -> np.ndarray:
        return np.array([[entry(p, q) for q in pairs] for p in pairs])

    def v1(p, q):
        Dp, Dq = D[p], D[q]
        cross = np.sum(Dp[:-2] * Dq[2:] + Dp[2:] * Dq[:-2])
        return 9.0 / 8.0 * b_n / T * (np.sum(Dp * Dq) - 0.5 * cross)

    def v2(p, q):
        return 9.0 / 8.0 * b_n / T * 0.5 * np.sum((D[p][2:] - D[p][:-2]) * (D[q][2:] - D[q][:-2]))

    gammas = {"1": quadratic(v1), "2": quadratic(v2)}
    for variant, e in KERNEL_EXPONENTS.items():
        h = T * float(b_n) ** (-e)
        n_h = max(int(math.floor(h * b_n / T * (1.0 + 1e-12))), 1)
        W = {ab: _window_sums(D[ab], n_h) / h for ab in D}

        def kernel(p, q, W=W):
            (a1, b1), (a2, b2) = p, q
            return 9.0 / 8.0 * T / b_n * np.sum(W[a1, a2] * W[b1, b2] + W[a1, b2] * W[b1, a2])

        gammas[variant] = quadratic(kernel)

    z = NormalDist().inv_cdf(0.5 * (1.0 + CI_LEVEL))
    out = {}
    for variant, G in gammas.items():
        raw = float(v @ G @ v)
        xi = max(raw, 0.0)
        half = z * math.sqrt(xi * T / b_n)
        lo, hi = C - half, C + half
        out[variant] = (xi, raw < 0.0, max(lo, -1.0), min(hi, 1.0), lo < -1.0, hi > 1.0)
    return C, out


class HostProbe:
    """A fixed task of the same kind as latcorr's work: parse a count CSV
    into Python lists, then run the estimators on that long series and on
    short simulated ones (small numpy arrays, many Python calls).  Its inputs
    never change, so its time moves only with the speed of the host."""

    LONG_B_N = 2000
    SHORT_B_N = (16, 32, 64, 128, 256)

    def __init__(self):
        self.a_n = float(self.LONG_B_N) ** 3
        y1, y2 = simulate_count_series(self.LONG_B_N, self.a_n, np.random.default_rng(0))
        self.text = count_csv(y1, y2)

    def run(self) -> None:
        rows = csv.reader(io.StringIO(self.text))
        next(rows)
        y1, y2 = [], []
        for t, c1, c2 in rows:
            float(t)
            y1.append(int(c1))
            y2.append(int(c2))
        estimate(np.array(y1), np.array(y2), 1.0, self.a_n)
        rng = np.random.default_rng(1)
        for b_n in self.SHORT_B_N:
            a_n = float(b_n) ** 3.5
            estimate(*simulate_count_series(b_n, a_n, rng), 1.0, a_n)

    def seconds(self) -> float:
        """Time of one run.  An untimed run first brings the probe's data
        back into the caches, and the garbage collector is off, so the
        time does not depend on what the process did before."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.run()
            start = time.perf_counter()
            self.run()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

"""Covariance / correlation estimators from grid counts, and their
asymptotic-variance machinery.

Everything is computed from rate-normalized increments
``ytil[k] = (Y[k] - Y[k-1]) / (a_n * delta_n)`` of the observed counts.
With ``d[k] = ytil[k] - ytil[k-1]`` (k = 2..b_n) the (co)variance estimator is

    S^{ab} = sum_k d^a[k] * d^b[k],          C = S^{12} / sqrt(S^{11} S^{22})

and the three estimators of the 3x3 matrix `Gamma` (pair order
(1,2), (1,1), (2,2)) are quadratic functionals of the per-pair product
series ``D^p[k] = d^a[k] * d^b[k]``:

* quadratic, lag-2 cross-term corrected (``gamma_v1``),
* quadratic in lag-2 differences (``gamma_v2``),
* kernel-windowed (``gamma_kernel``), window = ``n(h)`` grid steps.

Each is a Gram matrix of a 3-row series (the products themselves, their
lag-2 differences, or their window sums), computed once per estimator
with ``@``; the kernel form goes through the fixed index map ``pairmap``.
Tilde series, ``S`` and every Gamma also take leading replication axes, row for row.

The asymptotic variance of C is the quadratic form ``xi = v' G v`` with
weights ``v = (1/sqrt(S11 S22), -S12/(2 sqrt(S11^3 S22)),
-S12/(2 sqrt(S11 S22^3)))``; no matrix square root is ever taken.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from statistics import NormalDist

import numpy as np

from .sim import CountPath, _integer_at_least, _open_unit, _positive_finite

__all__ = [
    "PAIRS",
    "DegenerateDataError",
    "TildeSeries",
    "CovEstimate",
    "GammaMatrix",
    "XiValue",
    "BandwidthSpec",
    "ConfidenceInterval",
    "tilde_series",
    "increment_products",
    "estimate_S",
    "estimate_correlation",
    "gamma_v1",
    "gamma_v2",
    "kernel_partial",
    "gamma_kernel",
    "pairmap",
    "correlation_weights",
    "xi_forms",
    "estimate_xi",
    "confidence_interval",
]

# Index order of all 3-vectors and of GammaMatrix rows/columns.
PAIRS: tuple[tuple[int, int], ...] = ((1, 2), (1, 1), (2, 2))


def _pair_index(a: int, b: int) -> int:
    return PAIRS.index((min(a, b), max(a, b)))


# pairmap's flat indices into the 9 entries of a 3x3 matrix, for p = (a1, b1) and
# q = (a2, b2): _PAIRMAP_A[p, q] = 3 a1a2 + b1b2 and _PAIRMAP_B[p, q] = 3 a1b2 + b1a2
_PAIRMAP_A = np.array([[3 * _pair_index(a1, a2) + _pair_index(b1, b2) for a2, b2 in PAIRS]
                       for a1, b1 in PAIRS])
_PAIRMAP_B = np.array([[3 * _pair_index(a1, b2) + _pair_index(b1, a2) for a2, b2 in PAIRS]
                       for a1, b1 in PAIRS])

#: Elements per block pass of ``_window_sums`` (128 KiB of complex128: the
#: forward and the reversed blocks).  Rows share a pass up to this many
#: elements in all, which saves numpy calls on short rows; longer rows run one
#: per pass, because a pass over several long rows measured slower.
_WINDOW_CHUNK = 8192

# Kernel bandwidth exponents named as in the simulation study.
VARIANT_EXPONENTS = {"w": 0.25, "m": 0.5, "n": 0.75}


class DegenerateDataError(Exception):
    """Raised when S11*S22 = 0, so correlation-type quantities are undefined."""


@dataclass(frozen=True)
class TildeSeries:
    """Rate-normalized count increments ``ytil[..., k]``, k = 1..b_n, over any leading axes."""

    y1: np.ndarray  # (..., b_n)
    y2: np.ndarray  # (..., b_n)

    def __post_init__(self):
        if self.y1.shape != self.y2.shape:
            raise ValueError("y1 and y2 must have equal length")
        if self.b_n < 2:
            raise ValueError("need at least two intervals")

    @property
    def b_n(self) -> int:
        return self.y1.shape[-1]

    @cached_property
    def pair_products(self) -> np.ndarray:
        """Rows ``D^p[k] = d^a[k] d^b[k]`` in PAIRS order, shape (..., 3, b_n - 1).

        Index 0 of each row corresponds to k = 2.  Computed once and shared
        by ``S`` and every Gamma estimator of this series.
        """
        d1 = np.diff(self.y1)
        d2 = np.diff(self.y2)
        rows = np.empty(d1.shape[:-1] + (3, d1.shape[-1]))
        np.multiply(d1, d2, out=rows[..., 0, :])
        np.multiply(d1, d1, out=rows[..., 1, :])
        np.multiply(d2, d2, out=rows[..., 2, :])
        rows.flags.writeable = False
        return rows


@dataclass(frozen=True)
class CovEstimate:
    """The 3-vector (S12, S11, S22) of (co)variance estimates, or arrays of them."""

    s12: float
    s11: float
    s22: float


@dataclass(frozen=True)
class GammaMatrix:
    """Symmetric 3x3 matrix indexed by PAIRS = ((1,2), (1,1), (2,2)), over any leading axes."""

    values: np.ndarray  # (..., 3, 3)

    def __post_init__(self):
        if self.values.shape[-2:] != (3, 3):
            raise ValueError("GammaMatrix requires a 3x3 array")

    def entry(self, p: tuple[int, int], q: tuple[int, int]) -> float:
        return float(self.values[PAIRS.index(p), PAIRS.index(q)])


@dataclass(frozen=True)
class XiValue:
    """Nonnegative asymptotic-variance estimate; ``clamped`` records whether
    the raw quadratic form was negative and got truncated at 0."""

    xi: float
    clamped: bool


@dataclass(frozen=True)
class BandwidthSpec:
    """Kernel window width: either an explicit ``h`` in time units or an
    exponent ``e`` giving ``h = T * b_n**(-e)``.

    The derived window length is ``n(h) = floor(h * b_n / T)`` grid steps,
    clamped below at 1.
    """

    h: float | None = None
    exponent: float | None = None

    def __post_init__(self):
        if (self.h is None) == (self.exponent is None):
            raise ValueError("specify exactly one of h or exponent")

    @classmethod
    def explicit(cls, h: float) -> "BandwidthSpec":
        return cls(h=h)

    @classmethod
    def from_exponent(cls, e: float) -> "BandwidthSpec":
        return cls(exponent=e)

    @classmethod
    def for_variant(cls, variant: str) -> "BandwidthSpec":
        """Bandwidth for the named kernel variants 'w', 'm', 'n'."""
        return cls(exponent=VARIANT_EXPONENTS[variant])

    def resolve(self, b_n: int, T: float) -> tuple[float, int]:
        """Return ``(h, n_h)`` for a given grid."""
        _integer_at_least(b_n, 2, "b_n")
        _positive_finite(T, "T")
        h = self.h if self.h is not None else T * float(b_n) ** (-self.exponent)
        if not 0.0 < h <= T:
            raise ValueError(f"bandwidth h={h} outside (0, T]")
        # guard band: grid times that equal h exactly must stay inside the
        # window despite rounding in h/T*b_n (h*b_n would overflow for T near the largest float)
        n_h = max(int(math.floor(h / T * b_n * (1.0 + 1e-12))), 1)
        return h, n_h


@dataclass(frozen=True)
class ConfidenceInterval:
    """Plug-in normal interval for the correlation, raw and clipped to [-1, 1]."""

    lo_raw: float
    hi_raw: float
    lo: float
    hi: float
    lo_clamped: bool
    hi_clamped: bool
    level: float


def _tilde_scale(a_n: float, delta_n: float) -> float:
    # finite factors, but the product can under- or overflow
    product = _positive_finite(a_n, "a_n") * _positive_finite(delta_n, "delta_n")
    scale = 1.0 / product if product > 0.0 else math.inf
    if not 0.0 < scale < math.inf:
        raise ValueError(f"a_n * delta_n = {product!r} gives no finite nonzero scale")
    return scale


def tilde_series(counts: CountPath, a_n: float | Sequence[float], delta_n: float) -> TildeSeries:
    """Convert cumulative counts, with any leading axes, to rate-normalized increments;
    ``a_n`` is one value, or a sequence (list, tuple or 1-d array) with one per leading row."""
    scale = np.reshape([_tilde_scale(a, delta_n) for a in np.ravel(a_n).tolist()],
                       np.shape(a_n) + (1,))  # each in Python floats, as for one row alone
    if scale.shape[:-1] not in ((), counts.y1.shape[:-1]):
        raise ValueError(f"a_n must be one value or one per row of {counts.y1.shape[:-1]}")
    rows = np.empty((2,) + counts.y1.shape[:-1] + (counts.b_n,))
    for row, y in zip(rows, (counts.y1, counts.y2)):
        np.subtract(y[..., 1:], y[..., :-1], out=row)  # int64 differences cast once, as np.diff's
    rows *= scale
    return TildeSeries(y1=rows[0], y2=rows[1])


def increment_products(tilde: TildeSeries) -> dict[tuple[int, int], np.ndarray]:
    """Per-pair product series ``D^p[k] = d^a[k] d^b[k]``, k = 2..b_n.

    Each array has length ``b_n - 1``; index 0 corresponds to k = 2.  The
    arrays are the rows of ``tilde.pair_products``.
    """
    return dict(zip(PAIRS, tilde.pair_products))


def estimate_S(tilde: TildeSeries) -> CovEstimate:
    """(Co)variance estimator S = (S12, S11, S22): floats, or arrays over the leading axes."""
    sums = np.moveaxis(tilde.pair_products.sum(axis=-1), -1, 0)
    s12, s11, s22 = sums.tolist() if sums.ndim == 1 else sums
    return CovEstimate(s12=s12, s11=s11, s22=s22)


def estimate_correlation(S: CovEstimate) -> float:
    """Correlation estimate C = S12/sqrt(S11 S22), independent of a_n.

    Raises
    ------
    DegenerateDataError
        If S11*S22 = 0 (e.g. constant increments in one coordinate), or if
        C is not finite (e.g. from NaN or infinite increments).
    """
    denom2 = S.s11 * S.s22
    if denom2 <= 0.0:
        raise DegenerateDataError("S11*S22 = 0: correlation undefined")
    c = S.s12 / math.sqrt(denom2)
    if not math.isfinite(c):
        raise DegenerateDataError(f"correlation is not finite: C = {c}")
    # Cauchy-Schwarz holds up to a few ulps; keep the contract |C| <= 1.
    return min(1.0, max(-1.0, c))


def pairmap(G: np.ndarray) -> np.ndarray:
    """Map 3x3 Gram matrices of pair series, shape ``(..., 3, 3)``, to Gamma form.

    ``pairmap(G)[..., p, q] = G[..., a1a2, b1b2] + G[..., a1b2, b1a2]`` for
    p = (a1, b1), q = (a2, b2), with every index taken in PAIRS order.  Each
    result is exactly symmetric when its G is.
    """
    flat = G.reshape(G.shape[:-2] + (9,))
    return flat.take(_PAIRMAP_A, axis=-1) + flat.take(_PAIRMAP_B, axis=-1)


def gamma_v1(tilde: TildeSeries, T: float) -> GammaMatrix:
    """Quadratic Gamma estimator with lag-2 cross-term correction.

    Entry (p, q) is ``(9/8) * (b_n/T) * [ sum_k D^p_k D^q_k
    - 1/2 sum_k (D^p_k D^q_{k+2} + D^p_{k+2} D^q_k) ]`` where the first sum
    runs over k = 2..b_n and the second over k = 2..b_n-2 (empty for
    b_n < 4).
    """
    P = tilde.pair_products
    X = P[..., :-2] @ P[..., 2:].mT
    scale = 9.0 / 8.0 * tilde.b_n / _positive_finite(T, "T")
    return GammaMatrix(values=scale * (P @ P.mT - 0.5 * (X + X.mT)))


def gamma_v2(tilde: TildeSeries, T: float) -> GammaMatrix:
    """Quadratic Gamma estimator built from lag-2 differences of products.

    Entry (p, q) is ``(9/8) * (b_n/T) * 1/2 * sum_{k=2}^{b_n-2}
    (D^p_{k+2} - D^p_k)(D^q_{k+2} - D^q_k)``; the whole matrix is positive
    semidefinite by construction, and zero when b_n < 4.
    """
    P = tilde.pair_products
    delta = P[..., 2:] - P[..., :-2]
    scale = 9.0 / 8.0 * tilde.b_n / _positive_finite(T, "T")
    return GammaMatrix(values=scale * 0.5 * (delta @ delta.mT))


def kernel_partial(
    products: np.ndarray, k: int, bandwidth: BandwidthSpec, b_n: int, T: float
) -> float:
    """Windowed sum ``sum_{l=max(k-n(h)+1, 2)}^{k} D[l] / h`` at one index k.

    ``products`` is one per-pair series from :func:`increment_products`
    (index 0 <-> l = 2).  This direct form is the reference; the estimator
    takes every window from one block prefix/suffix pass (``_window_sums``).
    """
    if len(products) != b_n - 1:
        raise ValueError("products length must be b_n - 1")
    if not 2 <= k <= b_n:
        raise ValueError(f"k={k} outside 2..b_n")
    h, n_h = bandwidth.resolve(b_n, T)
    lo = max(k - n_h + 1, 2)
    return float(np.sum(products[lo - 2 : k - 1]) / h)


def _window_sums(values: np.ndarray, width: int) -> np.ndarray:
    """Trailing-window sums along the last axis of a ``(..., n)`` array:
    ``out[..., j] = sum(values[..., max(j-width+1, 0) : j+1])``.

    Runs in O(values.size) independent of the window width: each row is cut
    into width-sized blocks carrying prefix and suffix cumulative sums, and
    every window is the sum of one suffix and one prefix.  Each output is
    therefore an in-order sum of its own terms (no large-prefix
    cancellation), matching naive per-window summation to rounding error.
    The window ending at offset ``o`` of block ``b`` is the prefix sum of
    block ``b`` up to ``o``, plus the suffix sum of block ``b-1`` from
    ``o+1`` if ``b >= 1`` and ``o < width-1``.  One complex accumulate gives
    both, bit for bit: the blocks run forward in its real part and reversed
    in its imaginary part.  The rows over all leading axes go through the
    blocks in chunks of at most ``_WINDOW_CHUNK`` elements, one pass per
    chunk, and at least one row per chunk; no row's sums depend on its chunk.

    The windows are formed in one real array for all rows; the result is a
    view of it, C-contiguous only when ``width`` divides ``n``.
    """
    n = values.shape[-1]
    nblocks = -(-n // width)
    rows = values.reshape(-1, n)
    out = np.empty((len(rows), nblocks, width))
    step = max(_WINDOW_CHUNK // (nblocks * width), 1)
    buf = np.empty((min(step, len(rows)), nblocks, width), complex)
    for start in range(0, len(rows), step):
        both, dest = buf[: len(rows) - start], out[start : start + step]  # the last may be short
        flat = both.real.reshape(len(dest), -1)
        flat[:, :n], flat[:, n:] = rows[start : start + step], 0.0  # the pad held the last sums
        both.imag = both.real[..., ::-1]
        np.add.accumulate(both, axis=-1, out=both)  # prefixes in .real, reversed suffixes in .imag
        dest[...] = both.real
        np.add(dest[:, 1:, :-1], both.imag[:, :-1, -2::-1], out=dest[:, 1:, :-1])  # now the windows
    return out.reshape(len(rows), -1)[:, :n].reshape(values.shape)


def gamma_kernel(tilde: TildeSeries, T: float, bandwidth: BandwidthSpec) -> GammaMatrix:
    """Kernel-windowed Gamma estimator.

    With ``W^{ab}[k]`` the windowed sums of ``D^{ab}`` divided by h, entry
    (p, q) for p = (a1, b1), q = (a2, b2) is

        (9/8) * (T/b_n) * sum_{k=2}^{b_n}
            ( W^{a1 a2}[k] W^{b1 b2}[k] + W^{a1 b2}[k] W^{b1 a2}[k] ).

    The window sums come from the block prefix/suffix pass of ``_window_sums``,
    in O(b_n) rather than O(b_n * n(h)), and are divided by h in place.
    """
    b_n = tilde.b_n
    h, n_h = bandwidth.resolve(b_n, T)
    W = _window_sums(tilde.pair_products, n_h)
    W /= h
    return GammaMatrix(values=9.0 / 8.0 * T / b_n * pairmap(W @ W.mT))


def _weights(s12: float, s11: float, s22: float) -> list[float]:
    """:func:`correlation_weights` in Python floats (numpy's ``**`` differs in the last bit)."""
    if s11 <= 0.0 or s22 <= 0.0:
        raise DegenerateDataError("S11*S22 = 0: weight vector undefined")
    if not (math.isfinite(s12) and math.isfinite(s11) and math.isfinite(s22)):
        raise DegenerateDataError(f"weight vector undefined: S = {(s12, s11, s22)} is not finite")
    try:
        rad = (s11 * s22, s11**3 * s22, s11 * s22**3)
    except OverflowError as exc:  # float ** raises, where float * gives inf or a subnormal
        raise DegenerateDataError(f"weight vector out of float range: {exc}") from exc
    if not all(sys.float_info.min <= x < math.inf for x in rad):
        raise DegenerateDataError(f"weight vector out of float range: radicands {rad}")
    return [1.0 / math.sqrt(rad[0])] + [-s12 / (2.0 * math.sqrt(x)) for x in rad[1:]]


def correlation_weights(S: CovEstimate) -> np.ndarray:
    """Gradient weights of C in S, ordered like PAIRS.

    ``v = (1/sqrt(S11 S22), -S12/(2 sqrt(S11^3 S22)), -S12/(2 sqrt(S11 S22^3)))``
    """
    return np.array(_weights(S.s12, S.s11, S.s22))


def xi_forms(sums: list, G: np.ndarray) -> tuple[np.ndarray, list]:
    """``v' G v`` of R rows, ``v`` the weights of each (S12, S11, S22) of ``sums``
    and ``G`` (..., R, 3, 3): the forms (..., R), with the bits of :func:`estimate_xi`'s
    ``v @ G @ v``, and per row None or the DegenerateDataError of its weights."""
    v, errors = np.zeros((len(sums), 3)), [None] * len(sums)
    for i, s in enumerate(sums):
        try:
            v[i] = _weights(*s)
        except DegenerateDataError as exc:
            errors[i] = exc
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite form is the caller's to flag
        return ((v[:, None] @ G) @ v[:, :, None])[..., 0, 0], errors


def estimate_xi(S: CovEstimate, G: GammaMatrix) -> XiValue:
    """Asymptotic variance of the correlation estimator: ``xi = v' G v``.

    The finite-sample G need not be positive semidefinite; a negative
    quadratic form is clamped to 0 and flagged.  A non-finite one (from
    overflowing terms) raises DegenerateDataError.
    """
    v = correlation_weights(S)
    raw = float(v @ G.values @ v)
    if not math.isfinite(raw):
        raise DegenerateDataError(f"asymptotic variance is not finite: v'Gv = {raw}")
    return XiValue(xi=max(raw, 0.0), clamped=raw < 0.0)


@lru_cache(maxsize=8)
def _normal_quantile(level: float) -> float:
    """Two-sided standard normal quantile ``z`` with ``P(|Z| <= z) = level``."""
    return NormalDist().inv_cdf(0.5 * (1.0 + level))


def confidence_interval(
    C: float, xi: XiValue | float, b_n: int, T: float, level: float = 0.95
) -> ConfidenceInterval:
    """Normal plug-in confidence interval ``C +- z * sqrt(xi * T / b_n)``.

    Returns both the raw interval and its intersection with [-1, 1], with
    flags recording whether either endpoint was clipped.
    """
    _open_unit(level, "level")
    _integer_at_least(b_n, 2, "b_n")
    if not math.isfinite(C):
        raise ValueError(f"C must be finite, got {C!r}")
    xi_val = xi.xi if isinstance(xi, XiValue) else float(xi)
    if not 0.0 <= xi_val < math.inf:
        raise ValueError(f"xi must be nonnegative and finite, got {xi_val!r}")
    _positive_finite(T, "T")
    return _interval(C, _normal_quantile(level) * math.sqrt(xi_val * T / b_n), level)


def _interval(C: float, half: float, level: float) -> ConfidenceInterval:
    """The interval ``C -+ half`` of :func:`confidence_interval`, raw and clipped to [-1, 1]."""
    lo_raw, hi_raw = C - half, C + half
    return ConfidenceInterval(lo_raw=lo_raw, hi_raw=hi_raw, lo=max(lo_raw, -1.0),
                              hi=min(hi_raw, 1.0), lo_clamped=lo_raw < -1.0,
                              hi_clamped=hi_raw > 1.0, level=level)

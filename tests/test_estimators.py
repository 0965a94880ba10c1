import math
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from latcorr import estimators as est
from latcorr import harness, sim
from reference import (
    brute_gamma_kernel,
    brute_gamma_v1,
    brute_gamma_v2,
    brute_S,
    matrix_close,
    prod as _prod,
)

PAIRS = est.PAIRS


def random_tilde(rng, bn, counts_like=True):
    if counts_like:
        lam = rng.uniform(1.0, 50.0)
        y1 = rng.poisson(lam, bn).astype(float) / lam
        y2 = rng.poisson(lam, bn).astype(float) / lam
    else:
        y1 = rng.standard_normal(bn)
        y2 = rng.standard_normal(bn)
    return est.TildeSeries(y1=y1, y2=y2)


# ---------------------------------------------------------------------------
# tilde_series
# ---------------------------------------------------------------------------

class TestTildeSeries:
    def test_direct_arithmetic(self):
        counts = sim.CountPath(y1=np.array([0, 0, 1]), y2=np.array([0, 1, 2]))
        tilde = est.tilde_series(counts, a_n=1.0, delta_n=0.5)
        np.testing.assert_array_equal(tilde.y1, [0.0, 2.0])
        np.testing.assert_array_equal(tilde.y2, [2.0, 2.0])

    def test_linear_counts_constant_series(self):
        c = 3
        counts = sim.CountPath(y1=np.arange(0, 7 * c, c), y2=np.zeros(7, dtype=int))
        tilde = est.tilde_series(counts, a_n=2.0, delta_n=0.25)
        np.testing.assert_allclose(tilde.y1, c / (2.0 * 0.25))

    def test_scale_homogeneity(self):
        counts = sim.CountPath(y1=np.array([0, 3, 7, 8]), y2=np.array([0, 1, 1, 5]))
        t1 = est.tilde_series(counts, a_n=1.0, delta_n=0.5)
        t2 = est.tilde_series(counts, a_n=2.0, delta_n=0.5)
        np.testing.assert_allclose(t2.y1, t1.y1 / 2.0)
        np.testing.assert_allclose(t2.y2, t1.y2 / 2.0)

    def test_rejects_zero_scales(self):
        counts = sim.CountPath(y1=np.array([0, 1]), y2=np.array([0, 1]))
        with pytest.raises(ValueError):
            est.tilde_series(counts, a_n=0.0, delta_n=0.5)
        with pytest.raises(ValueError):
            est.tilde_series(counts, a_n=1.0, delta_n=0.0)


# ---------------------------------------------------------------------------
# S and C
# ---------------------------------------------------------------------------

class TestEstimateS:
    def test_single_term(self):
        tilde = est.TildeSeries(y1=np.array([0.0, 2.0]), y2=np.array([0.0, 2.0]))
        S = est.estimate_S(tilde)
        assert (S.s12, S.s11, S.s22) == (4.0, 4.0, 4.0)

    def test_constant_series_zero(self):
        tilde = est.TildeSeries(y1=np.full(6, 1.7), y2=np.full(6, -0.3))
        S = est.estimate_S(tilde)
        assert (S.s12, S.s11, S.s22) == (0.0, 0.0, 0.0)

    def test_matches_brute_force_length9(self, rng):
        tilde = random_tilde(rng, 9, counts_like=False)
        S = est.estimate_S(tilde)
        ref = brute_S(list(tilde.y1), list(tilde.y2))
        assert S.s12 == pytest.approx(ref[(1, 2)], rel=1e-12)
        assert S.s11 == pytest.approx(ref[(1, 1)], rel=1e-12)
        assert S.s22 == pytest.approx(ref[(2, 2)], rel=1e-12)


class TestCorrelation:
    def test_perfect_alignment(self):
        assert est.estimate_correlation(est.CovEstimate(s12=4, s11=4, s22=4)) == 1.0

    def test_orthogonal(self):
        assert est.estimate_correlation(est.CovEstimate(s12=0, s11=1, s22=1)) == 0.0

    def test_anti_aligned_series(self, rng):
        y1 = rng.standard_normal(8)
        tilde = est.TildeSeries(y1=y1, y2=-y1)
        C = est.estimate_correlation(est.estimate_S(tilde))
        assert C == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(est.DegenerateDataError):
            est.estimate_correlation(est.CovEstimate(s12=0, s11=0, s22=1))


# ---------------------------------------------------------------------------
# Gamma estimators
# ---------------------------------------------------------------------------

class TestGammaV1:
    def test_single_term_hand_value(self):
        tilde = est.TildeSeries(y1=np.array([0.0, 2.0]), y2=np.array([0.0, 2.0]))
        g = est.gamma_v1(tilde, T=1.0)
        np.testing.assert_allclose(g.values, 36.0)

    def test_constant_series_zero(self):
        tilde = est.TildeSeries(y1=np.full(8, 2.0), y2=np.full(8, 1.0))
        assert np.all(est.gamma_v1(tilde, T=1.0).values == 0.0)

    def test_matches_brute_force_length12(self, rng):
        tilde = random_tilde(rng, 12)
        g = est.gamma_v1(tilde, T=1.0)
        ref = brute_gamma_v1(list(tilde.y1), list(tilde.y2), 1.0)
        assert matrix_close(g.values, ref)


class TestGammaV2:
    def test_short_series_zero(self):
        tilde = est.TildeSeries(y1=np.array([0.0, 1.0, 3.0]), y2=np.array([0.0, 2.0, 1.0]))
        assert np.all(est.gamma_v2(tilde, T=1.0).values == 0.0)

    def test_constant_series_zero(self):
        tilde = est.TildeSeries(y1=np.full(8, 2.0), y2=np.full(8, 1.0))
        assert np.all(est.gamma_v2(tilde, T=1.0).values == 0.0)

    def test_matches_brute_force_and_expansion(self, rng):
        tilde = random_tilde(rng, 12)
        g = est.gamma_v2(tilde, T=1.0)
        ref = brute_gamma_v2(list(tilde.y1), list(tilde.y2), 1.0)
        assert matrix_close(g.values, ref)
        # expanded form: sum of the four lag-product terms
        bn = tilde.b_n
        y1, y2 = list(tilde.y1), list(tilde.y2)
        expanded = np.empty((3, 3))
        for i, p in enumerate(PAIRS):
            for j, q in enumerate(PAIRS):
                total = sum(
                    _prod(y1, y2, p, k + 2) * _prod(y1, y2, q, k + 2)
                    - _prod(y1, y2, p, k + 2) * _prod(y1, y2, q, k)
                    - _prod(y1, y2, p, k) * _prod(y1, y2, q, k + 2)
                    + _prod(y1, y2, p, k) * _prod(y1, y2, q, k)
                    for k in range(2, bn - 1)
                )
                expanded[i, j] = 9.0 / 8.0 * 0.5 * total * bn / 1.0
        assert matrix_close(g.values, expanded)

    def test_always_positive_semidefinite(self, rng):
        for _ in range(20):
            tilde = random_tilde(rng, int(rng.integers(4, 24)), counts_like=False)
            g = est.gamma_v2(tilde, T=1.0)
            eig = np.linalg.eigvalsh(g.values)
            assert eig.min() >= -1e-10 * max(1.0, abs(eig).max())


class TestKernelPartial:
    def test_window_of_one(self, rng):
        tilde = random_tilde(rng, 10)
        prods = est.increment_products(tilde)
        bw = est.BandwidthSpec.explicit(0.1)  # n_h = 1 on b_n=10, T=1
        for k in (2, 5, 10):
            got = est.kernel_partial(prods[(1, 2)], k, bw, 10, 1.0)
            assert got == pytest.approx(prods[(1, 2)][k - 2] / 0.1, rel=1e-14)

    def test_lower_clamp_at_two(self, rng):
        tilde = random_tilde(rng, 10)
        prods = est.increment_products(tilde)
        bw = est.BandwidthSpec.explicit(1.0)  # full window
        got = est.kernel_partial(prods[(1, 1)], 2, bw, 10, 1.0)
        assert got == pytest.approx(prods[(1, 1)][0] / 1.0, rel=1e-14)

    def test_full_window_equals_S_over_T_bitexact(self, rng):
        tilde = random_tilde(rng, 16)
        prods = est.increment_products(tilde)
        S = est.estimate_S(tilde)
        T = 1.0
        bw = est.BandwidthSpec.explicit(T)
        for pair, s in (((1, 2), S.s12), ((1, 1), S.s11), ((2, 2), S.s22)):
            assert est.kernel_partial(prods[pair], 16, bw, 16, T) == s / T

    def test_invalid_k_rejected(self, rng):
        tilde = random_tilde(rng, 8)
        prods = est.increment_products(tilde)
        bw = est.BandwidthSpec.explicit(0.5)
        with pytest.raises(ValueError):
            est.kernel_partial(prods[(1, 1)], 1, bw, 8, 1.0)
        with pytest.raises(ValueError):
            est.kernel_partial(prods[(1, 1)], 9, bw, 8, 1.0)


class TestBandwidthSpec:
    def test_variant_exponents(self):
        assert est.BandwidthSpec.for_variant("w").exponent == 0.25
        assert est.BandwidthSpec.for_variant("m").exponent == 0.5
        assert est.BandwidthSpec.for_variant("n").exponent == 0.75

    def test_window_lengths_on_power_grids(self):
        # n(h) = b_n^(1-e) exactly at powers of two
        assert est.BandwidthSpec.from_exponent(0.25).resolve(16, 1.0) == (pytest.approx(0.5), 8)
        assert est.BandwidthSpec.from_exponent(0.5).resolve(16, 1.0)[1] == 4
        assert est.BandwidthSpec.from_exponent(0.75).resolve(16, 1.0)[1] == 2
        assert est.BandwidthSpec.from_exponent(0.75).resolve(1024, 1.0)[1] == 5

    def test_window_clamped_below_at_one(self):
        assert est.BandwidthSpec.explicit(1e-6).resolve(16, 1.0)[1] == 1

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            est.BandwidthSpec()
        with pytest.raises(ValueError):
            est.BandwidthSpec(h=0.5, exponent=0.5)
        with pytest.raises(ValueError):
            est.BandwidthSpec.explicit(0.0).resolve(16, 1.0)
        with pytest.raises(ValueError):
            est.BandwidthSpec.explicit(1.5).resolve(16, 1.0)
        with pytest.raises(ValueError):
            est.BandwidthSpec.from_exponent(-0.5).resolve(16, 1.0)


class TestGammaKernel:
    def test_constant_series_zero(self):
        tilde = est.TildeSeries(y1=np.full(8, 2.0), y2=np.full(8, 1.0))
        g = est.gamma_kernel(tilde, 1.0, est.BandwidthSpec.from_exponent(0.5))
        assert np.all(g.values == 0.0)

    def test_matches_naive_windows_length16(self, rng):
        tilde = random_tilde(rng, 16)
        bw = est.BandwidthSpec.explicit(3.0 / 16.0)  # n_h = 3
        h, n_h = bw.resolve(16, 1.0)
        assert n_h == 3
        g = est.gamma_kernel(tilde, 1.0, bw)
        ref = brute_gamma_kernel(list(tilde.y1), list(tilde.y2), 1.0, h, n_h)
        assert matrix_close(g.values, ref)

    def test_symmetric_exactly(self, rng):
        tilde = random_tilde(rng, 20, counts_like=False)
        g = est.gamma_kernel(tilde, 1.0, est.BandwidthSpec.from_exponent(0.5)).values
        assert np.array_equal(g, g.T)


# ---------------------------------------------------------------------------
# Xi and confidence intervals
# ---------------------------------------------------------------------------

class TestEstimateXi:
    def test_pure_first_weight(self):
        S = est.CovEstimate(s12=0.0, s11=1.0, s22=1.0)
        xi = est.estimate_xi(S, est.GammaMatrix(values=np.eye(3)))
        assert xi.xi == 1.0 and not xi.clamped

    def test_symmetric_weights(self):
        S = est.CovEstimate(s12=1.0, s11=1.0, s22=1.0)
        xi = est.estimate_xi(S, est.GammaMatrix(values=np.eye(3)))
        assert xi.xi == pytest.approx(1.5, rel=1e-15)

    def test_negative_form_clamped(self):
        S = est.CovEstimate(s12=0.0, s11=1.0, s22=1.0)
        g = est.GammaMatrix(values=np.diag([-0.2, 1.0, 1.0]))
        xi = est.estimate_xi(S, g)
        assert xi.xi == 0.0 and xi.clamped

    def test_degenerate_raises(self):
        with pytest.raises(est.DegenerateDataError):
            est.estimate_xi(est.CovEstimate(s12=0, s11=0, s22=1),
                            est.GammaMatrix(values=np.eye(3)))


class TestConfidenceInterval:
    def test_matches_normal_quantile_oracle(self):
        ci = est.confidence_interval(0.7, 0.5, b_n=256, T=1.0, level=0.95)
        z = scipy.stats.norm.ppf(0.975)  # independent quantile source
        half = z * math.sqrt(0.5 / 256)
        assert ci.lo_raw == pytest.approx(0.7 - half, abs=1e-10)
        assert ci.hi_raw == pytest.approx(0.7 + half, abs=1e-10)
        # frozen reference values
        assert ci.lo_raw == pytest.approx(0.61338, abs=5e-6)
        assert ci.hi_raw == pytest.approx(0.78662, abs=5e-6)
        assert not ci.lo_clamped and not ci.hi_clamped

    def test_zero_variance_degenerate_interval(self):
        ci = est.confidence_interval(0.3, est.XiValue(xi=0.0, clamped=True), 64, 1.0)
        assert ci.lo == ci.hi == 0.3

    def test_upper_clamp(self):
        ci = est.confidence_interval(0.99, 5.0, b_n=16, T=1.0, level=0.95)
        assert ci.hi == 1.0 and ci.hi_clamped
        assert ci.hi_raw > 1.0

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            est.confidence_interval(0.5, 0.1, 16, 1.0, level=1.0)
        with pytest.raises(ValueError):
            est.confidence_interval(0.5, 0.1, 16, 1.0, level=0.0)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

tilde_strategy = st.integers(4, 32).flatmap(
    lambda bn: st.tuples(
        st.lists(st.floats(-1e3, 1e3), min_size=bn, max_size=bn),
        st.lists(st.floats(-1e3, 1e3), min_size=bn, max_size=bn),
    )
)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(tilde_strategy)
    def test_cauchy_schwarz_within_ulps(self, ys):
        tilde = est.TildeSeries(y1=np.array(ys[0]), y2=np.array(ys[1]))
        S = est.estimate_S(tilde)
        eps = np.finfo(float).eps
        assert S.s12**2 <= S.s11 * S.s22 * (1.0 + 4.0 * eps) + 1e-300

    @settings(max_examples=60, deadline=None)
    @given(tilde_strategy)
    def test_gamma_symmetry_bit_exact(self, ys):
        tilde = est.TildeSeries(y1=np.array(ys[0]), y2=np.array(ys[1]))
        for g in (
            est.gamma_v1(tilde, 1.0).values,
            est.gamma_v2(tilde, 1.0).values,
            est.gamma_kernel(tilde, 1.0, est.BandwidthSpec.from_exponent(0.5)).values,
        ):
            assert np.array_equal(g, g.T)

    @settings(max_examples=60, deadline=None)
    @given(
        bn=st.integers(4, 48),
        seed=st.integers(0, 2**31),
        scale=st.floats(1e-3, 1e3),
    )
    def test_scale_invariance_of_C_and_xi(self, bn, seed, scale):
        rng = np.random.default_rng(seed)
        inc = rng.poisson(20.0, (2, bn))
        counts = sim.CountPath(
            y1=np.concatenate([[0], np.cumsum(inc[0])]),
            y2=np.concatenate([[0], np.cumsum(inc[1])]),
        )
        delta = 1.0 / bn

        def pipeline(a_n):
            tilde = est.tilde_series(counts, a_n, delta)
            S = est.estimate_S(tilde)
            try:
                C = est.estimate_correlation(S)
            except est.DegenerateDataError:
                return None
            G = est.gamma_v1(tilde, 1.0)
            xi = est.estimate_xi(S, G)
            # scale-invariant magnitude of the quadratic form, for a
            # well-posed comparison when xi itself cancels to ~0
            v = est.correlation_weights(S)
            return C, xi.xi, float(np.abs(v) @ np.abs(G.values) @ np.abs(v))

        base = pipeline(100.0)
        scaled = pipeline(100.0 * scale)
        if base is None:
            assert scaled is None
            return
        assert abs(scaled[0] - base[0]) <= 1e-12  # |C| <= 1: relative to scale 1
        assert abs(scaled[1] - base[1]) <= 1e-12 * max(1e-300, base[2])

    @settings(max_examples=60, deadline=None)
    @given(
        bn=st.integers(4, 64),
        seed=st.integers(0, 2**31),
        width_frac=st.floats(0.01, 1.0),
    )
    def test_rolling_kernel_equals_naive(self, bn, seed, width_frac):
        rng = np.random.default_rng(seed)
        tilde = random_tilde(rng, bn, counts_like=False)
        bw = est.BandwidthSpec.explicit(width_frac)
        h, n_h = bw.resolve(bn, 1.0)
        g = est.gamma_kernel(tilde, 1.0, bw)
        ref = brute_gamma_kernel(list(tilde.y1), list(tilde.y2), 1.0, h, n_h)
        assert matrix_close(g.values, ref, rtol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(bn=st.integers(2, 24), seed=st.integers(0, 2**31))
    def test_window_sums_match_direct(self, bn, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(bn)
        for width in range(1, bn + 2):
            got = est._window_sums(values, width)
            ref = np.array([values[max(j - width + 1, 0): j + 1].sum() for j in range(bn)])
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "S",
    [
        est.CovEstimate(s12=math.nan, s11=1.0, s22=1.0),
        est.CovEstimate(s12=0.5, s11=math.nan, s22=1.0),
        est.CovEstimate(s12=math.inf, s11=math.inf, s22=1.0),
    ],
)
def test_non_finite_correlation_raises(S):
    # a NaN C must not be clamped to -1
    with pytest.raises(est.DegenerateDataError):
        est.estimate_correlation(S)


@pytest.mark.parametrize("scale", ["a_n", "delta_n"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_tilde_series_rejects_non_finite_scales(scale, value):
    # an infinite scale would otherwise give a series of silent zeros
    counts = sim.CountPath(y1=np.array([0, 1, 3]), y2=np.array([0, 2, 2]))
    kwargs = {"a_n": 1.0, "delta_n": 0.5, scale: value}
    with pytest.raises(ValueError, match=scale):
        est.tilde_series(counts, **kwargs)


@pytest.mark.parametrize(
    "n, width",
    # n % width == 0 for 1, 3, 4 and 12 at n = 12; widths n - 1, n and n + 1 at both lengths
    [(12, 1), (12, 3), (12, 4), (12, 5), (12, 11), (12, 12), (12, 13),
     (13, 1), (13, 4), (13, 12), (13, 13), (13, 14)],
)
def test_window_sums_rows_equal_one_dimensional_calls(n, width, rng):
    values = rng.standard_normal((3, n))
    got = est._window_sums(values, width)
    for row, out in zip(values, got):
        assert np.array_equal(out, est._window_sums(row, width))
        naive = [row[max(j - width + 1, 0): j + 1].sum() for j in range(n)]
        np.testing.assert_allclose(out, naive, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape, width", [((2, 3, 40), 7), ((5, 3000), 50), ((3, 4100), 1)])
def test_window_sums_leading_axes_equal_one_dimensional_calls(shape, width, rng):
    # (5, 3000) and (3, 4100) need more than one chunk of _WINDOW_CHUNK elements
    values = rng.standard_normal(shape)
    got = est._window_sums(values, width)
    assert got.shape == shape
    for row, out in zip(values.reshape(-1, shape[-1]), got.reshape(-1, shape[-1])):
        assert np.array_equal(out, est._window_sums(row, width))


def test_pairmap_of_stacked_matrices_equals_each(rng):
    G = rng.standard_normal((4, 2, 3, 3))
    G = G + G.swapaxes(-1, -2)
    got = est.pairmap(G)
    assert got.shape == G.shape
    for g, out in zip(G.reshape(-1, 3, 3), got.reshape(-1, 3, 3)):
        assert np.array_equal(out, est.pairmap(g))
        assert np.array_equal(out, out.T)


@pytest.mark.parametrize(
    "b_n, widths",
    # n = b_n - 1.  b_n = 41: the three rows share one block pass; widths 4 and 8
    # divide n = 40, 3 and 7 do not, and 40 and 41 take the cumsum branch.  b_n =
    # 9001: each row is longer than _WINDOW_CHUNK and runs alone; widths 30, 1000
    # and 4500 divide n = 9000, 7 and 5000 do not.  The order makes the block
    # arrays grow and shrink between calls.
    [(41, [7, 40, 1, 8, 41, 3, 4]),
     (9001, [7, 9000, 1, 1000, 5000, 30, 4500])],
    ids=["short-rows", "long-rows"],
)
def test_kernel_calls_on_one_series_equal_calls_on_fresh_copies(b_n, widths, rng):
    assert 3 * (b_n - 1) <= est._WINDOW_CHUNK or b_n - 1 > est._WINDOW_CHUNK
    tilde = random_tilde(rng, b_n)

    def fresh():
        return est.TildeSeries(y1=tilde.y1.copy(), y2=tilde.y2.copy())

    calls = [lambda t, w=w: est.gamma_kernel(t, 1.0, est.BandwidthSpec.explicit(w / b_n))
             for w in widths]
    calls.insert(2, lambda t: est.gamma_v2(t, 1.0))
    calls.append(lambda t: harness.gamma_for_variant(t, 1.0, "w", {"w": 5 / b_n}))
    calls.append(lambda t: harness.gamma_for_variant(t, 1.0, "n"))
    shared = [call(tilde).values for call in calls]
    for call, got in zip(calls, shared):
        assert got.tobytes() == call(fresh()).values.tobytes()


def test_concurrent_kernel_calls_on_one_series_equal_calls_on_fresh_copies(rng):
    """Three threads estimate from one shared long series at once; an
    estimator that kept buffers on the series would mix their window sums."""
    b_n, exponents, repeats = 46_800, (0.25, 0.5, 0.75), 4
    tilde = random_tilde(rng, b_n)

    def kernel(t, e):
        return est.gamma_kernel(t, 1.0, est.BandwidthSpec.from_exponent(e)).values.tobytes()

    expected = {e: kernel(est.TildeSeries(y1=tilde.y1.copy(), y2=tilde.y2.copy()), e)
                for e in exponents}
    start = Barrier(len(exponents), timeout=60)

    def run(e):
        start.wait()
        return [kernel(tilde, e) for _ in range(repeats)]

    with ThreadPoolExecutor(len(exponents)) as pool:
        got = dict(zip(exponents, pool.map(run, exponents)))
    for e in exponents:
        assert got[e] == [expected[e]] * repeats, e


def test_tilde_series_keeps_int64_differences_of_counts_above_2_53():
    # the differences are taken in int64 and cast once, as np.diff(y) * scale does;
    # a float subtraction would round both counts near 2**62 to the same float
    y1 = np.array([0, 2**62 + 1, 2**62 + 3, 2**62 + 2**54 + 5])
    y2 = np.array([0, 1, 2**53 + 1, 2**53 + 2])
    tilde = est.tilde_series(sim.CountPath(y1=y1, y2=y2), a_n=3.0, delta_n=0.1)
    scale = 1.0 / (3.0 * 0.1)
    assert tilde.y1.tobytes() == (np.diff(y1) * scale).tobytes()
    assert tilde.y2.tobytes() == (np.diff(y2) * scale).tobytes()
    assert tilde.y1[1] == 2 * scale

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 7 (full-scale
table reproduction) is opt-in: set ``LATCORR_FULL=1`` (runs for minutes; see
also scripts/run_reference_study.py).
"""

import math
import os
import time

import numpy as np
import pytest

from latcorr import estimators as est
from latcorr import harness, oracle, sim
from reference import brute_gamma_kernel, brute_gamma_v1, brute_gamma_v2, brute_S, matrix_close

SEED = 20260809

# Reference MSE values for variant 1 (quadratic-form variance estimator
# with lag-2 correction), from the N = 1000 study this package reproduces.
REF_MSE_FAST_V1 = {16: 0.3284, 32: 0.1144, 64: 0.0423, 128: 0.0135, 256: 0.0058}  # a_n = b_n^3.5
REF_MSE_SLOW_V1 = {16: 0.6514, 64: 0.6931, 256: 0.6892}                            # a_n = b_n^2

# Full reference MSE tables (variant x b_n), N = 1000, b_n = 2^4..2^10.
REF_MSE_TABLES = {
    2.0: {
        "1": [0.6514, 0.6775, 0.6931, 0.6835, 0.6892, 0.6923, 0.6908],
        "2": [0.4758, 0.5838, 0.6427, 0.6537, 0.6749, 0.6845, 0.6865],
        "w": [0.2102, 0.2279, 0.2783, 0.3554, 0.3980, 0.4213, 0.4667],
        "m": [0.6063, 0.3973, 0.7440, 0.6470, 0.7390, 0.6298, 0.7188],
        "n": [1.3349, 0.7355, 0.3196, 0.8940, 1.3771, 0.5679, 0.6630],
    },
    2.5: {
        "1": [0.6634, 0.6204, 0.6516, 0.6101, 0.5332, 0.4594, 0.3712],
        "2": [0.4831, 0.5289, 0.5987, 0.5828, 0.5212, 0.4540, 0.3690],
        "w": [0.2066, 0.2113, 0.2463, 0.2918, 0.2918, 0.2617, 0.2317],
        "m": [0.5864, 0.3543, 0.6548, 0.5325, 0.5496, 0.4013, 0.3769],
        "n": [1.2788, 0.6335, 0.2680, 0.7180, 0.9890, 0.3297, 0.3145],
    },
    3.0: {
        "1": [0.5676, 0.4363, 0.2485, 0.1052, 0.0364, 0.0113, 0.0038],
        "2": [0.4185, 0.3663, 0.2259, 0.0994, 0.0351, 0.0110, 0.0037],
        "w": [0.1854, 0.1289, 0.0736, 0.0344, 0.0106, 0.0025, 0.0013],
        "m": [0.5149, 0.2247, 0.2333, 0.0798, 0.0348, 0.0069, 0.0034],
        "n": [1.1188, 0.4379, 0.0818, 0.1119, 0.0885, 0.0037, 0.0018],
    },
    3.5: {
        "1": [0.3284, 0.1144, 0.0423, 0.0135, 0.0058, 0.0027, 0.0015],
        "2": [0.2468, 0.0948, 0.0391, 0.0128, 0.0057, 0.0027, 0.0015],
        "w": [0.1003, 0.0288, 0.0132, 0.0082, 0.0059, 0.0043, 0.0027],
        "m": [0.2784, 0.0471, 0.0313, 0.0086, 0.0041, 0.0017, 0.0009],
        "n": [0.6123, 0.1014, 0.0142, 0.0125, 0.0147, 0.0025, 0.0010],
    },
}


def study_params() -> sim.ModelParams:
    return sim.ModelParams(mu1=0.2, mu2=0.3, sigma1=0.2, sigma2=0.3, rho=0.7,
                           x1_0=1.0, x2_0=2.0, T=1.0)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def fast_regime_rows():
    cfg = harness.ExperimentConfig(model=study_params(), b_n=(16, 32, 64, 128, 256),
                                   r=(3.5,), variants=("1",), replications=300, seed=SEED)
    return harness.run_mse_table(cfg, n_workers=0)


@pytest.fixture(scope="module")
def slow_regime_rows():
    cfg = harness.ExperimentConfig(model=study_params(), b_n=(16, 64, 256),
                                   r=(2.0,), variants=("1",), replications=300, seed=SEED)
    return harness.run_mse_table(cfg, n_workers=0)


def test_1_oracle_equivalence():
    """estimate_S / gamma_v1 / gamma_v2 / gamma_kernel vs brute force."""
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for trial in range(200):
        bn = int(rng.integers(4, 33))
        T = float(rng.choice([0.5, 1.0, 2.0]))
        if trial % 2 == 0:
            lam = rng.uniform(1.0, 50.0)
            y1 = rng.poisson(lam, bn).astype(float) / lam
            y2 = rng.poisson(lam, bn).astype(float) / lam
        else:
            y1 = rng.standard_normal(bn)
            y2 = rng.standard_normal(bn)
        tilde = est.TildeSeries(y1=y1, y2=y2)
        l1, l2 = list(y1), list(y2)

        S = est.estimate_S(tilde)
        ref = brute_S(l1, l2)
        got = np.array([S.s12, S.s11, S.s22])
        want = np.array([ref[(1, 2)], ref[(1, 1)], ref[(2, 2)]])
        assert matrix_close(got, want, rtol=1e-10)

        assert matrix_close(est.gamma_v1(tilde, T).values, brute_gamma_v1(l1, l2, T), 1e-10)
        assert matrix_close(est.gamma_v2(tilde, T).values, brute_gamma_v2(l1, l2, T), 1e-10)

        bw = est.BandwidthSpec.from_exponent(float(rng.uniform(0.0, 0.9)))
        h, n_h = bw.resolve(bn, T)
        a = est.gamma_kernel(tilde, T, bw).values
        b = brute_gamma_kernel(l1, l2, T, h, n_h)
        assert matrix_close(a, b, 1e-10)
        scale = max(np.max(np.abs(a)), 1e-300)
        worst = max(worst, np.max(np.abs(a - b)) / scale)
    elapsed = time.time() - t0
    report(1, "oracle-equivalence", elapsed < 10.0,
           f"200 instances, worst kernel rel dev {worst:.1e}, {elapsed:.1f}s")


def test_2_invariant_suite():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 1)
    eps = np.finfo(float).eps

    # Cauchy-Schwarz within 4 ulps
    for _ in range(50):
        bn = int(rng.integers(4, 64))
        tilde = est.TildeSeries(y1=rng.standard_normal(bn), y2=rng.standard_normal(bn))
        S = est.estimate_S(tilde)
        assert S.s12**2 <= S.s11 * S.s22 * (1.0 + 4.0 * eps) + 1e-300

    # a_n-scale invariance of C and xi (relative 1e-12)
    for _ in range(20):
        bn = int(rng.integers(4, 64))
        inc = rng.poisson(15.0, (2, bn))
        counts = sim.CountPath(y1=np.concatenate([[0], np.cumsum(inc[0])]),
                               y2=np.concatenate([[0], np.cumsum(inc[1])]))
        c = float(rng.uniform(1e-3, 1e3))

        def run(a_n):
            tilde = est.tilde_series(counts, a_n, 1.0 / bn)
            S = est.estimate_S(tilde)
            try:
                C = est.estimate_correlation(S)
            except est.DegenerateDataError:
                return None
            G = est.gamma_v1(tilde, 1.0)
            v = est.correlation_weights(S)
            return C, est.estimate_xi(S, G).xi, float(np.abs(v) @ np.abs(G.values) @ np.abs(v))

        base, scaled = run(50.0), run(50.0 * c)
        if base is None:
            assert scaled is None
            continue
        assert abs(scaled[0] - base[0]) <= 1e-12
        assert abs(scaled[1] - base[1]) <= 1e-12 * max(1e-300, base[2])

    # bit-exact symmetry of all three Gamma estimators
    for _ in range(20):
        bn = int(rng.integers(4, 48))
        tilde = est.TildeSeries(y1=rng.standard_normal(bn), y2=rng.standard_normal(bn))
        for g in (est.gamma_v1(tilde, 1.0).values,
                  est.gamma_v2(tilde, 1.0).values,
                  est.gamma_kernel(tilde, 1.0, est.BandwidthSpec.from_exponent(0.5)).values):
            assert np.array_equal(g, g.T)

    # full-window kernel partial collapses to S/T exactly
    for _ in range(10):
        bn = int(rng.integers(4, 48))
        T = float(rng.choice([0.5, 1.0, 2.0]))
        tilde = est.TildeSeries(y1=rng.standard_normal(bn), y2=rng.standard_normal(bn))
        prods = est.increment_products(tilde)
        S = est.estimate_S(tilde)
        bw = est.BandwidthSpec.explicit(T)
        for pair, s in (((1, 2), S.s12), ((1, 1), S.s11), ((2, 2), S.s22)):
            assert est.kernel_partial(prods[pair], bn, bw, bn, T) == s / T

    # seed determinism: identical MseTable for 1..8 worker threads
    cfg = harness.ExperimentConfig(model=study_params(), b_n=(16, 32), r=(3.0,),
                                   variants=harness.VARIANTS, replications=16, seed=SEED)
    base = harness.run_mse_table(cfg, n_workers=1)
    for workers in (2, 4, 8):
        assert harness.run_mse_table(cfg, n_workers=workers) == base

    elapsed = time.time() - t0
    report(2, "invariant-suite", elapsed < 30.0, f"{elapsed:.1f}s")


def test_3_noiseless_consistency_rate():
    """Error of the quadratic Gamma estimators on noise-free inputs shrinks
    like 1/sqrt(b_n): quadrupling b_n should halve the median error."""
    t0 = time.time()
    model = study_params()
    b_coarse, b_fine = 64, 256
    ratios = {}
    for name, estimator in (("v1", est.gamma_v1), ("v2", est.gamma_v2)):
        errs = {b_coarse: [], b_fine: []}
        for i in range(100):
            rng = sim.replication_rng(SEED, b_fine, 0.0, i)
            design_f = sim.SamplingDesign(b_n=b_fine, a_n=1.0, m=8, T=model.T)
            path = sim.simulate_latent(model, design_f, rng)
            g_true = oracle.true_gamma(path, model).values
            for design in (sim.SamplingDesign(b_n=b_coarse, a_n=1.0, m=32, T=model.T),
                           design_f):
                lam1, lam2 = sim.integrated_intensity(path, design)
                tilde = est.TildeSeries(y1=lam1 / design.delta_n, y2=lam2 / design.delta_n)
                g_hat = estimator(tilde, model.T).values
                errs[design.b_n].append(np.max(np.abs(g_hat - g_true)))
        ratios[name] = float(np.median(errs[b_coarse]) / np.median(errs[b_fine]))
    ok = all(1.4 <= ratio <= 2.9 for ratio in ratios.values())
    elapsed = time.time() - t0
    report(3, "noiseless-consistency-rate", ok and elapsed < 60.0,
           f"median-error ratios b_n x4: v1 {ratios['v1']:.2f}, v2 {ratios['v2']:.2f}, "
           f"{elapsed:.1f}s")


def test_4_fast_regime_mse_desk_scale(fast_regime_rows):
    """Variant 1 at a_n = b_n^3.5: MSE within 2x of the reference values and
    decreasing in b_n."""
    mse = {row.b_n: row.mse for row in fast_regime_rows}
    factor_ok = all(0.5 * REF_MSE_FAST_V1[b] <= mse[b] <= 2.0 * REF_MSE_FAST_V1[b]
                    for b in (16, 32, 64, 128))
    seq = [mse[b] for b in (16, 32, 64, 128, 256)]
    down_steps = sum(b < a for a, b in zip(seq, seq[1:]))
    detail = ", ".join(f"2^{int(math.log2(b))}: {mse[b]:.4f}/{REF_MSE_FAST_V1[b]:.4f}"
                       for b in (16, 32, 64, 128))
    report(4, "fast-regime-mse-desk-scale", factor_ok and down_steps >= 3,
           f"{detail}; decreasing {down_steps}/4 steps")


def test_5_slow_regime_flat_mse_desk_scale(slow_regime_rows):
    """Variant 1 at a_n = b_n^2: MSE stays flat near 0.69 (no convergence)."""
    mse = {row.b_n: row.mse for row in slow_regime_rows}
    level_ok = all(0.69 / 2.0 <= mse[b] <= 0.69 * 2.0 for b in (16, 64, 256))
    spread = max(mse.values()) / min(mse.values())
    detail = ", ".join(f"2^{int(math.log2(b))}: {mse[b]:.4f}" for b in (16, 64, 256))
    report(5, "slow-regime-flat-mse-desk-scale", level_ok and spread <= 2.0,
           f"{detail}; max/min {spread:.2f}")


def test_6_rate_slopes(fast_regime_rows, slow_regime_rows):
    """MSE decay slopes: about -1 in the fast-intensity regime, about 0 in
    the slow one."""
    fast = harness.fit_rate_slope([row for row in fast_regime_rows if row.b_n >= 32], "1", 3.5)
    slow = harness.fit_rate_slope(slow_regime_rows, "1", 2.0)
    ok = -2.0 <= fast <= -0.6 and -0.2 <= slow <= 0.2
    report(6, "rate-check-slopes", ok, f"r=3.5 slope {fast:.2f}, r=2 slope {slow:.2f}")


@pytest.mark.skipif(not os.environ.get("LATCORR_FULL"),
                    reason="full-scale table reproduction is opt-in: set LATCORR_FULL=1 "
                           "(under a minute; also available via scripts/run_reference_study.py --full)")
def test_7_full_scale_tables():
    """N=1000 reproduction of the reference tables, cell by cell, within
    3 cross-replication standard errors.

    Note: the band uses only this run's MC error; the reference values carry
    their own N=1000 noise of comparable size, so even an exact reimplementation
    is expected to land outside on a few of the 140 cells (|z| here is
    effectively sqrt(2) inflated).
    """
    t0 = time.time()
    bns = tuple(2**k for k in range(4, 11))
    bad = []
    total = 0
    for r, table in REF_MSE_TABLES.items():
        cfg = harness.ExperimentConfig(model=study_params(), b_n=bns, r=(r,),
                                       variants=harness.VARIANTS, replications=1000,
                                       seed=SEED)
        for b_n in bns:
            records = harness.run_cell(cfg, b_n, r, n_workers=0)
            live = [rec for rec in records if not rec.degenerate]
            for variant in harness.VARIANTS:
                sq = np.array([(rec.results[variant].xi - rec.true_xi) ** 2 for rec in live])
                mse = float(np.mean(sq))
                se = float(np.std(sq, ddof=1) / math.sqrt(len(sq)))
                want = table[variant][bns.index(b_n)]
                total += 1
                if abs(mse - want) > 3.0 * se:
                    z = (mse - want) / se
                    bad.append(f"r={r} b_n={b_n} *={variant}: {mse:.4f} vs {want:.4f} "
                               f"(z={z:+.2f})")
    elapsed = time.time() - t0
    report(7, "full-scale-tables", not bad,
           f"{total - len(bad)}/{total} cells within 3 SE, {elapsed:.0f}s"
           + ("; outside: " + "; ".join(bad) if bad else ""))


def test_8_ci_coverage():
    """95% intervals built from the variant-2 variance estimate cover the
    path-wise true correlation at a near-nominal rate."""
    t0 = time.time()
    cfg = harness.ExperimentConfig(model=study_params(), b_n=(256,), r=(3.5,),
                                   variants=("2",), replications=500, seed=SEED)
    records = harness.run_cell(cfg, 256, 3.5, n_workers=0)
    live = [rec for rec in records if not rec.degenerate]
    hits = sum(rec.results["2"].ci.lo <= rec.true_R <= rec.results["2"].ci.hi
               for rec in live)
    coverage = hits / len(live)
    elapsed = time.time() - t0
    report(8, "ci-coverage", 0.90 <= coverage <= 0.99,
           f"coverage {coverage:.3f} over {len(live)} replications, {elapsed:.1f}s")

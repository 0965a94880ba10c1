import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcorr import sim


def make_rng(seed=1):
    return np.random.default_rng(seed)


class TestModelValidation:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            sim.ModelParams(mu1=0, mu2=0, sigma1=-0.1, sigma2=0.3, rho=0.5, x1_0=1, x2_0=1)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError, match="rho"):
            sim.ModelParams(mu1=0, mu2=0, sigma1=0.1, sigma2=0.3, rho=1.5, x1_0=1, x2_0=1)

    def test_rejects_nonpositive_start(self):
        with pytest.raises(ValueError):
            sim.ModelParams(mu1=0, mu2=0, sigma1=0.1, sigma2=0.3, rho=0.5, x1_0=0.0, x2_0=1)

    def test_design_rejects_small_grid(self):
        with pytest.raises(ValueError, match="b_n"):
            sim.SamplingDesign(b_n=2, a_n=10.0)

    def test_design_delta(self):
        d = sim.SamplingDesign(b_n=8, a_n=10.0, T=2.0)
        assert d.delta_n == 0.25
        assert d.n_fine == 64


class TestSimulateLatent:
    def test_degenerate_sde_constant_path(self):
        params = sim.ModelParams(mu1=0, mu2=0, sigma1=0, sigma2=0, rho=0.3, x1_0=1.0, x2_0=2.0)
        design = sim.SamplingDesign(b_n=8, a_n=1.0, m=4)
        path = sim.simulate_latent(params, design, make_rng())
        assert np.all(path.x1 == 1.0)
        assert np.all(path.x2 == 2.0)
        assert len(path.times) == 8 * 4 + 1

    def test_increment_correlation_matches_rho(self, study_model):
        # sample correlation of fine-grid log increments should sit near rho
        design = sim.SamplingDesign(b_n=256, a_n=1.0, m=8)
        path = sim.simulate_latent(study_model, design, make_rng(7))
        inc1 = np.diff(np.log(path.x1))
        inc2 = np.diff(np.log(path.x2))
        corr = np.corrcoef(inc1, inc2)[0, 1]
        assert abs(corr - study_model.rho) < 3.0 / math.sqrt(design.n_fine)

    def test_same_seed_bit_identical(self, study_model):
        design = sim.SamplingDesign(b_n=16, a_n=100.0)
        a = sim.simulate_latent(study_model, design, make_rng(42))
        b = sim.simulate_latent(study_model, design, make_rng(42))
        assert np.array_equal(a.x1, b.x1)
        assert np.array_equal(a.x2, b.x2)

    def test_horizon_mismatch_rejected(self, study_model):
        design = sim.SamplingDesign(b_n=8, a_n=1.0, T=2.0)
        with pytest.raises(ValueError, match="T"):
            sim.simulate_latent(study_model, design, make_rng())

    @settings(max_examples=40, deadline=None)
    @given(
        mu1=st.floats(-2, 2), mu2=st.floats(-2, 2),
        sigma1=st.floats(0, 2), sigma2=st.floats(0, 2),
        rho=st.floats(-1, 1),
        x1_0=st.floats(0.01, 50), x2_0=st.floats(0.01, 50),
        b_n=st.integers(4, 32), m=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_positivity(self, mu1, mu2, sigma1, sigma2, rho, x1_0, x2_0, b_n, m, seed):
        params = sim.ModelParams(mu1=mu1, mu2=mu2, sigma1=sigma1, sigma2=sigma2,
                                 rho=rho, x1_0=x1_0, x2_0=x2_0)
        design = sim.SamplingDesign(b_n=b_n, a_n=1.0, m=m)
        path = sim.simulate_latent(params, design, make_rng(seed))
        assert np.all(path.x1 > 0)
        assert np.all(path.x2 > 0)


class TestIntegratedIntensity:
    def test_constant_path_exact(self):
        params = sim.ModelParams(mu1=0, mu2=0, sigma1=0, sigma2=0, rho=0.0, x1_0=1.0, x2_0=2.0)
        design = sim.SamplingDesign(b_n=4, a_n=1.0, m=8, T=1.0)
        path = sim.simulate_latent(params, design, make_rng())
        lam1, lam2 = sim.integrated_intensity(path, design)
        assert lam1 == pytest.approx([0.25] * 4, rel=1e-14)
        assert lam2 == pytest.approx([0.5] * 4, rel=1e-14)

    def test_linear_path_matches_closed_form(self):
        # trapezoid is exact for affine integrands
        design = sim.SamplingDesign(b_n=5, a_n=1.0, m=3, T=1.0)
        t = np.arange(design.n_fine + 1) * (design.T / design.n_fine)
        path = sim.LatentPath(times=t, x1=2.0 + 3.0 * t, x2=1.0 + 0.5 * t)
        lam1, lam2 = sim.integrated_intensity(path, design)
        edges = np.arange(design.b_n + 1) * design.delta_n

        def exact(a, b):
            return a * np.diff(edges) + 0.5 * b * np.diff(edges**2)

        np.testing.assert_allclose(lam1, exact(2.0, 3.0), rtol=1e-13)
        np.testing.assert_allclose(lam2, exact(1.0, 0.5), rtol=1e-13)

    def test_gbm_refinement_self_convergence(self, study_model):
        # same trajectory integrated at m=8 and m=256 (common nodes)
        b_n = 16
        fine = sim.SamplingDesign(b_n=b_n, a_n=1.0, m=256)
        for seed in range(5):
            path = sim.simulate_latent(study_model, fine, make_rng(seed))
            coarse = sim.SamplingDesign(b_n=b_n, a_n=1.0, m=8)
            sub = sim.LatentPath(times=path.times[::32], x1=path.x1[::32], x2=path.x2[::32])
            lam_f = sim.integrated_intensity(path, fine)
            lam_c = sim.integrated_intensity(sub, coarse)
            for a in (0, 1):
                tot_f, tot_c = np.sum(lam_f[a]), np.sum(lam_c[a])
                assert abs(tot_f - tot_c) / tot_f < 1e-3

    def test_second_order_on_smooth_path(self):
        # halving the step shrinks the quadrature error ~4x for exp(t)
        b_n, exact_total = 4, math.e - 1.0

        def total(m):
            design = sim.SamplingDesign(b_n=b_n, a_n=1.0, m=m)
            t = np.arange(design.n_fine + 1) * (1.0 / design.n_fine)
            path = sim.LatentPath(times=t, x1=np.exp(t), x2=np.exp(t))
            lam1, _ = sim.integrated_intensity(path, design)
            return float(np.sum(lam1))

        err_m = abs(total(8) - exact_total)
        err_2m = abs(total(16) - exact_total)
        assert 3.5 < err_m / err_2m < 4.5

    def test_mismatched_lengths_rejected(self, study_model):
        design = sim.SamplingDesign(b_n=8, a_n=1.0, m=2)
        path = sim.simulate_latent(study_model, design, make_rng())
        other = sim.SamplingDesign(b_n=8, a_n=1.0, m=3)
        with pytest.raises(ValueError, match="nodes"):
            sim.integrated_intensity(path, other)


class TestSimulateCounts:
    def test_poisson_moments(self):
        lam = np.full(4000, 0.25)
        counts = sim.simulate_counts((lam, lam), 1000.0, make_rng(3))
        inc = np.diff(counts.y1)
        assert abs(inc.mean() - 250.0) < 4.0 * math.sqrt(250.0 / inc.size)
        assert abs(inc.var(ddof=1) - 250.0) < 25.0

    def test_conditional_mean_property(self, study_model):
        # over many draws from a fixed path, increment means track a_n*lam
        design = sim.SamplingDesign(b_n=16, a_n=500.0, m=8)
        path = sim.simulate_latent(study_model, design, make_rng(11))
        lam1, lam2 = sim.integrated_intensity(path, design)
        reps = 10_000
        rng = make_rng(12)
        total = np.zeros((2, design.b_n))
        for _ in range(reps):
            c = sim.simulate_counts((lam1, lam2), design.a_n, rng)
            total[0] += np.diff(c.y1)
            total[1] += np.diff(c.y2)
        means = total / reps
        target = np.vstack([lam1, lam2]) * design.a_n
        band = 4.0 * np.sqrt(target / reps)
        frac_ok = np.mean(np.abs(means - target) <= band)
        assert frac_ok >= 0.95

    def test_tiny_scale_gives_zero_counts(self):
        lam = np.full(64, 0.5)
        counts = sim.simulate_counts((lam, lam), 1e-9, make_rng(4))
        assert counts.y1[-1] == 0
        assert counts.y2[-1] == 0

    def test_zero_scale_rejected(self):
        lam = np.full(8, 0.5)
        with pytest.raises(ValueError, match="a_n"):
            sim.simulate_counts((lam, lam), 0.0, make_rng())

    def test_bad_means_rejected(self):
        good = np.full(8, 0.5)
        with pytest.raises(ValueError):
            sim.simulate_counts((np.array([0.5, -1.0] * 4), good), 1.0, make_rng())
        with pytest.raises(ValueError):
            sim.simulate_counts((np.full(8, np.inf), good), 1.0, make_rng())
        with pytest.raises(ValueError, match="64-bit"):
            sim.simulate_counts((np.full(8, 2e18), good), 10.0, make_rng())

    def test_same_seed_identical(self):
        lam = np.full(32, 0.3)
        a = sim.simulate_counts((lam, lam), 100.0, make_rng(9))
        b = sim.simulate_counts((lam, lam), 100.0, make_rng(9))
        assert np.array_equal(a.y1, b.y1)
        assert np.array_equal(a.y2, b.y2)

    def test_count_path_invariants_enforced(self):
        with pytest.raises(ValueError, match="start at 0"):
            sim.CountPath(y1=np.array([1, 2]), y2=np.array([0, 1]))
        with pytest.raises(ValueError, match="nondecreasing"):
            sim.CountPath(y1=np.array([0, 2, 1]), y2=np.array([0, 1, 2]))


class TestValidateRegime:
    def test_fast_scale_satisfies_both(self):
        b_n = 2**8
        report = sim.validate_regime(b_n, float(b_n) ** 3.5)
        assert report.r == pytest.approx(3.5, abs=1e-12)
        assert report.satisfies_b_i
        assert report.satisfies_bss_i

    def test_slow_scale_satisfies_neither(self):
        b_n = 2**8
        report = sim.validate_regime(b_n, float(b_n) ** 2)
        assert report.r == pytest.approx(2.0, abs=1e-12)
        assert not report.satisfies_b_i
        assert not report.satisfies_bss_i

    def test_boundary_is_not_satisfied(self):
        b_n = 2**8
        report = sim.validate_regime(b_n, float(b_n) ** 2.5)
        assert report.r == pytest.approx(2.5, abs=1e-12)
        assert not report.satisfies_b_i
        assert not report.satisfies_bss_i

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sim.validate_regime(2, 10.0)
        with pytest.raises(ValueError):
            sim.validate_regime(16, 0.0)


class TestSubstreams:
    def test_substreams_distinct_and_reproducible(self):
        a = sim.replication_rng(7, 16, 3.5, 0).standard_normal(4)
        b = sim.replication_rng(7, 16, 3.5, 1).standard_normal(4)
        c = sim.replication_rng(7, 16, 3.5, 0).standard_normal(4)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_cells_do_not_share_streams(self):
        a = sim.replication_rng(7, 16, 3.5, 0).standard_normal(4)
        b = sim.replication_rng(7, 16, 2.0, 0).standard_normal(4)
        c = sim.replication_rng(7, 32, 3.5, 0).standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


@pytest.mark.parametrize("field", ["a_n", "T"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_design_rejects_non_finite(field, value):
    kwargs = {"b_n": 8, "a_n": 10.0, "T": 1.0, field: value}
    with pytest.raises(ValueError, match=field):
        sim.SamplingDesign(**kwargs)

import numpy as np
import pytest

from latcorr import estimators as est
from latcorr import oracle, sim


def constant_path(x1, x2, n=64, T=1.0):
    t = np.linspace(0.0, T, n + 1)
    return sim.LatentPath(times=t, x1=np.full(n + 1, x1), x2=np.full(n + 1, x2))


def gbm_path(model, b_n=32, m=8, seed=5):
    design = sim.SamplingDesign(b_n=b_n, a_n=1.0, m=m, T=model.T)
    return sim.simulate_latent(model, design, np.random.default_rng(seed))


class TestTrueU:
    def test_constant_integrands(self):
        params = sim.ModelParams(mu1=0, mu2=0, sigma1=1.0, sigma2=1.0, rho=0.5,
                                 x1_0=1.0, x2_0=2.0)
        U, R = oracle.true_U(constant_path(1.0, 2.0), params)
        assert U.s11 == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert U.s22 == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert U.s12 == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert R == pytest.approx(0.5, rel=1e-12)

    def test_zero_rho_zero_correlation(self, study_model, rng):
        params = sim.ModelParams(mu1=0.2, mu2=0.3, sigma1=0.2, sigma2=0.3, rho=0.0,
                                 x1_0=1.0, x2_0=2.0)
        U, R = oracle.true_U(gbm_path(params), params)
        assert U.s12 == 0.0
        assert R == 0.0

    def test_degenerate_volatility_rejected(self):
        params = sim.ModelParams(mu1=0, mu2=0, sigma1=0.0, sigma2=1.0, rho=0.0,
                                 x1_0=1.0, x2_0=1.0)
        with pytest.raises(est.DegenerateDataError):
            oracle.true_U(constant_path(1.0, 1.0), params)

    def test_refinement_stability(self, study_model):
        # same trajectory at m and 2m: truth shifts by < 1e-4 relative once
        # the fine grid is past the pre-asymptotic range
        design = sim.SamplingDesign(b_n=32, a_n=1.0, m=512, T=1.0)
        path = sim.simulate_latent(study_model, design, np.random.default_rng(3))
        sub = sim.LatentPath(times=path.times[::2], x1=path.x1[::2], x2=path.x2[::2])
        U_f, R_f = oracle.true_U(path, study_model)
        U_c, R_c = oracle.true_U(sub, study_model)
        for fine, coarse in ((U_f.s12, U_c.s12), (U_f.s11, U_c.s11), (U_f.s22, U_c.s22)):
            assert abs(fine - coarse) / abs(fine) < 1e-4
        assert abs(R_f - R_c) < 1e-4


class TestTrueGamma:
    def test_constant_orthonormal_rows(self):
        # rows (1,0) and (0,1): straight tensor arithmetic by hand
        params = sim.ModelParams(mu1=0, mu2=0, sigma1=1.0, sigma2=1.0, rho=0.0,
                                 x1_0=1.0, x2_0=1.0)
        g = oracle.true_gamma(constant_path(1.0, 1.0), params)
        assert g.entry((1, 2), (1, 2)) == pytest.approx(0.5, rel=1e-12)
        assert g.entry((1, 1), (1, 1)) == pytest.approx(1.0, rel=1e-12)
        assert g.entry((1, 1), (2, 2)) == pytest.approx(0.0, abs=1e-15)

    def test_zero_sigma1_kills_first_coordinate(self):
        params = sim.ModelParams(mu1=0, mu2=0, sigma1=0.0, sigma2=0.7, rho=0.3,
                                 x1_0=1.0, x2_0=2.0)
        g = oracle.true_gamma(constant_path(1.0, 2.0), params)
        for p in est.PAIRS:
            for q in est.PAIRS:
                if 1 in p or 1 in q:
                    assert g.entry(p, q) == 0.0
        assert g.entry((2, 2), (2, 2)) > 0.0

    def test_tensor_equals_halfsum_identity(self, study_model):
        for seed in range(4):
            path = gbm_path(study_model, seed=seed)
            a = oracle.true_gamma(path, study_model).values
            b = oracle.true_gamma_halfsum(path, study_model).values
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))

    def test_symmetric(self, study_model):
        g = oracle.true_gamma(gbm_path(study_model), study_model).values
        assert np.array_equal(g, g.T)


class TestTrueXi:
    def test_identity_gamma_unit_weights(self):
        U = est.CovEstimate(s12=0.0, s11=1.0, s22=1.0)
        assert oracle.true_xi(U, est.GammaMatrix(values=np.eye(3))) == 1.0

    def test_zero_gamma(self):
        U = est.CovEstimate(s12=0.3, s11=1.0, s22=2.0)
        assert oracle.true_xi(U, est.GammaMatrix(values=np.zeros((3, 3)))) == 0.0

    def test_invariant_under_first_coordinate_rescale(self, study_model):
        # U and Gamma rescale homogeneously in X1; the weights compensate
        path = gbm_path(study_model, seed=9)
        rec = oracle.truth_record(path, study_model)
        assert rec.xi > 0.0
        c = 3.0
        scaled = sim.LatentPath(times=path.times, x1=c * path.x1, x2=path.x2)
        rec_scaled = oracle.truth_record(scaled, study_model)
        assert rec_scaled.xi == pytest.approx(rec.xi, rel=1e-12)
        assert rec_scaled.R == pytest.approx(rec.R, rel=1e-12)


class TestTruthRecord:
    def test_internally_consistent(self, study_model):
        path = gbm_path(study_model, seed=2)
        rec = oracle.truth_record(path, study_model)
        assert rec.R == pytest.approx(
            rec.U.s12 / np.sqrt(rec.U.s11 * rec.U.s22), rel=1e-14
        )
        assert rec.xi == pytest.approx(oracle.true_xi(rec.U, rec.gamma), rel=1e-14)
        assert abs(rec.R) <= 1.0
        assert np.sign(rec.R) == np.sign(study_model.rho)

    def test_quadrature_self_consistency(self, study_model):
        design = sim.SamplingDesign(b_n=32, a_n=1.0, m=512, T=1.0)
        path = sim.simulate_latent(study_model, design, np.random.default_rng(13))
        sub = sim.LatentPath(times=path.times[::2], x1=path.x1[::2], x2=path.x2[::2])
        fine = oracle.truth_record(path, study_model)
        coarse = oracle.truth_record(sub, study_model)
        assert coarse.xi == pytest.approx(fine.xi, rel=1e-4)
        g_f, g_c = fine.gamma.values, coarse.gamma.values
        assert np.max(np.abs(g_f - g_c)) <= 1e-4 * np.max(np.abs(g_f))

    def test_stacked_path_gives_each_row_the_bits_of_that_path_alone(self, study_model):
        design = sim.SamplingDesign(b_n=32, a_n=1.0, m=8, T=1.0)
        stacked = sim.simulate_latent(study_model, design,
                                      [np.random.default_rng(seed) for seed in range(5)])
        rec = oracle.truth_record(stacked, study_model)
        assert rec.R.shape == rec.xi.shape == rec.U.s11.shape == (5,)
        assert rec.gamma.values.shape == (5, 3, 3)
        for k in range(5):
            alone = oracle.truth_record(
                sim.LatentPath(times=stacked.times, x1=stacked.x1[k], x2=stacked.x2[k]),
                study_model)
            assert all(type(x) is float for x in (alone.U.s12, alone.R, alone.xi))
            got = [rec.U.s12[k], rec.U.s11[k], rec.U.s22[k], rec.R[k], rec.xi[k],
                   *rec.gamma.values[k].ravel()]
            want = [alone.U.s12, alone.U.s11, alone.U.s22, alone.R, alone.xi,
                    *alone.gamma.values.ravel()]
            assert [float(x).hex() for x in got] == [float(x).hex() for x in want]

    def test_first_failing_row_of_a_stacked_path_raises_its_own_error(self, study_model):
        live = gbm_path(study_model)
        n = live.n_nodes
        rows = {"live": live.x1,
                "zero": np.full(n, 1e-200),  # U11 underflows to 0
                "huge": np.full(n, 1e60)}  # U and gamma are finite, the xi weights are not

        def truth(*names):
            path = sim.LatentPath(times=live.times, x1=np.array([rows[k] for k in names]),
                                  x2=np.array([live.x2] * len(names)))
            return oracle.truth_record(path, study_model)

        for names, error, message in [(("live", "zero", "huge"), est.DegenerateDataError, "U11"),
                                      (("live", "huge", "zero"), ValueError, "path-wise xi")]:
            with pytest.raises(error, match=message) as raised:
                truth(*names)
            assert type(raised.value) is error
            with pytest.raises(error, match=message):
                truth(names[1])
        assert truth("live", "live").xi.tolist() == [truth("live").xi] * 2


class TestTruthRecordMatchesTensorForm:
    @pytest.mark.parametrize("rho", [-1.0, 0.0, 0.7, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gram_form_matches_tensor_references(self, rho, seed):
        params = sim.ModelParams(mu1=0.2, mu2=0.3, sigma1=0.2, sigma2=0.3, rho=rho,
                                 x1_0=1.0, x2_0=2.0)
        path = gbm_path(params, b_n=64, seed=seed)
        rec = oracle.truth_record(path, params)
        U, R = oracle.true_U(path, params)
        gamma = oracle.true_gamma(path, params)

        got_U = np.array([rec.U.s12, rec.U.s11, rec.U.s22])
        want_U = np.array([U.s12, U.s11, U.s22])
        assert np.max(np.abs(got_U - want_U)) <= 1e-12 * np.max(np.abs(want_U))
        assert rec.R == pytest.approx(R, rel=1e-12, abs=0.0)
        g = gamma.values
        assert np.max(np.abs(rec.gamma.values - g)) <= 1e-12 * np.max(np.abs(g))
        # at |rho| = 1 xi nearly cancels, so its error is relative to the
        # size of the terms of v' G v
        v = np.abs(est.correlation_weights(U))
        assert abs(rec.xi - oracle.true_xi(U, gamma)) <= 1e-12 * (v @ np.abs(g) @ v)

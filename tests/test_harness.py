import dataclasses
import math

import numpy as np
import pytest

from latcorr import estimators as est
from latcorr import harness, io, sim


def small_config(study_model, **kw):
    defaults = dict(model=study_model, b_n=(16,), r=(3.0,), variants=("1", "2", "w"),
                    replications=6, seed=99)
    defaults.update(kw)
    return harness.ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_rejects_empty_grid(self, study_model):
        with pytest.raises(ValueError):
            small_config(study_model, b_n=())

    def test_rejects_small_bn(self, study_model):
        with pytest.raises(ValueError, match="b_n"):
            small_config(study_model, b_n=(2,))

    def test_rejects_unknown_variant(self, study_model):
        with pytest.raises(ValueError, match="variant"):
            small_config(study_model, variants=("1", "q"))

    def test_rejects_bad_overrides(self, study_model):
        with pytest.raises(ValueError, match="bandwidth_overrides"):
            small_config(study_model, bandwidth_overrides={"1": 0.5})

    def test_rejects_zero_replications(self, study_model):
        with pytest.raises(ValueError):
            small_config(study_model, replications=0)


class TestRunReplication:
    def test_deterministic(self, study_model):
        cfg = small_config(study_model)
        a = harness.run_replication(cfg, 16, 3.0, 2)
        b = harness.run_replication(cfg, 16, 3.0, 2)
        assert a == b

    def test_degenerate_model_aborts(self):
        model = sim.ModelParams(mu1=0, mu2=0, sigma1=0.0, sigma2=0.0, rho=0.0,
                                x1_0=1.0, x2_0=2.0)
        cfg = harness.ExperimentConfig(model=model, b_n=(16,), r=(3.0,),
                                       variants=("1",), replications=1, seed=1)
        with pytest.raises(est.DegenerateDataError):
            harness.run_replication(cfg, 16, 3.0, 0)

    def test_record_contents(self, study_model):
        cfg = small_config(study_model)
        rec = harness.run_replication(cfg, 16, 3.0, 0)
        assert not rec.degenerate
        assert set(rec.results) == {"1", "2", "w"}
        assert -1.0 <= rec.C <= 1.0
        assert rec.true_xi > 0.0
        for res in rec.results.values():
            assert res.xi >= 0.0
            assert res.ci.lo <= res.ci.hi

    def test_gamma_for_variant_dispatch(self, study_model, rng):
        tilde = est.TildeSeries(y1=rng.standard_normal(16), y2=rng.standard_normal(16))
        assert np.array_equal(
            harness.gamma_for_variant(tilde, 1.0, "1").values,
            est.gamma_v1(tilde, 1.0).values,
        )
        assert np.array_equal(
            harness.gamma_for_variant(tilde, 1.0, "n").values,
            est.gamma_kernel(tilde, 1.0, est.BandwidthSpec.from_exponent(0.75)).values,
        )
        # override replaces the named exponent
        assert np.array_equal(
            harness.gamma_for_variant(tilde, 1.0, "w", {"w": 0.6}).values,
            est.gamma_kernel(tilde, 1.0, est.BandwidthSpec.from_exponent(0.6)).values,
        )
        with pytest.raises(ValueError):
            harness.gamma_for_variant(tilde, 1.0, "zz")


class TestMseTable:
    def test_stubbed_estimator_gives_zero_mse(self, study_model, monkeypatch):
        ci = est.confidence_interval(0.5, 0.0, 16, 1.0)

        def stub(config, b_n, r, index):
            results = {v: harness.VariantResult(xi=1.23, clamped=False, ci=ci)
                       for v in config.variants}
            return harness.ReplicationRecord(index=index, b_n=b_n, r=r, degenerate=False,
                                             C=0.5, results=results, true_R=0.5, true_xi=1.23)

        monkeypatch.setattr(harness, "run_replication", stub)
        cfg = small_config(study_model, replications=1)
        rows = harness.run_mse_table(cfg)
        assert all(row.mse == 0.0 for row in rows)

    def test_bn_times_mse_identity(self, study_model):
        cfg = small_config(study_model, b_n=(16, 32))
        for row in harness.run_mse_table(cfg):
            assert row.bn_times_mse == row.b_n * row.mse

    def test_row_count_and_order(self, study_model):
        cfg = small_config(study_model, b_n=(16, 32), r=(2.0, 3.0), replications=2)
        rows = harness.run_mse_table(cfg)
        assert len(rows) == 2 * 2 * 3
        keys = [(row.r, row.b_n, row.variant) for row in rows]
        assert keys == [(r, b, v) for r in (2.0, 3.0) for b in (16, 32)
                        for v in ("1", "2", "w")]

    def test_worker_count_does_not_change_bits(self, study_model):
        cfg = small_config(study_model, replications=8)
        base = harness.run_mse_table(cfg, n_workers=1)
        for workers in (2, 5):
            assert harness.run_mse_table(cfg, n_workers=workers) == base

    def test_all_degenerate_cell_marked_invalid(self, study_model):
        # a_n = 16^-5 makes every count path identically zero
        cfg = small_config(study_model, r=(-5.0,), replications=4)
        rows = harness.run_mse_table(cfg)
        for row in rows:
            assert not row.valid
            assert math.isnan(row.mse)
            assert row.degenerate_count == 4
            assert row.n_effective == 0

    def test_degenerate_plus_effective_sums_to_n(self, study_model):
        cfg = small_config(study_model, replications=5)
        for row in harness.run_mse_table(cfg):
            assert row.n_effective + row.degenerate_count == 5


class TestStatisticalTrends:
    """Monte Carlo regression baselines (fixed seed, N=300 unless noted)."""

    def test_clamping_rare_in_fast_regime(self, study_model):
        cfg = harness.ExperimentConfig(model=study_model, b_n=(128,), r=(3.5,),
                                       variants=("1",), replications=200, seed=20260809)
        row = harness.run_mse_table(cfg, n_workers=0)[0]
        assert np.isfinite(row.mse)
        assert row.clamped_count / row.n_effective < 0.05

    def test_monotone_mse_trend_fast_regime(self, study_model):
        cfg = harness.ExperimentConfig(model=study_model,
                                       b_n=tuple(2**k for k in range(4, 11)),
                                       r=(3.5,), variants=("1",), replications=300,
                                       seed=20260809)
        seq = [row.mse for row in harness.run_mse_table(cfg, n_workers=0)]
        down = sum(b < a for a, b in zip(seq, seq[1:]))
        assert down >= 5  # of 6 steps

    def test_flat_mse_in_slow_regime(self, study_model):
        cfg = harness.ExperimentConfig(model=study_model,
                                       b_n=tuple(2**k for k in range(4, 9)),
                                       r=(2.0,), variants=("1",), replications=300,
                                       seed=20260809)
        seq = [row.mse for row in harness.run_mse_table(cfg, n_workers=0)]
        assert max(seq) / min(seq) <= 2.0


class TestRateCheck:
    def test_synthetic_inverse_law_slope(self):
        rows = [
            harness.MseRow(variant="1", b_n=b, r=3.5, mse=0.8 / b, bn_times_mse=0.8,
                           degenerate_count=0, clamped_count=0, n_effective=10)
            for b in (16, 32, 64, 128)
        ]
        slope = harness.fit_rate_slope(rows, "1", 3.5)
        assert slope == pytest.approx(-1.0, abs=1e-12)

    def test_paper_table_values_slope(self):
        # reference-study variant-1 MSEs at r=3.5 for b_n = 2^6..2^8
        mse = {64: 0.0423, 128: 0.0135, 256: 0.0058}
        rows = [
            harness.MseRow(variant="1", b_n=b, r=3.5, mse=v, bn_times_mse=b * v,
                           degenerate_count=0, clamped_count=0, n_effective=1000)
            for b, v in mse.items()
        ]
        slope = harness.fit_rate_slope(rows, "1", 3.5)
        assert slope == pytest.approx(-1.43, abs=0.02)

    def test_too_few_points_rejected(self):
        rows = [
            harness.MseRow(variant="1", b_n=b, r=2.0, mse=0.5, bn_times_mse=0.5 * b,
                           degenerate_count=0, clamped_count=0, n_effective=10)
            for b in (16, 32)
        ]
        with pytest.raises(ValueError):
            harness.fit_rate_slope(rows, "1", 2.0)

    def test_invalid_rows_excluded(self):
        rows = [
            harness.MseRow(variant="1", b_n=b, r=2.0, mse=0.5, bn_times_mse=0.5 * b,
                           degenerate_count=0, clamped_count=0, n_effective=10)
            for b in (16, 32, 64)
        ] + [
            harness.MseRow(variant="1", b_n=128, r=2.0, mse=math.nan, bn_times_mse=math.nan,
                           degenerate_count=10, clamped_count=0, n_effective=0)
        ]
        slope = harness.fit_rate_slope(rows, "1", 2.0)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_rate_check_requires_single_r(self, study_model):
        cfg = small_config(study_model, b_n=(16, 32, 64), r=(2.0, 3.0))
        with pytest.raises(ValueError):
            harness.rate_check(cfg, "1")


class TestMseStderr:
    def test_matches_records(self, study_model):
        cfg = small_config(study_model, replications=7)
        records = harness.run_cell(cfg, 16, 3.0)
        live = [rec for rec in records if not rec.degenerate]
        for row in harness.aggregate_cell(records, cfg, 16, 3.0):
            sq = np.array([(rec.results[row.variant].xi - rec.true_xi) ** 2 for rec in live])
            assert row.mse_stderr == float(np.std(sq, ddof=1) / math.sqrt(len(sq)))
            assert row.mse_stderr > 0.0

    def test_nan_below_two_replications(self, study_model):
        rows = harness.run_mse_table(small_config(study_model, replications=1))
        assert all(math.isnan(row.mse_stderr) for row in rows)
        assert all(math.isfinite(row.mse) for row in rows)

    def test_changes_neither_equality_nor_csv(self, study_model):
        rows = harness.run_mse_table(small_config(study_model, replications=3))
        moved = [dataclasses.replace(row, mse_stderr=-1.0) for row in rows]
        assert moved == rows
        assert io.mse_table_csv(moved) == io.mse_table_csv(rows)

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_rejects_a_repeated_variant_naming_it(self, study_model):
        with pytest.raises(ValueError, match=r"^repeated variants: \['1'\]$"):
            small_config(study_model, variants=("1", "w", "1"))

    def test_rejects_bad_overrides(self, study_model):
        with pytest.raises(ValueError, match="bandwidth_overrides"):
            small_config(study_model, bandwidth_overrides={"1": 0.5})

    def test_rejects_zero_replications(self, study_model):
        with pytest.raises(ValueError):
            small_config(study_model, replications=0)

    @pytest.mark.parametrize("field, value", [
        ("b_n", (16.7,)), ("b_n", (16.0,)), ("b_n", (math.nan,)), ("b_n", (True, 16)),
        ("replications", 2.5), ("refinement", 2.5), ("seed", 1.5), ("seed", math.inf)])
    def test_rejects_a_grid_size_that_is_not_an_integer_naming_it(self, study_model, field,
                                                                  value):
        # before any work, neither truncated nor as a TypeError in the run
        with pytest.raises(ValueError, match=rf"^(every )?{field} must be an integer"):
            small_config(study_model, **{field: value})

    @pytest.mark.parametrize("rs, first, second", [
        ((3.0, 3.0004), "3.0", "3.0004"), ((2.0, 3.0, 2.0), "2.0", "2.0"),
        ((3.0, 2.9995), "3.0", "2.9995")])
    def test_rejects_two_r_of_one_substream_naming_both(self, study_model, rs, first, second):
        # both would key the same substreams: the same latent paths and truth in two cells
        assert sim._r_key(float(first)) == sim._r_key(float(second))
        with pytest.raises(ValueError, match=rf"^r={first} and r={second} share one substream"):
            small_config(study_model, r=rs)

    def test_accepts_r_a_thousandth_apart(self, study_model):
        cfg = small_config(study_model, r=(3.0, 3.001, 2.999))
        assert len({sim._r_key(r) for r in cfg.r}) == 3

    def test_accepts_numpy_integers_as_python_ints(self, study_model):
        cfg = small_config(study_model, b_n=(np.int64(16),), replications=np.int32(2))
        assert cfg.b_n == (16,) and type(cfg.b_n[0]) is int


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

    def test_negative_index_rejected_before_any_draw(self, study_model, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a substream was built")

        monkeypatch.setattr(sim, "replication_rng", no_draw)
        with pytest.raises(ValueError, match="^index must be an integer of at least 0, got -1$"):
            harness.run_replication(small_config(study_model), 16, 3.0, -1)

    @pytest.mark.parametrize("value", [math.nan, 2.5, -1])
    @pytest.mark.parametrize("run, arg", [
        (lambda cfg, v: harness.run_replication(cfg, 16, 3.0, v), "index"),
        (lambda cfg, v: harness.run_cell(cfg, 16, 3.0, n_workers=v), "n_workers"),
        (lambda cfg, v: harness.run_mse_table(cfg, n_workers=v), "n_workers"),
    ], ids=["run_replication", "run_cell", "run_mse_table"])
    def test_counts_must_be_integers_of_at_least_0_before_any_draw(
            self, study_model, monkeypatch, run, arg, value):
        # n_workers = nan once ran a cell, or ended a table in a TypeError
        def refuse(*args):
            raise AssertionError("a substream was built, or a helper forked")

        monkeypatch.setattr(sim, "replication_rng", refuse)
        monkeypatch.setattr(harness.os, "fork", refuse)
        with pytest.raises(ValueError, match=f"^{arg} must be an integer of at least 0, got "):
            run(small_config(study_model), value)

    @pytest.mark.parametrize("index", [1.5, True, -1, math.nan])
    def test_simulate_replication_rejects_a_bad_index_before_any_draw(self, study_model,
                                                                      monkeypatch, index):
        # 1.5 and True once ran replication 1, and -1 raised numpy's unnamed error
        def refuse(*args):
            raise AssertionError("a substream was built")

        monkeypatch.setattr(sim, "replication_rng", refuse)
        with pytest.raises(ValueError) as raised:
            harness.simulate_replication(small_config(study_model), 16, 3.0, index)
        assert str(raised.value) == f"index must be an integer of at least 0, got {index!r}"

    @pytest.mark.parametrize("run", [
        lambda cfg, b_n, r: harness.run_replication(cfg, b_n, r, 0),
        lambda cfg, b_n, r: harness.run_cell(cfg, b_n, r),
        lambda cfg, b_n, r: harness.simulate_replication(cfg, b_n, r, 0),
    ], ids=["run_replication", "run_cell", "simulate_replication"])
    @pytest.mark.parametrize("b_n, r", [(16, 400.0), (16, 2.0), (8, 3.0), (8192, 3.0)])
    def test_a_cell_off_the_grid_is_rejected_before_any_draw(self, study_model, monkeypatch,
                                                             run, b_n, r):
        # (16, 400.0) once ended in an OverflowError, and b_n 8192 would pass the fine-step cap
        def refuse(*args):
            raise AssertionError("a substream was built")

        monkeypatch.setattr(sim, "replication_rng", refuse)
        cfg = small_config(study_model, refinement=1 << 12)
        with pytest.raises(ValueError, match=rf"^cell \(b_n={b_n}, r={r}\) is not in the "):
            run(cfg, b_n, r)

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
        def stub(config, b_n, rs, indices):  # the stacked pass every table runs
            R, V = len(rs) * len(indices), len(config.variants)
            return (np.full(R, 0.5), np.full((V, R), 1.23), np.zeros((V, R)),
                    np.zeros(R, dtype=bool), np.full(R, 0.5), np.full(R, 1.23))

        monkeypatch.setattr(harness, "_chunk", stub)
        cfg = small_config(study_model, replications=1)
        rows = harness.run_mse_table(cfg)
        assert all(row.mse == 0.0 for row in rows)

    def test_table_builds_no_per_replication_object(self, study_model, monkeypatch):
        cfg = small_config(study_model, b_n=(16, 32), r=(2.0, 3.0), replications=9)
        base = repr(harness.run_mse_table(cfg))
        # x1_0 = 4e20: the counts of r = 3 pass the int64 range at every b_n, those of r = -1
        # (a_n = 1/b_n) only below b_n 64, so the first failing cell follows two live ones
        failing = small_config(dataclasses.replace(study_model, x1_0=4e20), b_n=(256, 128, 16),
                               r=(-1.0, 3.0), replications=4)
        with pytest.raises(ValueError, match="64-bit range") as serial:
            for r, b_n in itertools.product(failing.r, failing.b_n):
                harness.run_cell(failing, b_n, r)

        def refuse(*args, **kwargs):
            raise AssertionError("a table built a per-replication object")

        def no_fork():
            raise OSError("no fork to be had")

        for module, name in [(harness, "ReplicationRecord"), (harness, "VariantResult"),
                             (est, "ConfidenceInterval")]:
            monkeypatch.setattr(module, name, refuse)
        # at n_workers=2 the fork fails, so every cell of both r reruns in this process
        monkeypatch.setattr(harness.os, "fork", no_fork)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        harness._stop_helpers()  # a kept helper would take the columns without a fork
        for n_workers in (1, 2):
            assert repr(harness.run_mse_table(cfg, n_workers=n_workers)) == base
            with pytest.raises(ValueError) as stacked:
                harness.run_mse_table(failing, n_workers=n_workers)
            assert str(stacked.value) == str(serial.value)
        with pytest.raises(AssertionError, match="per-replication"):
            harness.run_cell(cfg, 16, 2.0)

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

    @pytest.mark.parametrize("sizes", [(16, 32), (16, 32, 16, 32)], ids=["two", "two-repeated"])
    def test_too_few_points_rejected(self, sizes):
        rows = [
            harness.MseRow(variant="1", b_n=b, r=2.0, mse=0.5 / b, bn_times_mse=0.5,
                           degenerate_count=0, clamped_count=0, n_effective=10)
            for b in sizes
        ]
        with pytest.raises(ValueError, match="^variant '1' has valid rows at 2 grid sizes"):
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

    @pytest.mark.parametrize("variant", ["2", "1"])
    def test_rate_check_rejects_a_variant_the_config_does_not_run(self, study_model,
                                                                  monkeypatch, variant):
        def no_table(*args, **kwargs):
            raise AssertionError("the table ran")

        monkeypatch.setattr(harness, "run_mse_table", no_table)
        cfg = small_config(study_model, b_n=(16, 32, 64), variants=("w",))
        with pytest.raises(ValueError, match=rf"^the config runs no variant '{variant}', only "
                                             r"\['w'\]$"):
            harness.rate_check(cfg, variant)


class TestMseStderr:
    def test_matches_records(self, study_model):
        cfg = small_config(study_model, replications=7)
        records = harness.run_cell(cfg, 16, 3.0)
        live = [rec for rec in records if not rec.degenerate]
        for row in harness.aggregate_cell(records, cfg, 16, 3.0):
            sq = np.array([(rec.results[row.variant].xi - rec.true_xi) ** 2 for rec in live])
            assert row.mse_stderr == float(np.std(sq, ddof=1) / math.sqrt(len(sq)))
            assert row.mse_stderr > 0.0

    @pytest.mark.parametrize("r", [1.0, 0.0])  # b_n 4 clamps a v'Gv at r = 1; r = 0 masks rows
    def test_table_folds_the_records_of_run_cell(self, study_model, r):
        cfg = small_config(study_model, b_n=(4, 16), r=(r,), variants=harness.VARIANTS,
                           replications=24, seed=7)
        want = []
        for b_n in cfg.b_n:
            records = harness.run_cell(cfg, b_n, r)
            live = [rec for rec in records if not rec.degenerate]
            for v in cfg.variants:
                sq = np.array([(rec.results[v].xi - rec.true_xi) ** 2 for rec in live])
                want.append((v, b_n, float(np.sum(sq) / len(sq)).hex(), len(records) - len(live),
                             sum(rec.results[v].clamped for rec in live), len(live)))
        rows = harness.run_mse_table(cfg)
        assert [(row.variant, row.b_n, row.mse.hex(), row.degenerate_count, row.clamped_count,
                 row.n_effective) for row in rows] == want
        assert any(row.clamped_count for row in rows) == (r == 1.0)
        assert any(row.degenerate_count for row in rows) == (r == 0.0)

    def test_mse_squares_each_error_as_python_floats_do(self, study_model):
        # Python's float ** is libm's pow, numpy's ** 2 is x*x: they can differ in the last
        # bit, so the fold keeps the former; the xi below are those where they differ
        xis = 2.0 + np.random.default_rng(5).uniform(-2.0, 2.0, 200_000)
        errors = (xis - 2.0).tolist()
        picked = [k for k, e in enumerate(errors) if e * e != e ** 2][:50]
        cfg = small_config(study_model, variants=("1",), replications=1)
        ci = est.confidence_interval(0.5, 0.0, 16, 1.0)
        for k in picked + [0, 1, 2]:
            rec = harness.ReplicationRecord(  # a cell of one replication: its mse is its square
                index=0, b_n=16, r=3.0, degenerate=False, C=0.5, true_R=0.5, true_xi=2.0,
                results={"1": harness.VariantResult(xi=float(xis[k]), clamped=False, ci=ci)})
            (row,) = harness.aggregate_cell([rec], cfg, 16, 3.0)
            assert row.mse.hex() == (errors[k] ** 2).hex()

    def test_nan_below_two_replications(self, study_model):
        rows = harness.run_mse_table(small_config(study_model, replications=1))
        assert all(math.isnan(row.mse_stderr) for row in rows)
        assert all(math.isfinite(row.mse) for row in rows)

    def test_changes_neither_equality_nor_csv(self, study_model):
        rows = harness.run_mse_table(small_config(study_model, replications=3))
        moved = [dataclasses.replace(row, mse_stderr=-1.0) for row in rows]
        assert moved == rows
        assert io.mse_table_csv(moved) == io.mse_table_csv(rows)


def count_path_and_scales():
    """A count path of b_n = 4..40 intervals with increments up to 2**56, and
    finite positive a_n, delta_n and T spanning the float range."""
    scale = st.floats(1e-300, 1e300)
    increments = st.integers(4, 40).flatmap(
        lambda b_n: st.lists(st.integers(0, 2**56), min_size=2 * b_n, max_size=2 * b_n))
    return st.tuples(increments, scale, scale, scale)


@settings(max_examples=300, deadline=None)
@given(case=count_path_and_scales())
def test_estimate_counts_finite_or_degenerate(case):
    increments, a_n, delta_n, T = case
    inc = np.array(increments, dtype=np.int64).reshape(2, -1)
    y = np.concatenate([np.zeros((2, 1), dtype=np.int64), np.cumsum(inc, axis=1)], axis=1)
    counts = sim.CountPath(y1=y[0], y2=y[1])
    product = a_n * delta_n
    if not (product > 0.0 and 0.0 < 1.0 / product < math.inf):
        # the scale 1/(a_n delta_n) itself is out of range: a ValueError (exit 2)
        with pytest.raises(ValueError, match="no finite nonzero scale"):
            harness.estimate_counts(counts, a_n, delta_n, T, harness.VARIANTS, 0.95)
        return
    try:
        C, results = harness.estimate_counts(counts, a_n, delta_n, T, harness.VARIANTS, 0.95)
    except est.DegenerateDataError:
        return
    assert -1.0 <= C <= 1.0
    for res in results.values():
        assert math.isfinite(res.xi) and res.xi >= 0.0
        assert -1.0 <= res.ci.lo <= res.ci.hi <= 1.0


@pytest.mark.parametrize("name", ["a_n", "delta_n", "T"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_estimate_counts_rejects_non_finite_inputs(name, value):
    counts = sim.CountPath(y1=np.array([0, 3, 4, 9, 12, 20]), y2=np.array([0, 2, 2, 5, 9, 10]))
    kwargs = dict(a_n=100.0, delta_n=0.2, T=1.0, variants=harness.VARIANTS, level=0.95)
    kwargs[name] = value
    with pytest.raises((ValueError, est.DegenerateDataError)):
        harness.estimate_counts(counts, **kwargs)


def test_estimate_counts_rejects_a_repeated_variant_naming_it():
    counts = sim.CountPath(y1=np.array([0, 3, 4, 9, 12, 20]), y2=np.array([0, 2, 2, 5, 9, 10]))
    with pytest.raises(ValueError, match=r"^repeated variants: \['2'\]$"):
        harness.estimate_counts(counts, 100.0, 0.2, 1.0, ["2", "w", "2"], 0.95)


def _hexes(rec: harness.ReplicationRecord) -> list:
    xis = [float(res.xi).hex() for res in rec.results.values()]
    return [None if rec.C is None else float(rec.C).hex(), float(rec.true_xi).hex(), *xis]


@pytest.mark.parametrize("b_n", [16, 256])  # chunks of 8 and of 2 replications
@pytest.mark.parametrize("replications", [1, 3, 8, 11, 20])
def test_run_cell_equals_single_replications_in_reverse_order(study_model, replications, b_n):
    # run_cell computes the latent layer of consecutive replications together; one
    # replication asked for alone, from another chunk or none, must not differ in a bit
    cfg = small_config(study_model, b_n=(b_n,), variants=harness.VARIANTS,
                       replications=replications, seed=2026)
    other = dataclasses.replace(cfg, replications=7)
    cell = harness.run_cell(cfg, b_n, 3.0)
    alone = [harness.run_replication(other, b_n, 3.0, i) for i in reversed(range(replications))]
    alone.reverse()
    assert cell == alone
    assert [_hexes(rec) for rec in cell] == [_hexes(rec) for rec in alone]


def test_simulate_replication_gives_the_counts_of_the_chunk(study_model):
    cfg = small_config(study_model, replications=11)
    design, counts, _, _ = harness._latent_layer(cfg, 16, (3.0,), range(8, 11), [16.0 ** 3.0] * 3)
    for i, y1, y2 in zip(range(8, 11), counts.y1, counts.y2):
        alone_design, _, alone = harness.simulate_replication(cfg, 16, 3.0, i)
        assert alone_design == design
        assert y1.tobytes() == alone.y1.tobytes()
        assert y2.tobytes() == alone.y2.tobytes()


class _FixedNormals(np.random.Generator):
    """A generator whose standard normals are fixed per row; Poisson draws are real."""

    def __init__(self, rows):
        super().__init__(np.random.PCG64(0))
        self.rows = np.reshape(rows, (-1, 1))

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        out = np.empty(size) if out is None else out
        out[...] = self.rows
        return out


def test_errors_surface_in_index_order_within_a_chunk(study_model, monkeypatch):
    # a_n = 16**-150 keeps the Poisson means finite where X1 ~ 1e160 overflows the truth
    r = -150.0
    cfg = small_config(study_model, r=(r,), replications=8)
    before = harness.run_replication(cfg, 16, r, 3)
    real = sim.replication_rng
    rigged = {2: _FixedNormals([163.0, -160.0]),  # X1 ~ 1e160, X2 finite: the truth overflows
              5: _FixedNormals([1e6, 0.0])}  # X1 = inf: the simulation fails
    monkeypatch.setattr(sim, "replication_rng", lambda seed, b_n, r, i: rigged.get(i)
                        or real(seed, b_n, r, i))
    with pytest.raises(ValueError, match="Poisson means"):
        harness.run_replication(cfg, 16, r, 5)
    with pytest.raises(ValueError, match="path-wise targets U or gamma overflow"):
        harness.run_cell(cfg, 16, r)
    assert harness.run_replication(cfg, 16, r, 3) == before


def _record_hexes(C, results) -> list:
    ends = [[float(x).hex() for x in (res.xi, res.ci.lo, res.ci.hi, res.ci.lo_raw, res.ci.hi_raw)]
            for res in results.values()]
    return [None if C is None else float(C).hex(), ends]


@pytest.mark.parametrize("b_n, replications, degenerate", [
    # r = 0 (a_n = 1) leaves about half the count paths constant; seed 3 found by search
    (16, 11, "DD..D..DDD."),  # chunks of 8: both mix live and degenerate rows
    (256, 6, ".DD.DD"),  # chunks of 2: two mix, one is all degenerate
])
def test_chunks_mixing_live_and_degenerate_rows_equal_each_row_alone(
        study_model, b_n, replications, degenerate):
    cfg = small_config(study_model, b_n=(b_n,), r=(0.0,), variants=harness.VARIANTS,
                       replications=replications, seed=3)
    cell = harness.run_cell(cfg, b_n, 0.0)
    assert "".join("D" if rec.degenerate else "." for rec in cell) == degenerate
    alone_cfg = dataclasses.replace(cfg, replications=1)  # every index past 0 runs alone
    for rec in cell:
        alone = harness.run_replication(alone_cfg, b_n, 0.0, rec.index)
        assert alone == rec
        assert _hexes(alone) == _hexes(rec)
        design, _, counts = harness.simulate_replication(cfg, b_n, 0.0, rec.index)
        try:
            C, results = harness.estimate_counts(counts, design.a_n, design.delta_n, design.T,
                                                 harness.VARIANTS, cfg.ci_level)
        except est.DegenerateDataError:
            C, results = None, {}
        assert _record_hexes(C, results) == _record_hexes(rec.C, rec.results)


def test_chunk_caches_never_serve_a_stale_chunk(study_model):
    # one chunk of 6 replications, run back to back with settings that only the variants,
    # bandwidth overrides or CI level tell apart: each run equals a second run of its own
    base = small_config(study_model, b_n=(64,), variants=("1", "w"), replications=6)
    configs = [
        base,
        dataclasses.replace(base, variants=("w", "m")),
        dataclasses.replace(base, variants=("w", "m"), bandwidth_overrides={"w": 0.4}),
        dataclasses.replace(base, variants=("w", "m"), bandwidth_overrides={"w": 0.3}),
        dataclasses.replace(base, variants=("w", "m"), bandwidth_overrides={"w": 0.3},
                            ci_level=0.5),
        base,
    ]
    back_to_back = [harness.run_cell(cfg, 64, 3.0) for cfg in configs]
    for cfg, records in zip(configs, back_to_back):
        fresh = harness.run_cell(cfg, 64, 3.0)
        assert records == fresh
        assert [_record_hexes(r.C, r.results) for r in records] == [
            _record_hexes(r.C, r.results) for r in fresh]
    assert back_to_back[2] != back_to_back[3] != back_to_back[4]


def _chain(S, gammas, b_n, T, level):
    """The scalar reference chain estimate_correlation -> estimate_xi ->
    confidence_interval on one row: ``(C, {variant: VariantResult})`` or its message."""
    try:
        with np.errstate(all="ignore"):
            C = est.estimate_correlation(S)
            xis = {v: est.estimate_xi(S, G) for v, G in gammas.items()}
    except est.DegenerateDataError as exc:
        return str(exc)
    return C, {v: harness.VariantResult(xi=xi.xi, clamped=xi.clamped,
                                        ci=est.confidence_interval(C, xi, b_n, T, level))
               for v, xi in xis.items()}


def _tail_rows(S, gammas, b_n, T, level):
    """``(C, {variant: VariantResult})`` of each row of :func:`harness._estimate_tail`'s
    columns, as :func:`harness._records` builds them, or None where the mask is set."""
    C, raw, half, mask = harness._estimate_tail(S, gammas, b_n, T, level)
    assert C.shape == mask.shape == (raw.shape[1],) and raw.shape == half.shape
    return [None if dead else (c, {v: harness.VariantResult(
        xi=max(x, 0.0), clamped=x < 0.0, ci=est._interval(c, h, level))
        for v, x, h in zip(gammas, raws, halves)})
        for c, raws, halves, dead in zip(C.tolist(), raw.T.tolist(), half.T.tolist(),
                                         mask.tolist())]


def _assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got is None
    else:
        assert got == want
        assert _record_hexes(*got) == _record_hexes(*want)


def test_batched_tail_equals_the_scalar_chain_row_by_row(rng):
    sums = [(0.3, 1.0, 2.0),  # live
            (0.0, 0.0, 1.0),  # S11*S22 = 0
            (math.nan, 1.0, 1.0),  # C not finite
            (1.0, 1e120, 1.0),  # S11**3 overflows in the weights
            (0.5, math.inf, 1.0),  # C = 0, but the weights of a non-finite S are undefined
            (0.3, 1.0, 2.0),  # xi not finite (below)
            (0.0, 1.0, 1.0),  # v'Gv < 0 for variant 1 (below): clamped
            (2.0000000000000004, 2.0, 2.0),  # C rounds above 1 and is clipped
            (-0.7, 0.9, 1.3)]  # live
    R = len(sums)
    G = rng.standard_normal((5, R, 3, 3)) * np.exp(rng.uniform(-5.0, 5.0, (5, R, 1, 1)))
    G = G @ G.mT  # positive semidefinite, with CIs both inside and clipped to [-1, 1]
    G[2, 5, 0, 1] = G[2, 5, 1, 0] = math.inf
    G[0, 6] = np.diag([-0.2, 1.0, 1.0])
    S = est.CovEstimate(*np.array(sums).T)
    gammas = {v: est.GammaMatrix(values=G[k]) for k, v in enumerate(harness.VARIANTS)}
    rows = _tail_rows(S, gammas, 16, 2.0, 0.9)
    assert len(rows) == R
    for i, (s, got) in enumerate(zip(sums, rows)):
        want = _chain(est.CovEstimate(*s), {v: est.GammaMatrix(values=G[k, i])
                                            for k, v in enumerate(harness.VARIANTS)}, 16, 2.0, 0.9)
        _assert_same_outcome(got, want)
    assert "".join("D" if row is None else "." for row in rows) == ".DDDDD..."
    assert rows[6][1]["1"].clamped and rows[6][1]["1"].xi == 0.0
    assert rows[7][0] == 1.0


def _count_path(inc1, inc2):
    y = np.zeros((2, len(inc1) + 1), dtype=np.int64)
    y[:, 1:] = np.cumsum([inc1, inc2], axis=1)
    return sim.CountPath(y1=y[0], y2=y[1])


def test_one_row_tail_masks_each_reason_the_scalar_chain_fails():
    cases = [  # (counts, a_n, delta_n, T), one per degenerate reason, then live ones
        (_count_path([0] * 8, [3] * 8), 1.0, 0.125, 1.0),
        (_count_path([0, 2**56] * 4, [0, 2**56] * 4), 1e-300, 1.0, 1.0),  # S is NaN
        (_count_path([0, 2**50] * 4, [0, 1] * 4), 1e-36, 1.0, 1.0),  # S11 ~ 1e103
        (_count_path([0, 2**40] * 4, [0, 2**40] * 4), 1e-18, 1.0, 1e-200),  # Gamma overflows
        (_count_path([16, 20, 16, 18], [9, 13, 8, 10]), 5.0, 0.25, 1.0),  # variant 2 clamped
        (_count_path([5, 9, 2, 7, 4, 6], [3, 8, 2, 5, 6, 4]), 40.0, 1 / 6, 1.0),
    ]
    messages = []
    for counts, a_n, delta_n, T in cases:
        with np.errstate(all="ignore"):
            tilde = est.tilde_series(counts, a_n, delta_n)
            want = _chain(est.estimate_S(tilde), {v: harness.gamma_for_variant(tilde, T, v)
                                                  for v in harness.VARIANTS}, counts.b_n, T, 0.95)
        one_row = sim.CountPath(y1=counts.y1[None], y2=counts.y2[None])
        S, gammas = harness._estimate_arrays(one_row, [a_n], delta_n, T, harness.VARIANTS, None)
        (got,) = _tail_rows(S, gammas, counts.b_n, T, 0.95)
        _assert_same_outcome(got, want)
        messages.append(want if isinstance(want, str) else "live")
    assert [m.split(":")[0] for m in messages] == [
        "S11*S22 = 0", "correlation is not finite", "weight vector out of float range",
        "asymptotic variance is not finite", "live", "live"]
    assert harness.estimate_counts(*cases[4], harness.VARIANTS, 0.95)[1]["2"].clamped


@pytest.mark.parametrize("b_n, sub_chunks", [
    (256, [2, 2, 2, 2, 2, 1]),  # chunks of 8 and 3 replications, sub-chunks of 2
    (512, [1] * 11),
])
def test_chunks_of_several_fine_grid_sub_chunks_equal_each_row_alone(
        study_model, monkeypatch, b_n, sub_chunks):
    cfg = small_config(study_model, b_n=(b_n,), variants=harness.VARIANTS, replications=11,
                       seed=41)
    sizes = []
    real = sim.simulate_latent
    monkeypatch.setattr(sim, "simulate_latent",
                        lambda params, design, rng: sizes.append(len(rng)) or real(params, design, rng))
    cell = harness.run_cell(cfg, b_n, 3.0)
    assert sizes == sub_chunks
    alone_cfg = dataclasses.replace(cfg, replications=1)  # every index past 0 runs alone
    for rec in cell:
        alone = harness.run_replication(alone_cfg, b_n, 3.0, rec.index)
        assert alone == rec
        assert _hexes(alone) == _hexes(rec)
        assert _record_hexes(alone.C, alone.results) == _record_hexes(rec.C, rec.results)


def _every_output(cfg):
    """The table's repr at ``n_workers=1`` and every record of every cell, as ``float.hex``."""
    cells = [[(_hexes(rec), float(rec.true_R).hex(), _record_hexes(rec.C, rec.results))
              for rec in harness.run_cell(cfg, b_n, r)] for r in cfg.r for b_n in cfg.b_n]
    rows = harness.run_mse_table(cfg, n_workers=1)
    return rows, (repr(rows), cells)


@pytest.mark.parametrize("grid, count", [
    (dict(b_n=(16, 256, 1024), r=(3.5, 0.0), replications=9), "degenerate_count"),  # r = 0
    (dict(b_n=(4, 8), r=(1.0, 2.0), replications=24, seed=7), "clamped_count"),  # v'Gv < 0
], ids=["degenerate-rows", "clamped-rows"])
def test_the_sub_chunk_bound_changes_no_row(study_model, monkeypatch, grid, count):
    cfg = small_config(study_model, variants=harness.VARIANTS, **grid)
    rows, base = _every_output(cfg)
    assert any(getattr(row, count) for row in rows)
    for steps in (1, 2**30):  # one row per sub-chunk; one sub-chunk per chunk
        monkeypatch.setattr(harness, "SUB_CHUNK_STEPS", steps)
        assert _every_output(cfg)[1] == base, steps


def test_rows_per_sub_chunk_at_each_fine_grid_size(study_model, monkeypatch):
    sizes = []
    real = sim.simulate_latent
    monkeypatch.setattr(sim, "simulate_latent",
                        lambda params, design, rng: sizes.append(len(rng)) or real(params, design, rng))
    rows = {}
    for b_n in (16, 32, 64, 128, 256, 512, 1024):  # b_n * m = 128, 256, ..., 8192
        sizes.clear()  # a chunk of 8 indices x 4 r: 32 rows
        harness._column(small_config(study_model, b_n=(b_n,)), b_n, (2.0, 2.5, 3.0, 3.5), range(8))
        assert len(set(sizes)) == 1 and sum(sizes) == 32, sizes
        rows[b_n * 8] = sizes[0]
    assert rows == {128: 32, 256: 16, 512: 8, 1024: 4, 2048: 2, 4096: 1, 8192: 1}


@pytest.mark.parametrize("b_n, first_bad", [(256, 3), (512, 1)])  # in a chunk's 2nd sub-chunk
def test_errors_in_a_later_sub_chunk_surface_in_index_order(study_model, monkeypatch, b_n,
                                                            first_bad):
    r = -100.0  # a_n = b_n**-100 keeps the Poisson means finite where X1 ~ 1e160 overflows the truth
    cfg = small_config(study_model, b_n=(b_n,), r=(r,), replications=8)
    before = harness.run_replication(cfg, b_n, r, 0)
    real = sim.replication_rng
    k = math.sqrt(16 / b_n)  # the normals of test_errors_surface_in_index_order_within_a_chunk
    rigged = {first_bad: _FixedNormals([163.0 * k, -160.0 * k]),  # the truth overflows
              5: _FixedNormals([1e6, 0.0])}  # X1 = inf: the simulation fails
    monkeypatch.setattr(sim, "replication_rng", lambda seed, b_n, r, i: rigged.get(i)
                        or real(seed, b_n, r, i))
    with pytest.raises(ValueError, match="Poisson means"):
        harness.run_replication(cfg, b_n, r, 5)
    with pytest.raises(ValueError, match="path-wise targets U or gamma overflow"):
        harness.run_cell(cfg, b_n, r)
    assert harness.run_replication(cfg, b_n, r, 0) == before

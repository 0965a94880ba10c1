import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcorr import cli, estimators, harness, io, sim


def write_config(path: Path, **overrides) -> Path:
    doc = {
        "model": {"mu1": 0.2, "mu2": 0.3, "sigma1": 0.2, "sigma2": 0.3,
                  "rho": 0.7, "x1_0": 1.0, "x2_0": 2.0, "T": 1.0},
        "b_n": [8],
        "r": [3.0],
        "variants": ["1", "2", "w"],
        "replications": 3,
        "seed": 11,
        "refinement": 4,
    }
    doc.update(overrides)
    cfg = path / "config.json"
    cfg.write_text(json.dumps(doc))
    return cfg


class TestConfigFile:
    def test_roundtrip_identity(self, tmp_path):
        cfg = write_config(tmp_path, bandwidth_overrides={"w": 0.3}, out="table.csv")
        parsed = io.load_config(str(cfg))
        again = io.parse_config(io.serialize_config(parsed))
        assert again == parsed

    def test_unknown_key_rejected(self):
        with pytest.raises(io.ConfigError, match="bogus"):
            io.parse_config({"model": {}, "b_n": [8], "r": [3.0], "bogus": 1})

    def test_unknown_model_key_rejected(self):
        doc = {"model": {"mu1": 0, "mu2": 0, "sigma1": 0.1, "sigma2": 0.1, "rho": 0,
                         "x1_0": 1, "x2_0": 1, "volatility": 2},
               "b_n": [8], "r": [3.0]}
        with pytest.raises(io.ConfigError, match="volatility"):
            io.parse_config(doc)

    def test_missing_model_field_named(self):
        doc = {"model": {"mu1": 0, "mu2": 0, "sigma1": 0.1, "sigma2": 0.1, "rho": 0,
                         "x1_0": 1}, "b_n": [8], "r": [3.0]}
        with pytest.raises(io.ConfigError, match="x2_0"):
            io.parse_config(doc)

    def test_type_errors_named(self):
        doc = {"model": {"mu1": "fast", "mu2": 0, "sigma1": 0.1, "sigma2": 0.1,
                         "rho": 0, "x1_0": 1, "x2_0": 1},
               "b_n": [8], "r": [3.0]}
        with pytest.raises(io.ConfigError, match="mu1"):
            io.parse_config(doc)


class TestCountSeriesFile:
    def test_write_read_roundtrip(self, tmp_path):
        counts = sim.CountPath(y1=np.array([0, 2, 5, 5]), y2=np.array([0, 1, 1, 9]))
        p = tmp_path / "counts.csv"
        io.write_count_series(str(p), counts, delta_n=0.25)
        back, delta, T = io.read_count_series(str(p))
        assert np.array_equal(back.y1, counts.y1)
        assert np.array_equal(back.y2, counts.y2)
        assert delta == 0.25
        assert T == 0.75
        assert p.read_text().endswith("\n")

    def test_rejects_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,a,b\n0,0,0\n1,1,1\n")
        with pytest.raises(io.CountSeriesError, match="header"):
            io.read_count_series(str(p))

    def test_rejects_non_equidistant(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,y1,y2\n0.0,0,0\n0.5,1,1\n1.2,2,2\n")
        with pytest.raises(io.CountSeriesError, match="equidistant"):
            io.read_count_series(str(p))

    def test_rejects_decreasing_counts(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,y1,y2\n0.0,0,0\n0.5,3,1\n1.0,2,2\n")
        with pytest.raises(io.CountSeriesError, match="nondecreasing"):
            io.read_count_series(str(p))


class TestSimulateCommand:
    def test_row_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "counts.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,y1,y2"
        assert len(lines) == 1 + 8 + 1  # header + b_n + 1 rows

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["simulate", "--config", str(cfg), "--out", str(out1)])
        cli.main(["simulate", "--config", str(cfg), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["simulate", "--config", str(cfg), "--out", str(out1)])
        cli.main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "999"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_negative_sigma_exit2_names_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model={"mu1": 0.2, "mu2": 0.3, "sigma1": -0.2,
                                            "sigma2": 0.3, "rho": 0.7, "x1_0": 1.0,
                                            "x2_0": 2.0, "T": 1.0})
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "sigma1" in capsys.readouterr().err

    def test_multi_cell_config_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, b_n=[8, 16])
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "b_n" in capsys.readouterr().err

    def test_latent_out(self, tmp_path):
        cfg = write_config(tmp_path)
        out, lat = tmp_path / "c.csv", tmp_path / "latent.csv"
        cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                  "--latent-out", str(lat)])
        lines = lat.read_text().splitlines()
        assert lines[0] == "s,x1,x2"
        assert len(lines) == 1 + 8 * 4 + 1


class TestEstimateCommand:
    def make_counts(self, tmp_path, b_n=64, r=3.0, seed=11):
        cfg = write_config(tmp_path, b_n=[b_n], r=[r], seed=seed)
        out = tmp_path / "counts.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        return out, float(b_n) ** r

    def test_roundtrip_matches_in_process(self, tmp_path, capsys):
        out, a_n = self.make_counts(tmp_path)
        capsys.readouterr()  # drop the simulate confirmation line
        code = cli.main(["estimate", "--counts", str(out), "--a-n", str(a_n),
                         "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header, rows = lines[0], lines[1:]
        assert header.startswith("variant,C,xi,")
        # reproduce in-process
        counts, delta, T = io.read_count_series(str(out))
        tilde = estimators.tilde_series(counts, a_n, delta)
        S = estimators.estimate_S(tilde)
        C = estimators.estimate_correlation(S)
        for row in rows:
            fields = row.split(",")
            variant = fields[0]
            G = harness.gamma_for_variant(tilde, T, variant)
            xi = estimators.estimate_xi(S, G)
            assert float(fields[1]) == C
            assert float(fields[2]) == xi.xi

    def test_variant_w_level_line(self, tmp_path, capsys):
        out, a_n = self.make_counts(tmp_path)
        code = cli.main(["estimate", "--counts", str(out), "--a-n", str(a_n),
                         "--variant", "w", "--level", "0.95"])
        assert code == 0
        outtext = capsys.readouterr().out
        ci_lines = [l for l in outtext.splitlines() if l.startswith("variant ")]
        assert len(ci_lines) == 1
        assert ci_lines[0].startswith("variant w:")
        assert "95% CI" in ci_lines[0]
        # the reported xi uses h = T * b_n^(-1/4)
        counts, delta, T = io.read_count_series(str(out))
        tilde = estimators.tilde_series(counts, a_n, delta)
        S = estimators.estimate_S(tilde)
        G = estimators.gamma_kernel(tilde, T, estimators.BandwidthSpec.from_exponent(0.25))
        xi = estimators.estimate_xi(S, G)
        assert f"xi = {xi.xi:.6f}" in ci_lines[0]

    def test_constant_increments_exit3(self, tmp_path, capsys):
        p = tmp_path / "flat.csv"
        rows = ["t,y1,y2"] + [f"{0.125 * j},{2 * j},{3 * j}" for j in range(9)]
        p.write_text("\n".join(rows) + "\n")
        code = cli.main(["estimate", "--counts", str(p), "--a-n", "10"])
        assert code == 3
        assert "degenerate" in capsys.readouterr().err

    def test_missing_file_exit1(self, tmp_path, capsys):
        code = cli.main(["estimate", "--counts", str(tmp_path / "nope.csv"), "--a-n", "1"])
        assert code == 1


class TestMseTableCommand:
    def test_full_grid_row_count(self, tmp_path):
        cfg = write_config(tmp_path, b_n=[2**k for k in range(4, 11)],
                           variants=["1", "2", "w", "m", "n"],
                           r=[2.0], replications=1)
        out = tmp_path / "table.csv"
        assert cli.main(["mse-table", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "variant,b_n,r,mse,bn_times_mse,degenerate_count,clamped_count,N"
        assert len(lines) == 1 + 5 * 7

    def test_csv_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path, b_n=[16, 32], replications=4)
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        cli.main(["mse-table", "--config", str(cfg), "--out", str(out1)])
        cli.main(["mse-table", "--config", str(cfg), "--out", str(out2), "--threads", "4"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_markdown_layout(self, tmp_path):
        cfg = write_config(tmp_path, b_n=[32, 16], replications=2, variants=["1", "2"])
        out = tmp_path / "table.md"
        assert cli.main(["mse-table", "--config", str(cfg), "--out", str(out),
                         "--format", "md"]) == 0
        text = out.read_text()
        assert "| $*$ | $b_n = 2^4$ | $b_n = 2^5$ |" in text  # ascending columns
        assert "\n| 1 | " in text and "\n| 2 | " in text
        assert text.endswith("\n")

    def test_csv_parses_back(self, tmp_path):
        cfg = write_config(tmp_path, b_n=[16], replications=3)
        out = tmp_path / "t.csv"
        cli.main(["mse-table", "--config", str(cfg), "--out", str(out)])
        lines = out.read_text().splitlines()[1:]
        exp = io.load_config(str(cfg)).experiment
        rows = harness.run_mse_table(exp)
        for line, row in zip(lines, rows):
            fields = line.split(",")
            assert fields[0] == row.variant
            assert int(fields[1]) == row.b_n
            assert float(fields[3]) == row.mse  # repr round-trips exactly


class TestRateCheckCommand:
    def test_prints_slope(self, tmp_path, capsys):
        cfg = write_config(tmp_path, b_n=[16, 32, 64], r=[3.0], replications=5,
                           variants=["1"])
        assert cli.main(["rate-check", "--config", str(cfg), "--variant", "1"]) == 0
        assert "slope" in capsys.readouterr().out

    def test_multi_r_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, b_n=[16, 32, 64], r=[2.0, 3.0], replications=2)
        assert cli.main(["rate-check", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("b_n", [[16, 16, 16], [16, 32, 16]], ids=["one-size", "two-sizes"])
    def test_fewer_than_3_distinct_grid_sizes_rejected(self, tmp_path, capsys, b_n):
        # each used to fit a slope through 1 or 2 sizes, with numpy's RankWarning, and exit 0
        cfg = write_config(tmp_path, b_n=b_n, replications=2)
        assert cli.main(["rate-check", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rate_check needs at least 3 distinct grid sizes\n"


class TestBoundaryRejections:
    def write_counts(self, tmp_path, times) -> Path:
        p = tmp_path / "counts.csv"
        rows = ["t,y1,y2"] + [f"{t},{j * (j + 1)},{3 * j + j % 2}" for j, t in enumerate(times)]
        p.write_text("\n".join(rows) + "\n")
        return p

    @pytest.mark.parametrize("a_n", ["nan", "inf", "-inf"])
    def test_estimate_non_finite_a_n_exit2(self, tmp_path, capsys, a_n):
        p = self.write_counts(tmp_path, [0.125 * j for j in range(9)])
        assert cli.main(["estimate", "--counts", str(p), f"--a-n={a_n}"]) == 2
        captured = capsys.readouterr()
        assert "--a-n" in captured.err
        assert captured.out == ""

    def test_nan_time_stamp_rejected(self, tmp_path, capsys):
        times = [repr(0.125 * j) for j in range(9)]
        times[4] = "nan"
        p = self.write_counts(tmp_path, times)
        with pytest.raises(io.CountSeriesError, match="finite"):
            io.read_count_series(str(p))
        assert cli.main(["estimate", "--counts", str(p), "--a-n", "100", "--variant", "1"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["mse-table", "rate-check"])
    def test_negative_threads_exit2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, b_n=[16, 32, 64], replications=1)
        assert cli.main([command, "--config", str(cfg), "--threads", "-1"]) == 2
        assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model_patch, overrides, argv, key",
    [
        ({"T": math.nan}, {}, ["mse-table"], "T must be finite"),
        ({"mu1": math.inf}, {}, ["mse-table"], "mu1"),
        ({}, {"bandwidth_overrides": {"w": -1}}, ["mse-table"], "bandwidth_overrides.w"),
        ({}, {"bandwidth_overrides": {"w": math.nan}}, ["mse-table"], "bandwidth_overrides.w"),
        ({}, {"seed": -1}, ["mse-table"], "seed"),
        ({}, {}, ["mse-table", "--seed", "-1"], "seed"),
        ({}, {}, ["simulate", "--seed", "-1"], "seed"),
        ({}, {}, ["simulate", "--replication", "-1"], "--replication"),
        ({}, {"r": [400]}, ["mse-table"], "r=400"),
        ({}, {"r": [math.nan]}, ["rate-check"], "r=nan"),
    ],
    ids=["T-nan", "mu1-inf", "bandwidth-negative", "bandwidth-nan", "seed-negative",
         "seed-flag-negative", "simulate-seed-flag-negative", "replication-negative",
         "r-overflow", "r-nan"],
)
def test_invalid_config_exits_2_naming_the_key(tmp_path, capsys, model_patch, overrides,
                                               argv, key):
    model = json.loads(write_config(tmp_path).read_text())["model"]
    cfg = write_config(tmp_path, model={**model, **model_patch}, **overrides)
    out = tmp_path / "out.csv"
    extra = ["--out", str(out)] if argv[0] != "rate-check" else []
    assert cli.main([argv[0], "--config", str(cfg), *extra, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert key in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["mse-table", "rate-check"])
@pytest.mark.parametrize("rs", [[3.0, 3.0004], [3.0, 3.0]])
def test_two_r_of_one_substream_exit_2_naming_both(tmp_path, capsys, command, rs):
    # they once ran as two cells on the same latent paths and truth
    cfg = write_config(tmp_path, b_n=[8, 16, 32], r=rs)
    out = tmp_path / "out.csv"
    extra = ["--out", str(out)] if command != "rate-check" else []
    assert cli.main([command, "--config", str(cfg), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (f"error: r={rs[0]} and r={rs[1]} share one substream key "
                            "(round(1000*r)), so their cells would share every draw\n")


WRONG_TYPED = {
    "model": 1, "b_n": "8", "r": "3.0", "variants": "w", "replications": "3", "seed": 1.5,
    "refinement": "4", "ci_level": "0.9", "bandwidth_overrides": [0.3], "out": 1,
    "format": 1, "latent_out": 1,
    **{f"model.{k}": "1.0" for k in ("mu1", "mu2", "sigma1", "sigma2", "rho", "x1_0", "x2_0", "T")},
    **{f"bandwidth_overrides.{v}": "0.3" for v in ("w", "m", "n")},
}


@pytest.mark.parametrize("key", list(WRONG_TYPED))
def test_wrong_typed_key_exits_2_naming_the_key(tmp_path, capsys, key):
    doc = json.loads(write_config(tmp_path).read_text())
    section, _, name = key.rpartition(".")
    if section:
        doc[section] = {**doc.get(section, {}), name: WRONG_TYPED[key]}
    else:
        doc[key] = WRONG_TYPED[key]
    cfg = write_config(tmp_path, **doc)
    out = tmp_path / "out.csv"
    assert cli.main(["mse-table", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"key '{key}' must be " in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_config_setting_every_key_round_trips(tmp_path):
    doc = {
        "model": {"mu1": 0.2, "mu2": -0.1, "sigma1": 0.25, "sigma2": 0.3, "rho": -0.4,
                  "x1_0": 1.5, "x2_0": 2.0, "T": 2.0},
        "b_n": [16, 32], "r": [2.5, 3.0], "variants": ["n", "1", "w"], "replications": 7,
        "seed": 5, "refinement": 3, "ci_level": 0.9,
        "bandwidth_overrides": {"w": 0.3, "m": 0.45, "n": 0.6},
        "out": "table.md", "format": "md", "latent_out": "latent.csv",
    }
    cf = io.parse_config(doc)
    assert (cf.out, cf.format, cf.latent_out) == ("table.md", "md", "latent.csv")
    assert cf.experiment.ci_level == 0.9 and cf.experiment.model.T == 2.0
    assert io.serialize_config(cf) == doc
    assert io.parse_config(json.loads(json.dumps(io.serialize_config(cf)))) == cf


@pytest.mark.parametrize(
    "model_patch, command, message, draws",
    [
        ({"sigma1": 1e200}, "simulate", "model.sigma1 = 1e+200", False),
        ({"sigma1": 1e200}, "mse-table", "model.sigma1 = 1e+200", False),
        ({"sigma2": 2e154}, "rate-check", "model.sigma2 = 2e+154", False),
        ({"mu1": 1e300}, "simulate", "Poisson means must be finite", True),
        ({"mu1": 1e300}, "mse-table", "Poisson means must be finite", True),
        ({"x2_0": 1e308}, "rate-check", "Poisson means must be finite", True),
    ],
    ids=["sigma-simulate", "sigma-mse-table", "sigma-rate-check", "mu-simulate",
         "mu-mse-table", "x0-rate-check"],
)
def test_overflowing_model_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                      model_patch, command, message, draws):
    """A model whose sigma**2 overflows is rejected with its key before any
    replication draws; one whose path overflows fails at its first draw."""
    rngs, replication_rng = [], sim.replication_rng

    def spy(*args):
        rngs.append(args)
        return replication_rng(*args)

    monkeypatch.setattr(sim, "replication_rng", spy)
    model = json.loads(write_config(tmp_path).read_text())["model"]
    b_n = [8, 16, 32] if command == "rate-check" else [8]
    cfg = write_config(tmp_path, model={**model, **model_patch}, b_n=b_n)
    out = tmp_path / "out.csv"
    extra = ["--out", str(out)] if command != "rate-check" else []
    assert cli.main([command, "--config", str(cfg), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()
    assert bool(rngs) == draws


@pytest.mark.parametrize("command", ["mse-table", "simulate"])
def test_overflowing_cumulative_counts_exit_2_with_one_error_line(tmp_path, capsys, command):
    """Each interval's Poisson mean (about 6.4e18) fits int64, but their total
    (about 5e19) does not: the model is rejected, not the counts it wraps to."""
    model = json.loads(write_config(tmp_path).read_text())["model"]
    cfg = write_config(tmp_path, model={**model, "x1_0": 1e17})
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "64-bit" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_cli_simulate_then_estimate_matches_run_replication(tmp_path, capsys):
    """``simulate`` then ``estimate`` reproduces the harness's replication;
    only the count file's times, which re-derive delta_n, separate the two."""
    b_n, r = 64, 3.0
    cfg = write_config(tmp_path, b_n=[b_n], r=[r], variants=list(harness.VARIANTS))
    exp = io.load_config(str(cfg)).experiment
    for index in (0, 3):
        out = tmp_path / f"counts{index}.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--replication", str(index)]) == 0
        capsys.readouterr()
        assert cli.main(["estimate", "--counts", str(out), "--a-n", repr(float(b_n) ** r),
                         "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        rec = harness.run_replication(exp, b_n, r, index)
        assert [line.split(",")[0] for line in lines] == list(harness.VARIANTS)
        for line in lines:
            variant, C, xi, _, lo, hi = line.split(",")[:6]
            res = rec.results[variant]
            assert float(C) == pytest.approx(rec.C, rel=1e-12)
            assert float(xi) == pytest.approx(res.xi, rel=1e-12)
            assert float(lo) == pytest.approx(res.ci.lo, rel=1e-12)
            assert float(hi) == pytest.approx(res.ci.hi, rel=1e-12)


def cumulative_counts(n):
    return st.lists(st.integers(0, 2**62), min_size=n - 1, max_size=n - 1).map(
        lambda xs: [0, *sorted(xs)])


@settings(max_examples=60, deadline=None)
@given(ys=st.integers(2, 40).flatmap(lambda n: st.tuples(cumulative_counts(n),
                                                          cumulative_counts(n))),
       delta_n=st.floats(1e-6, 1e3))
def test_count_series_roundtrip_bit_exact(tmp_path_factory, ys, delta_n):
    counts = sim.CountPath(y1=np.array(ys[0], dtype=np.int64), y2=np.array(ys[1], dtype=np.int64))
    path = tmp_path_factory.mktemp("roundtrip") / "counts.csv"
    io.write_count_series(str(path), counts, delta_n)
    back, delta, T = io.read_count_series(str(path))
    assert np.array_equal(back.y1, counts.y1) and np.array_equal(back.y2, counts.y2)
    assert back.y1.dtype == back.y2.dtype == np.int64
    b_n = counts.b_n
    expected = b_n * delta_n / b_n  # the reader's (t[b_n] - t[0]) / b_n with t[0] = 0
    assert delta.hex() == expected.hex()
    assert T.hex() == (b_n * expected).hex()


@pytest.mark.parametrize(
    "body",
    ["0,0,0\n0.5,1\n", "0,0,0\n0.5,1,1,1\n", "0,0,0\n0.5,1,1,\n", "0,0,0\n0.5,,1\n",
     "0,0,0\n0.5,3.0,1\n", "0,0,0\n# comment\n0.5,1,1\n", "0,0,0\n   \n0.5,1,1\n", ""],
    ids=["2-fields", "4-fields", "trailing-comma", "empty-field", "float-count", "hash-line",
         "whitespace-line", "header-only"],
)
def test_malformed_body_rejected_without_warning(tmp_path, capsys, body):
    p = tmp_path / "counts.csv"
    p.write_text("t,y1,y2\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(io.CountSeriesError):
            io.read_count_series(str(p))
        assert cli.main(["estimate", "--counts", str(p), "--a-n", "1"]) == 2
    captured = capsys.readouterr()
    assert "bad counts file" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "command, make_input, code",
    [
        ("estimate", lambda d: d.write_text("t,y1,y2\n0,0,0\n0.5,1,9223372036854775808\n"), 2),
        ("estimate", lambda d: d.write_bytes(b"t,y\xff1,y2\n0,0,0\n0.5,1,1\n"), 2),
        # past the first read buffer, so numpy's reader meets the bad byte
        ("estimate", lambda d: d.write_bytes(b"t,y1,y2\n" + b"".join(
            b"%d,%d,%d\n" % (j, j, j) for j in range(2000)) + b"2000,\xff,2000\n"), 2),
        ("estimate", lambda d: d.mkdir(), 1),
        ("simulate", lambda d: d.mkdir(), 1),
        ("mse-table", lambda d: d.mkdir(), 1),
        ("rate-check", lambda d: d.mkdir(), 1),
    ],
    ids=["count-above-int64", "non-utf8-header", "non-utf8-body", "counts-directory",
         "simulate-config-directory", "mse-table-config-directory",
         "rate-check-config-directory"],
)
def test_unreadable_input_exits_without_traceback(tmp_path, command, make_input, code):
    target = tmp_path / "input"
    make_input(target)
    if command == "estimate":
        argv = ["estimate", "--counts", str(target), "--a-n", "1"]
    else:
        argv = [command, "--config", str(target), *(["--out", str(tmp_path / "out.csv")]
                                                    if command != "rate-check" else [])]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "latcorr.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert ("bad counts file" if code == 2 else "cannot read") in proc.stderr


@pytest.mark.parametrize(
    "flag, value, message",
    [("--a-n", "nan", "--a-n must be positive and finite, got nan"),
     ("--a-n", "-1", "--a-n must be positive and finite, got -1.0"),
     ("--level", "1.5", "--level must lie strictly between 0 and 1, got 1.5")],
)
def test_estimate_checks_arguments_before_reading_counts(tmp_path, capsys, flag, value,
                                                         message):
    # the counts file does not exist: a bad argument is reported first, with exit 2
    argv = ["estimate", "--counts", str(tmp_path / "missing.csv"), "--a-n", "1", flag, value]
    assert cli.main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err


_COUNTS = sim.CountPath(y1=np.arange(17), y2=2 * np.arange(17))
_TILDE = estimators.tilde_series(_COUNTS, 10.0, 1 / 16)


def _model_key(tmp_path, key, value):
    model = json.loads(write_config(tmp_path).read_text())["model"]
    io.load_config(str(write_config(tmp_path, model={**model, key: value})))


#: Every argument that sim._positive_finite or sim._open_unit checks, as (site, name the message
#: starts with, rule, call with the value): "model." names a key of a config file, "--" a flag.
_CHECKED = [
    *[(f"config-{key}", f"model.{key}", "positive", lambda v, d, key=key: _model_key(d, key, v))
      for key in ("x1_0", "x2_0", "T")],
    ("design-a_n", "a_n", "positive", lambda v, d: sim.SamplingDesign(b_n=8, a_n=v)),
    ("design-T", "T", "positive", lambda v, d: sim.SamplingDesign(b_n=8, a_n=10.0, T=v)),
    ("validate_regime-a_n", "a_n", "positive", lambda v, d: sim.validate_regime(16, v)),
    ("tilde-a_n", "a_n", "positive", lambda v, d: estimators.tilde_series(_COUNTS, v, 1 / 16)),
    ("tilde-delta_n", "delta_n", "positive",
     lambda v, d: estimators.tilde_series(_COUNTS, 10.0, v)),
    ("gamma_v1-T", "T", "positive", lambda v, d: estimators.gamma_v1(_TILDE, v)),
    ("gamma_v2-T", "T", "positive", lambda v, d: estimators.gamma_v2(_TILDE, v)),
    ("gamma_kernel-T", "T", "positive", lambda v, d: estimators.gamma_kernel(
        _TILDE, v, estimators.BandwidthSpec.from_exponent(0.5))),
    ("interval-T", "T", "positive", lambda v, d: estimators.confidence_interval(0.5, 0.1, 16, v)),
    ("estimate_counts-T", "T", "positive",
     lambda v, d: harness.estimate_counts(_COUNTS, 10.0, 1 / 16, v, ["1"], 0.95)),
    ("estimate-a_n", "--a-n", "positive",
     lambda v, d: cli.main(["estimate", "--counts", str(d / "missing.csv"), "--a-n", repr(v)])),
    ("config-ci_level", "ci_level", "unit",
     lambda v, d: io.load_config(str(write_config(d, ci_level=v)))),
    ("interval-level", "level", "unit",
     lambda v, d: estimators.confidence_interval(0.5, 0.1, 16, 1.0, v)),
    ("estimate_counts-level", "level", "unit",
     lambda v, d: harness.estimate_counts(_COUNTS, 10.0, 1 / 16, 1.0, ["1"], v)),
    ("estimate-level", "--level", "unit", lambda v, d: cli.main(
        ["estimate", "--counts", str(d / "missing.csv"), "--a-n", "1", "--level", repr(v)])),
]
_RULES = {"positive": (" must be positive and finite", [math.nan, math.inf, 0.0, -1.0]),
          "unit": (" must lie strictly between 0 and 1", [0.0, 1.0, math.nan])}


@pytest.mark.parametrize("site, name, rule, call, value", [
    pytest.param(site, name, rule, call, value, id=f"{site}-{value}")
    for site, name, rule, call in _CHECKED
    # a non-finite model value meets the finite rule that all of ModelParams' fields share first
    for value in (_RULES[rule][1] if not name.startswith("model.") else [0.0, -1.0])])
def test_each_rule_has_one_wording_at_every_site(tmp_path, capsys, site, name, rule, call,
                                                 value):
    message = f"{name}{_RULES[rule][0]}, got {value!r}"
    if name.startswith("--"):  # before the counts file is read: one error line, exit 2
        assert call(value, tmp_path) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        return
    with pytest.raises(io.ConfigError if site.startswith("config-") else ValueError) as info:
        call(value, tmp_path)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "body, message",
    [("0,0,0\n0.5,3.0,1\n1.0,2,2\n", "line 3: expected a time and two int64 counts, "
                                     "got '0.5,3.0,1'"),
     ("0,0,0\n0.5,1\n1.0,2,2\n", "line 3: expected a time and two int64 counts, got '0.5,1'"),
     ("0,0,0\n\n0.5,1,1\n1_0,2,2\n", "line 5: expected a time and two int64 counts, got '1_0,2,2'"),
     ("0,0,0\n0.5,1,9223372036854775808\n", "line 3: expected a time and two int64 counts"),
     ("0,0,0\n   \n0.5,1,1\n", "line 3: expected a time and two int64 counts, got ''")],
    ids=["float-count", "2-fields", "after-blank-line", "count-above-int64", "whitespace-line"],
)
def test_malformed_row_error_names_the_file_line(tmp_path, capsys, body, message):
    p = tmp_path / "counts.csv"
    p.write_text("t,y1,y2\n" + body)
    with pytest.raises(io.CountSeriesError) as info:
        io.read_count_series(str(p))
    assert str(info.value).startswith(message)
    assert cli.main(["estimate", "--counts", str(p), "--a-n", "1"]) == 2
    assert f"error: bad counts file: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("bad_line", [1, 3, 2003])
def test_non_utf8_error_names_the_file_line(tmp_path, bad_line):
    lines = [b"t,y1,y2"] + [b"%d,%d,%d" % (j, j, j) for j in range(2003)]
    lines[bad_line - 1] = lines[bad_line - 1].replace(b",", b",\xff", 1)
    p = tmp_path / "counts.csv"
    p.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(io.CountSeriesError, match=f"^line {bad_line}: not UTF-8 text$"):
        io.read_count_series(str(p))


def test_parser_reused_across_calls_gives_fresh_process_output(tmp_path, capsys):
    # one process: an argparse error, then one variant, then the default of all five
    config = harness.ExperimentConfig(model=sim.ModelParams(
        mu1=0.2, mu2=0.3, sigma1=0.2, sigma2=0.3, rho=0.7, x1_0=1.0, x2_0=2.0, T=1.0),
        b_n=(64,), r=(3.0,), seed=5)
    design, _, counts = harness.simulate_replication(config, 64, 3.0, 0)
    path = tmp_path / "counts.csv"
    io.write_count_series(str(path), counts, design.delta_n)
    base = ["estimate", "--counts", str(path), "--a-n", repr(design.a_n), "--format", "csv"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for argv in (base + ["--variant", "x"], base + ["--variant", "1"], base):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "latcorr.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
    assert code == 0 and [line.split(",")[0] for line in out.splitlines()[1:]] == \
        list(harness.VARIANTS)
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("command", ["mse-table", "rate-check"])
def test_overflowing_truth_exits_2_with_one_error_line(tmp_path, command):
    # sigma1**2 is a finite float, but the path-wise gamma's products are not
    model = json.loads(write_config(tmp_path).read_text())["model"]
    cfg = write_config(tmp_path, model={**model, "sigma1": 1.3e154}, b_n=[8, 16, 32])
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "latcorr.cli", command, "--config", str(cfg)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: path-wise targets U or gamma overflow a float\n"


@pytest.mark.parametrize("command", ["mse-table", "rate-check"])
@pytest.mark.parametrize("sigma1", [1e60, 1e-120])
def test_truth_weights_out_of_range_exit_2_with_one_error_line(tmp_path, command, sigma1):
    # U and gamma are finite, but U11**3 in xi's weights overflows (1e60) or underflows
    # to a zero divisor (1e-120): a fault of the model's truth, not of the count data
    model = json.loads(write_config(tmp_path).read_text())["model"]
    cfg = write_config(tmp_path, model={**model, "sigma1": sigma1}, b_n=[8, 16, 32])
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "latcorr.cli", command, "--config", str(cfg)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: path-wise xi: weight vector out of float range: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


def _handle_reader(path):
    """``io.read_count_series`` as it was when numpy got the open text handle,
    which it iterates line by line; the path form must agree with it."""
    with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            line = fh.readline()
        except UnicodeDecodeError as exc:
            raise io.CountSeriesError(io._first_bad_line(path) or str(exc)) from exc
        if not line:
            raise io.CountSeriesError("empty file")
        header = next(csv.reader([line]))
        if [h.strip() for h in header] != ["t", "y1", "y2"]:
            raise io.CountSeriesError(f"expected header 't,y1,y2', got {','.join(header)!r}")
        try:
            rows = np.loadtxt(fh, delimiter=",", dtype=[("t", "f8"), ("y1", "i8"), ("y2", "i8")],
                              comments=None, quotechar='"', ndmin=1)
        except ValueError as exc:
            raise io.CountSeriesError(io._first_bad_line(path) or str(exc)) from exc

    if len(rows) < 2:
        raise io.CountSeriesError("need at least two observation rows")
    times = rows["t"]
    if not np.all(np.isfinite(times)):
        raise io.CountSeriesError("observation times must be finite")
    steps = np.diff(times)
    if np.any(steps <= 0):
        raise io.CountSeriesError("observation times must be strictly increasing")
    b_n = len(times) - 1
    delta = (times[-1] - times[0]) / b_n
    deviation = np.abs(np.subtract(steps, delta, out=steps), out=steps)
    if np.max(deviation) > io.EQUIDISTANCE_RTOL * delta:
        raise io.CountSeriesError("observation times must be equidistant (rel. tol. 1e-9)")
    try:
        counts = sim.CountPath(y1=rows["y1"], y2=rows["y2"])
    except ValueError as exc:
        raise io.CountSeriesError(str(exc)) from exc
    return counts, float(delta), float(b_n * delta)


def _outcome(reader, path):
    """Arrays and floats by their bits, or the exception's type and message."""
    try:
        counts, delta, T = reader(str(path))
    except Exception as exc:  # whatever the exception, both readers must raise it alike
        return type(exc), str(exc)
    return (counts.y1.dtype, counts.y1.tobytes(), counts.y2.dtype, counts.y2.tobytes(),
            delta.hex(), T.hex())


@st.composite
def count_file_bytes(draw):
    """Count files that are mostly well formed, with the irregular line ends,
    quoting, blank lines, bad fields and bytes a hand-edited file may have."""
    n = draw(st.one_of(st.integers(0, 30), st.just(700)))  # 700 rows pass one read buffer
    step = draw(st.sampled_from([0.5, 0.1, 1 / 3, 1e-3, 7.0]))
    top = draw(st.sampled_from([2, 50, 2**40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ys = np.vstack([np.zeros((1, 2), dtype=np.int64),
                    np.cumsum(rng.integers(0, top, (max(n - 1, 0), 2)), axis=0)])
    rows = [[repr(j * step), str(ys[j, 0]), str(ys[j, 1])] for j in range(n)]
    for _ in range(draw(st.integers(0, 4)) if rows else 0):  # still valid
        row, col = draw(st.integers(0, n - 1)), draw(st.integers(0, 2))
        rows[row][col] = draw(st.sampled_from(['"{}"', " {} ", "\t{}"])).format(rows[row][col])
    fields = st.sampled_from(["", " 7 ", '"3"', "3.0", "1_0", "nan", "inf", "-1", "1e3", "0x1",
                              "9223372036854775808", '"1\n2"', "#", '"'])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if rows else 0):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, 2))] = draw(fields)
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 1, 3]))):
        extra = draw(st.sampled_from(["", "", "   ", "\t", "#c", "1,2", "1,2,3,4", "0.5,1,1"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    header = draw(st.sampled_from(["t,y1,y2"] * 4 + [" t , y1 ,y2", 't,y1,"y2', '"t","y1","y2"',
                                                     "\ufefft,y1,y2", "t,y1", "t;y1;y2"]))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in [header, *lines])
    if not draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=150, deadline=None)
@given(data=count_file_bytes())
def test_path_reader_equals_handle_reader(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("equivalence") / "counts.csv"
    path.write_bytes(data)
    assert _outcome(io.read_count_series, path) == _outcome(_handle_reader, path)


_ROWS = "0,0,0\n0.5,1,2\n1.0,3,3\n1.5,4,7\n"


@pytest.mark.parametrize(
    "data",
    [("t,y1,y2\n" + _ROWS).replace("\n", "\r\n").encode(),
     ("t,y1,y2\n" + _ROWS).replace("\n", "\r").encode(),
     ('t,y1,"y2\n' + _ROWS).encode(),
     ("t,y1,y2\n\n0,0,0\n\n\n0.5,1,2\n1.0,3,3\n").encode(),
     ("t,y1,y2\n0,0,0\n \t \n0.5,1,2\n").encode(),
     b"t,y1,y2\n",
     b"t,y1,y2",
     ("t,y1,y2\n" + _ROWS).rstrip("\n").encode(),
     b"t,y\xff1,y2\n" + _ROWS.encode(),
     b"t,y1,y2\n0,0,0\n0.5,\xff1,2\n",
     b"t,y1,y2\n" + b"".join(b"%d,%d,%d\n" % (j, j, j) for j in range(2000)) + b"2000,\xff,1\n",
     ("\ufefft,y1,y2\n" + _ROWS).encode()],
    ids=["crlf", "lone-cr", "quoted-header-field", "blank-lines", "whitespace-line",
         "header-only", "header-only-no-newline", "no-final-newline", "non-utf8-header",
         "non-utf8-body", "non-utf8-past-read-buffer", "utf8-bom"],
)
def test_path_reader_equals_handle_reader_on_irregular_files(tmp_path, data):
    path = tmp_path / "counts.csv"
    path.write_bytes(data)
    assert _outcome(io.read_count_series, path) == _outcome(_handle_reader, path)


def test_name_that_parses_as_a_url_is_read_as_a_local_file(tmp_path, monkeypatch):
    import urllib.request

    def no_fetch(*args, **kwargs):
        raise AssertionError("a count file name was fetched as a URL")

    monkeypatch.setattr(urllib.request, "urlopen", no_fetch)
    monkeypatch.chdir(tmp_path)
    name = "http://example.invalid/counts.csv"
    os.makedirs(os.path.dirname(name))
    Path(name).write_text("t,y1,y2\n" + _ROWS)
    assert _outcome(io.read_count_series, name) == _outcome(_handle_reader, name)
    assert io.read_count_series(name)[0].b_n == 3


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_compressed_suffix_rejected_before_reading(tmp_path, suffix):
    # numpy decompresses by suffix; these files are plain text, so it would fail mid-read
    path = tmp_path / f"counts.csv{suffix}"
    path.write_text("t,y1,y2\n" + _ROWS)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "latcorr.cli", "estimate", "--counts", str(path),
                           "--a-n", "1"], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: bad counts file: count files are plain text, not "
                           f"compressed: {str(path)!r}\n")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_counts_from_a_pipe_exit_1(tmp_path):
    # numpy reads the file by name after the header, which a pipe cannot give twice
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "latcorr.cli", "estimate", "--counts",
                           "/dev/stdin", "--a-n", "1"], input="t,y1,y2\n" + _ROWS, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: cannot read input: not a regular file: '/dev/stdin'\n"


def test_missing_model_key_named_with_its_section():
    doc = {"model": {"mu1": 0, "mu2": 0, "sigma1": 0.1, "sigma2": 0.1, "rho": 0,
                     "x1_0": 1}, "b_n": [8], "r": [3.0]}
    with pytest.raises(io.ConfigError, match=r"^missing required key 'model\.x2_0'$"):
        io.parse_config(doc)


def _write(path, text):
    path.write_text(text)
    return path


def _zero_volatility_config(tmp_path):
    model = json.loads(write_config(tmp_path).read_text())["model"]
    return write_config(tmp_path, model={**model, "sigma1": 0.0}, b_n=[8, 16, 32])


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (lambda d: ["mse-table", "--config", str(_zero_volatility_config(d))], 3, "",
         "error: degenerate data: model has a zero volatility: true correlation targets "
         "are undefined\n"),
        (lambda d: ["rate-check", "--config", str(_zero_volatility_config(d))], 3, "",
         "error: degenerate data: model has a zero volatility: true correlation targets "
         "are undefined\n"),
        # a_n = 8**-5: every count path is zero, so every replication is degenerate
        (lambda d: ["mse-table", "--config", str(write_config(d, r=[-5.0]))], 3,
         "variant,b_n,r,mse,bn_times_mse,degenerate_count,clamped_count,N\n"
         "1,8,-5.0,nan,nan,3,0,3\n2,8,-5.0,nan,nan,3,0,3\nw,8,-5.0,nan,nan,3,0,3\n",
         "warning: 3 of 3 rows invalid (all replications degenerate)\n"),
        # the same on three grid sizes: rate-check has no live row to fit (it exited 2)
        (lambda d: ["rate-check", "--config", str(write_config(d, b_n=[8, 16, 32], r=[-5.0]))],
         3, "", "error: degenerate data: replications are live at fewer than 3 grid sizes\n"),
        (lambda d: ["simulate", "--config", str(write_config(d)),
                    "--out", str(d / "missing" / "counts.csv")], 1, "",
         "error: cannot write output: "),
        (lambda d: ["mse-table", "--config", str(write_config(d)),
                    "--out", str(d / "missing" / "table.csv")], 1, "",
         "error: cannot write output: "),
        (lambda d: ["estimate", "--counts", str(d), "--a-n", "1"], 1, "",
         "error: cannot read input: "),
        (lambda d: ["estimate", "--counts", str(_write(d / "three.csv", "t,y1,y2\n" + _ROWS)),
                    "--a-n", "1"], 2, "", "error: need at least 4 observation intervals, got 3\n"),
        (lambda d: ["mse-table", "--config", str(d / "missing.json")], 2, "",
         "error: config file not found: "),
        (lambda d: ["mse-table", "--config", str(_write(d / "config.json", "{"))], 2, "",
         "error: invalid JSON: "),
        (lambda d: ["mse-table", "--config", str(_write(d / "config.json", "[1]"))], 2, "",
         "error: config document must be a JSON object\n"),
        (lambda d: ["simulate", "--config", str(write_config(d))], 2, "",
         "error: no output path: pass --out or set 'out' in the config\n"),
    ],
    ids=["mse-table-zero-volatility", "rate-check-zero-volatility", "mse-table-all-degenerate",
         "rate-check-all-degenerate", "simulate-unwritable-out", "mse-table-unwritable-out",
         "counts-directory", "counts-of-3-intervals", "config-missing", "config-not-json",
         "config-an-array", "simulate-no-out"],
)
def test_each_failure_exits_with_its_code_and_one_stderr_line(tmp_path, capsys, argv, code,
                                                              out, err):
    """``cli.main`` maps each failure to its exit code and one stderr line, given
    in full or up to the operating system's own message."""
    assert cli.main(argv(tmp_path)) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err.startswith(err) and captured.err.count("\n") == 1


_SHARED_HELP = {
    "--config": "JSON experiment config",
    "--seed": "override the config seed",
    "--threads": "processes that share the table's columns, this one included: 0 = every "
                 "usable core, 1 = all in this process (default); the output is the same for "
                 "any value",
}


@pytest.mark.parametrize("command, options", [("simulate", ["--config", "--seed"]),
                                              ("mse-table", ["--config", "--seed", "--threads"]),
                                              ("rate-check", ["--config", "--seed", "--threads"])])
def test_a_shared_option_has_one_help_in_every_subcommand(capsys, command, options):
    # rate-check's --seed, and --config outside simulate, used to show no help
    with pytest.raises(SystemExit) as done:
        cli.main([command, "--help"])
    assert done.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps the help to the terminal
    for option in options:
        assert f"{option} {option[2:].upper()} {_SHARED_HELP[option]}" in text, option


@pytest.mark.parametrize("command, entry", [
    ("mse-table", "--format {csv,md} table format (default: config 'format' or csv)"),
    ("estimate", "--format {csv,text} output format (default: text)")])
def test_format_help_names_its_default(capsys, command, entry):
    with pytest.raises(SystemExit) as done:
        cli.main([command, "--help"])
    assert done.value.code == 0
    assert entry in " ".join(capsys.readouterr().out.split())


def _counts_file(d: Path) -> Path:
    cfg = io.load_config(str(write_config(d, b_n=[64])))
    design, _, counts = harness.simulate_replication(cfg.experiment, 64, 3.0, 0)
    io.write_count_series(str(d / "counts.csv"), counts, design.delta_n)
    return d / "counts.csv"


@pytest.mark.parametrize("argv, err", [
    (lambda d: ["mse-table", "--config", str(write_config(d, variants=["1", "1", "w"]))],
     "error: repeated variants: ['1']\n"),
    (lambda d: ["estimate", "--counts", str(_counts_file(d)), "--a-n", "262144",
                "--variant", "2", "--variant", "2"],
     "error: repeated variants: ['2']\n"),
    (lambda d: ["rate-check", "--config", str(write_config(d, b_n=[16, 32, 64])),
                "--variant", "1", "--variant", "2"],
     "error: rate-check fits one variant, got --variant 1 2\n"),
], ids=["mse-table-config", "estimate", "rate-check"])
def test_a_repeated_or_extra_variant_exits_2_naming_it(tmp_path, capsys, argv, err):
    # each used to print a variant's rows twice, or fit the first variant alone, with exit 0
    assert cli.main(argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == err


@pytest.mark.parametrize("command", ["simulate", "mse-table"])
@pytest.mark.parametrize("key, value, steps", [("b_n", [10**12], "1000000000000 * 4"),
                                               ("refinement", 10**14, "8 * 100000000000000")])
def test_work_above_the_fine_step_cap_exits_2_naming_the_keys(tmp_path, capsys, command, key,
                                                              value, steps):
    # each used to end in numpy's traceback for an array of several PiB
    cfg = write_config(tmp_path, **{key: value})
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: b_n * refinement = {steps} fine steps is above the cap "
                            f"of {harness.MAX_FINE_STEPS}\n")


@pytest.mark.parametrize("argv, b_n", [(["simulate"], [16]),
                                       (["mse-table", "--threads", "1"], [16, 32]),
                                       (["mse-table", "--threads", "2"], [16, 32])])
def test_a_grid_the_host_cannot_hold_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                                 argv, b_n):
    # with the cap lifted, numpy refuses the latent normals' 23 PiB before allocating any
    monkeypatch.setattr(harness, "MAX_FINE_STEPS", math.inf)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = write_config(tmp_path, b_n=b_n, refinement=10**14)
    harness._stop_helpers()  # a helper must be forked with the lifted cap, and not outlive it
    try:
        code = cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
    finally:
        harness._stop_helpers()
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: out of memory: ") and captured.err.count("\n") == 1


_FIVE_INTERVALS = "t,y1,y2\n0,0,0\n1,5,3\n2,9,9\n3,12,10\n4,20,11\n5,21,17\n"


@pytest.mark.parametrize("a_n", ["1e-40", "1e41"])
def test_weights_out_of_float_range_exit_3_with_one_error_line(tmp_path, capsys, a_n):
    # S11**3 * S22 overflowed to inf (1e-40) or fell below the normal floats (1e41)
    # without raising: variant 1's xi read 0.35977921498661913 and 0.17405333096820902,
    # for 0.17407385737238848 at a_n = 1, with exit 0
    counts = _write(tmp_path / "five.csv", _FIVE_INTERVALS)
    assert cli.main(["estimate", "--counts", str(counts), "--a-n", a_n, "--format", "csv"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: degenerate data: weight vector out of float range")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("counts", [lambda d: _write(d / "five.csv", _FIVE_INTERVALS),
                                    _counts_file], ids=["5-intervals", "64-intervals"])
def test_estimate_prints_the_same_bytes_for_every_power_of_two_a_n(tmp_path, capsys, counts):
    # a_n scales every count increment, and a power of two scales without rounding,
    # so it cancels exactly from C, xi and the CI
    path = str(counts(tmp_path))
    outputs = set()
    for k in range(-20, 21):
        assert cli.main(["estimate", "--counts", path, "--a-n", str(2.0**k), "--format",
                         "csv"]) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1

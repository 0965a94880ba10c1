"""Pinned outputs: a small desk table and one ``latcorr estimate`` report.

The values were computed once by the per-replication code and are committed
as floats, so that a refactor of the estimator kernels or the replication
pipeline is checked by tier-1.  The tolerance (1e-13 relative) admits a
different BLAS build's rounding, which a byte hash would not; every integer
field must match exactly.
"""

import pytest

from latcorr import cli, harness, io, sim

RTOL = 1e-13

MODEL = sim.ModelParams(mu1=0.2, mu2=0.3, sigma1=0.2, sigma2=0.3, rho=0.7,
                        x1_0=1.0, x2_0=2.0, T=1.0)

DESK_TABLE = [
    # (variant, b_n, r, mse, degenerate_count, clamped_count, n_effective)
    ('1', 16, 2.0, 0.5020011017699044, 0, 0, 8),
    ('2', 16, 2.0, 0.3177836599541599, 0, 0, 8),
    ('w', 16, 2.0, 0.13630982047823836, 0, 0, 8),
    ('m', 16, 2.0, 0.3999753306557051, 0, 0, 8),
    ('n', 16, 2.0, 1.244263279918433, 0, 0, 8),
    ('1', 32, 2.0, 0.7714062867324776, 0, 0, 8),
    ('2', 32, 2.0, 0.6930094527991351, 0, 0, 8),
    ('w', 32, 2.0, 0.33067288756554464, 0, 0, 8),
    ('m', 32, 2.0, 0.5567818435443908, 0, 0, 8),
    ('n', 32, 2.0, 0.9672927497321224, 0, 0, 8),
    ('1', 16, 3.5, 0.29069994193292825, 0, 0, 8),
    ('2', 16, 3.5, 0.23605517916650068, 0, 0, 8),
    ('w', 16, 3.5, 0.12472305280456653, 0, 0, 8),
    ('m', 16, 3.5, 0.3313090996285451, 0, 0, 8),
    ('n', 16, 3.5, 0.655749911708302, 0, 0, 8),
    ('1', 32, 3.5, 0.05783006784659024, 0, 0, 8),
    ('2', 32, 3.5, 0.0366388140298342, 0, 0, 8),
    ('w', 32, 3.5, 0.016394684250638898, 0, 0, 8),
    ('m', 32, 3.5, 0.032026722697218145, 0, 0, 8),
    ('n', 32, 3.5, 0.0717093603729686, 0, 0, 8),
]

ESTIMATE = {
    # variant: (C, xi, ci_lo, ci_hi) for replication 2 of the cell b_n = 64, r = 3
    '1': (0.3052155310324796, 1.0124850344606344, 0.05869538839546312, 0.551735673669496),
    '2': (0.3052155310324796, 1.0065960319775, 0.05941336191586588, 0.5510177001490933),
    'w': (0.3052155310324796, 0.6792279812313932, 0.10330178398610781, 0.5071292780788514),
    'm': (0.3052155310324796, 0.8537371080528438, 0.07884484691143556, 0.5315862151535237),
    'n': (0.3052155310324796, 0.641324427820107, 0.10901643810579831, 0.5014146239591609),
}


def test_desk_table_pinned():
    config = harness.ExperimentConfig(model=MODEL, b_n=(16, 32), r=(2.0, 3.5),
                                      replications=8, seed=20260809)
    rows = harness.run_mse_table(config)
    got = [(row.variant, row.b_n, row.r, row.mse, row.degenerate_count,
            row.clamped_count, row.n_effective) for row in rows]
    assert [g[:3] + g[4:] for g in got] == [p[:3] + p[4:] for p in DESK_TABLE]
    assert [g[3] for g in got] == pytest.approx([p[3] for p in DESK_TABLE], rel=RTOL, abs=0)


def test_estimate_report_pinned(tmp_path, capsys):
    config = harness.ExperimentConfig(model=MODEL, b_n=(64,), r=(3.0,), seed=20260809)
    design, _, counts = harness.simulate_replication(config, 64, 3.0, 2)
    path = tmp_path / "counts.csv"
    io.write_count_series(str(path), counts, design.delta_n)
    code = cli.main(["estimate", "--counts", str(path), "--a-n", repr(design.a_n),
                     "--format", "csv"])
    assert code == 0
    got = {}
    for line in capsys.readouterr().out.splitlines()[1:]:
        fields = line.split(",")
        got[fields[0]] = tuple(float(fields[i]) for i in (1, 2, 4, 5))
    assert list(got) == list(ESTIMATE)
    for variant, pinned in ESTIMATE.items():
        assert got[variant] == pytest.approx(pinned, rel=RTOL, abs=0), variant


LONG_ESTIMATE = {
    # variant: (C, xi, ci_lo, ci_hi) for replication 2 of the cell b_n = 12000, r = 3;
    # each product row is longer than estimators._WINDOW_CHUNK, so rows run one per pass
    '1': (0.694161743903351, 0.3034813326300879, 0.684305227268201, 0.7040182605385009),
    '2': (0.694161743903351, 0.3034745274326592, 0.6843053377789812, 0.7040181500277207),
    'w': (0.694161743903351, 0.2899832049703934, 0.6845269175747541, 0.7037965702319477),
    'm': (0.694161743903351, 0.3058719878598478, 0.6842664813762311, 0.7040570064304708),
    'n': (0.694161743903351, 0.3089261130285408, 0.684217202092906, 0.7041062857137959),
}


def test_long_estimate_report_pinned(tmp_path, capsys):
    config = harness.ExperimentConfig(model=MODEL, b_n=(12000,), r=(3.0,), seed=20260809)
    design, _, counts = harness.simulate_replication(config, 12000, 3.0, 2)
    path = tmp_path / "counts.csv"
    io.write_count_series(str(path), counts, design.delta_n)
    code = cli.main(["estimate", "--counts", str(path), "--a-n", repr(design.a_n),
                     "--format", "csv"])
    assert code == 0
    got = {}
    for line in capsys.readouterr().out.splitlines()[1:]:
        fields = line.split(",")
        got[fields[0]] = tuple(float(fields[i]) for i in (1, 2, 4, 5))
    assert list(got) == list(LONG_ESTIMATE)
    for variant, pinned in LONG_ESTIMATE.items():
        assert got[variant] == pytest.approx(pinned, rel=RTOL, abs=0), variant

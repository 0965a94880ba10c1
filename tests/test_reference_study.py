"""Smoke test of ``scripts/run_reference_study.py`` at a tiny scale."""

import csv
import importlib.util
import math
from pathlib import Path

import pytest

from latcorr import harness

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_reference_study.py"


@pytest.fixture(scope="module")
def study():
    spec = importlib.util.spec_from_file_location("run_reference_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_comparison_reads_stderr_from_rows(study, tmp_path):
    bns, r = (16, 32), 3.5
    rows = study.run_rate(study.study_model(), r, bns, 5, 20260809)
    assert [(row.b_n, row.variant) for row in rows] == [
        (b, v) for b in bns for v in harness.VARIANTS]

    path = tmp_path / "comparison.csv"
    hits, total = study.write_comparison(path, rows, study.REFERENCE_MSE[r], bns)
    with open(path, encoding="utf-8", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert total == len(table) == len(rows)
    assert hits == sum(int(line["within_3se"]) for line in table)
    for line, row in zip(table, rows):
        assert (line["variant"], int(line["b_n"])) == (row.variant, row.b_n)
        se = float(line["stderr"])
        assert se == row.mse_stderr and math.isfinite(se) and se > 0.0
        ref = study.REFERENCE_MSE[r][row.variant][study.REFERENCE_BNS.index(row.b_n)]
        assert float(line["deviation_in_se"]) == pytest.approx((row.mse - ref) / se, abs=0.006)


def test_run_rate_gives_the_same_rows_in_process_and_shared(study, monkeypatch):
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
    harness._stop_helpers()
    try:
        args = (study.study_model(), 3.0, (16, 32, 64), 4, 5)
        assert repr(study.run_rate(*args, n_workers=2)) == repr(study.run_rate(*args, n_workers=1))
    finally:
        harness._stop_helpers()

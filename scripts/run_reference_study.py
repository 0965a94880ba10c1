#!/usr/bin/env python3
"""Reproduce the Monte Carlo MSE study of the asymptotic-variance estimators.

For each intensity-scale exponent r in {2, 2.5, 3, 3.5} (a_n = b_n^r) this
runs all five variance-estimator variants over a grid of observation counts
and writes, per r:

    mse_r<r>.csv          raw table (one row per variant x b_n)
    mse_r<r>.md           markdown rendering, variants as rows
    bn_mse_r<r>.md        same, cells scaled by b_n
    comparison_r<r>.csv   our MSE vs the reference values with MC standard
                          errors and a within-3-SE verdict

Profiles:
    default  desk scale, N=300 replications, b_n = 2^4..2^8   (a few seconds)
    --full   reference scale, N=1000, b_n = 2^4..2^10         (under a minute)
"""

import argparse
import csv
import math
import sys
import time
from pathlib import Path

from latcorr import harness, io, sim

# Reference MSE values this study reproduces (N = 1000 paths,
# b_n = 2^4..2^10, variants 1/2/w/m/n, a_n = b_n^r).
REFERENCE_MSE = {
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
REFERENCE_BNS = tuple(2**k for k in range(4, 11))


def study_model() -> sim.ModelParams:
    return sim.ModelParams(mu1=0.2, mu2=0.3, sigma1=0.2, sigma2=0.3, rho=0.7,
                           x1_0=1.0, x2_0=2.0, T=1.0)


def run_rate(model, r, bns, n_reps, seed, n_workers=0):
    """MSE rows of every variant for one rate exponent, with standard errors; the
    cells are shared between every usable core, with the rows of one process."""
    cfg = harness.ExperimentConfig(model=model, b_n=bns, r=(r,), replications=n_reps, seed=seed)
    return harness.run_mse_table(cfg, n_workers=n_workers)


def write_comparison(path, rows, reference, bns):
    hits = total = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["variant", "b_n", "mse", "stderr", "reference",
                         "deviation_in_se", "within_3se"])
        for row in rows:
            if row.b_n not in bns or not row.valid:
                continue
            ref = reference[row.variant][REFERENCE_BNS.index(row.b_n)]
            se = row.mse_stderr
            dev = (row.mse - ref) / se if se > 0 else math.inf
            ok = abs(dev) <= 3.0
            hits += ok
            total += 1
            writer.writerow([row.variant, row.b_n, repr(row.mse), repr(se),
                             repr(ref), f"{dev:.2f}", int(ok)])
    return hits, total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="reference scale: N=1000, b_n up to 2^10")
    parser.add_argument("--out-dir", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=20260809)
    args = parser.parse_args(argv)

    n_reps = 1000 if args.full else 300
    bns = REFERENCE_BNS if args.full else REFERENCE_BNS[:5]
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = study_model()

    grand_hits = grand_total = 0
    for r in (2.0, 2.5, 3.0, 3.5):
        t0 = time.time()
        rows = run_rate(model, r, bns, n_reps, args.seed)
        tag = f"{r:g}".replace(".", "_")
        (out / f"mse_r{tag}.csv").write_text(io.mse_table_csv(rows), encoding="utf-8")
        (out / f"mse_r{tag}.md").write_text(io.mse_table_markdown(rows), encoding="utf-8")
        (out / f"bn_mse_r{tag}.md").write_text(io.mse_table_markdown(rows, scaled=True),
                                               encoding="utf-8")
        hits, total = write_comparison(out / f"comparison_r{tag}.csv", rows,
                                       REFERENCE_MSE[r], bns)
        grand_hits += hits
        grand_total += total
        print(f"r = {r:g}: {hits}/{total} cells within 3 SE of the reference "
              f"({time.time() - t0:.0f}s)")

    print(f"overall: {grand_hits}/{grand_total} cells within 3 SE "
          f"(N={n_reps}, b_n up to {bns[-1]}; outputs in {out}/)")
    if not args.full:
        print("note: desk profile compares N=300 runs against N=1000 reference values; "
              "use --full for the matched-scale comparison")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands
-----------
simulate   : draw one latent path + count path from a config and write CSVs
estimate   : run all estimators on an external count-series file
mse-table  : run the Monte Carlo grid and write the MSE table (csv or md)
rate-check : fit the log-MSE / log-b_n slope for one variant

Exit codes: 0 success, 1 I/O or internal failure, 2 invalid configuration
or arguments, 3 degenerate data.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from . import estimators, harness, io, sim

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3

_THREADS_HELP = "accepted for compatibility (must be >= 0); replications run on one thread"


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_config(path: str) -> io.ConfigFile:
    try:
        return io.load_config(path)
    except FileNotFoundError:
        raise io.ConfigError(f"config file not found: {path}") from None


def _singleton_cell(cf: io.ConfigFile) -> tuple[int, float]:
    exp = cf.experiment
    if len(exp.b_n) != 1:
        raise io.ConfigError("key 'b_n' must contain exactly one value for simulate")
    if len(exp.r) != 1:
        raise io.ConfigError("key 'r' must contain exactly one value for simulate")
    return exp.b_n[0], exp.r[0]


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        cf = _load_config(args.config)
        b_n, r = _singleton_cell(cf)
    except io.ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    exp = cf.experiment
    seed = args.seed if args.seed is not None else exp.seed
    model = exp.model
    a_n = float(b_n) ** r
    design = sim.SamplingDesign(b_n=b_n, a_n=a_n, m=exp.refinement, T=model.T)
    rng = sim.replication_rng(seed, b_n, r, args.replication)
    path = sim.simulate_latent(model, design, rng)
    lam = sim.integrated_intensity(path, design)
    counts = sim.simulate_counts(lam, a_n, rng)

    out = args.out or cf.out
    if out is None:
        return _fail(EXIT_CONFIG, "no output path: pass --out or set 'out' in the config")
    latent_out = args.latent_out or cf.latent_out
    try:
        io.write_count_series(out, counts, design.delta_n)
        if latent_out:
            io.write_latent_path(latent_out, path)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write output: {exc}")
    print(f"wrote {out} (b_n={b_n}, a_n={a_n:g}, seed={seed}, replication={args.replication})")
    return EXIT_OK


def _estimate_report(counts, delta_n: float, T: float, a_n: float,
                     variants: list[str], level: float):
    tilde = estimators.tilde_series(counts, a_n, delta_n)
    S = estimators.estimate_S(tilde)
    C = estimators.estimate_correlation(S)  # may raise DegenerateDataError
    report = []
    for variant in variants:
        G = harness.gamma_for_variant(tilde, T, variant)
        xi = estimators.estimate_xi(S, G)
        ci = estimators.confidence_interval(C, xi, counts.b_n, T, level)
        report.append((variant, xi, ci))
    return C, report


def cmd_estimate(args: argparse.Namespace) -> int:
    try:
        counts, delta_n, T = io.read_count_series(args.counts)
    except FileNotFoundError:
        return _fail(EXIT_IO, f"counts file not found: {args.counts}")
    except io.CountSeriesError as exc:
        return _fail(EXIT_CONFIG, f"bad counts file: {exc}")
    if not (math.isfinite(args.a_n) and args.a_n > 0):
        return _fail(EXIT_CONFIG, "--a-n must be a positive finite number")
    if counts.b_n < 4:
        return _fail(EXIT_CONFIG, f"need at least 4 observation intervals, got {counts.b_n}")
    variants = args.variant or list(harness.VARIANTS)
    try:
        C, report = _estimate_report(counts, delta_n, T, args.a_n, variants, args.level)
    except estimators.DegenerateDataError as exc:
        return _fail(EXIT_DEGENERATE, f"degenerate data: {exc}")
    except ValueError as exc:
        return _fail(EXIT_CONFIG, str(exc))

    if args.format == "csv":
        print("variant,C,xi,clamped,ci_lo,ci_hi,lo_clamped,hi_clamped,level")
        for variant, xi, ci in report:
            print(f"{variant},{C!r},{xi.xi!r},{int(xi.clamped)},"
                  f"{ci.lo!r},{ci.hi!r},{int(ci.lo_clamped)},{int(ci.hi_clamped)},{ci.level!r}")
    else:
        print(f"b_n = {counts.b_n}, a_n = {args.a_n:g}, T = {T:g}")
        print(f"correlation C = {C:.6f}")
        for variant, xi, ci in report:
            clamp = " (clamped)" if xi.clamped else ""
            edge = "".join([" [lo clipped]" if ci.lo_clamped else "",
                            " [hi clipped]" if ci.hi_clamped else ""])
            print(f"variant {variant}: xi = {xi.xi:.6f}{clamp}, "
                  f"{100 * ci.level:g}% CI = [{ci.lo:.6f}, {ci.hi:.6f}]{edge}")
    return EXIT_OK


def cmd_mse_table(args: argparse.Namespace) -> int:
    if args.threads < 0:
        return _fail(EXIT_CONFIG, "--threads must be nonnegative")
    try:
        cf = _load_config(args.config)
    except io.ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    exp = cf.experiment
    if args.seed is not None:
        exp = dataclasses.replace(exp, seed=args.seed)
    try:
        rows = harness.run_mse_table(exp, n_workers=args.threads)
    except estimators.DegenerateDataError as exc:
        return _fail(EXIT_DEGENERATE, str(exc))

    fmt = args.format or cf.format
    text = io.mse_table_markdown(rows) if fmt == "md" else io.mse_table_csv(rows)
    out = args.out or cf.out
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot write output: {exc}")
    else:
        sys.stdout.write(text)

    n_valid = sum(1 for row in rows if row.valid and not math.isnan(row.mse))
    n_invalid = len(rows) - n_valid
    if n_invalid:
        print(f"warning: {n_invalid} of {len(rows)} rows invalid "
              "(all replications degenerate)", file=sys.stderr)
    return EXIT_OK if n_valid >= 1 else EXIT_IO


def cmd_rate_check(args: argparse.Namespace) -> int:
    if args.threads < 0:
        return _fail(EXIT_CONFIG, "--threads must be nonnegative")
    try:
        cf = _load_config(args.config)
    except io.ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    exp = cf.experiment
    if args.seed is not None:
        exp = dataclasses.replace(exp, seed=args.seed)
    variant = args.variant[0] if args.variant else "1"
    try:
        slope = harness.rate_check(exp, variant, n_workers=args.threads)
    except estimators.DegenerateDataError as exc:
        return _fail(EXIT_DEGENERATE, str(exc))
    except ValueError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    print(f"variant {variant}: slope of log(mse) vs log(b_n) = {slope:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcorr",
        description="Correlation between latent intensities of doubly stochastic "
                    "Poisson processes: simulation, estimation, Monte Carlo tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate one count path from a config")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--out", help="output count-series CSV path")
    p.add_argument("--latent-out", help="also write the fine-grid latent path")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--replication", type=int, default=0, help="replication index (default 0)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate correlation and its variance from counts")
    p.add_argument("--counts", required=True, help="count-series CSV (header t,y1,y2)")
    p.add_argument("--a-n", dest="a_n", type=float, required=True,
                   help="intensity scale a_n used when the counts were generated")
    p.add_argument("--variant", action="append", choices=list(harness.VARIANTS),
                   help="variance-estimator variant (repeatable; default: all)")
    p.add_argument("--level", type=float, default=0.95, help="confidence level (default 0.95)")
    p.add_argument("--format", choices=["csv", "text"], default="text")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("mse-table", help="run the Monte Carlo grid and write the MSE table")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output path (default: config 'out' or stdout)")
    p.add_argument("--format", choices=["csv", "md"], default=None)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.set_defaults(func=cmd_mse_table)

    p = sub.add_parser("rate-check", help="fit the MSE decay slope for one variant")
    p.add_argument("--config", required=True)
    p.add_argument("--variant", action="append", choices=list(harness.VARIANTS),
                   help="variant to check (default 1)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.set_defaults(func=cmd_rate_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

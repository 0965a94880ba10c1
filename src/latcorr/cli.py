"""Command-line front end.

Subcommands
-----------
simulate   : draw one latent path + count path from a config and write CSVs
estimate   : run all estimators on an external count-series file
mse-table  : run the Monte Carlo grid and write the MSE table (csv or md)
rate-check : fit the log-MSE / log-b_n slope for one variant

Exit codes: 0 success, 1 I/O failure, 2 invalid configuration, arguments or
counts file, 3 degenerate data.  A command returns 0 or raises, and ``main``
alone maps the exception to its code and one ``error:`` line; only the output
writes and a table with no valid row (exit 3, after its warning) return a code.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from typing import get_args

from . import estimators, harness, io

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3

_THREADS_HELP = ("processes that share the table's cells, this one included: 0 = every usable "
                 "core, 1 = all in this process (default); the output is the same for any value")


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_experiment(args: argparse.Namespace) -> tuple[io.ConfigFile, harness.ExperimentConfig]:
    """Check ``--threads`` (grid commands), load ``--config`` and apply ``--seed``;
    any invalid value, a missing config file included, raises a ValueError."""
    if getattr(args, "threads", 0) < 0:
        raise ValueError("--threads must be nonnegative")
    try:
        cf = io.load_config(args.config)
    except FileNotFoundError:
        raise io.ConfigError(f"config file not found: {args.config}") from None
    if args.seed is None:
        return cf, cf.experiment
    return cf, dataclasses.replace(cf.experiment, seed=args.seed)


def _singleton_cell(exp: harness.ExperimentConfig) -> tuple[int, float]:
    for key in ("b_n", "r"):
        if len(getattr(exp, key)) != 1:
            raise io.ConfigError(f"key '{key}' must contain exactly one value for simulate")
    return exp.b_n[0], exp.r[0]


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.replication < 0:
        raise ValueError("--replication must be nonnegative")
    cf, exp = _load_experiment(args)
    b_n, r = _singleton_cell(exp)
    design, path, counts = harness.simulate_replication(exp, b_n, r, args.replication)
    out = args.out or cf.out
    if out is None:
        raise io.ConfigError("no output path: pass --out or set 'out' in the config")
    latent_out = args.latent_out or cf.latent_out
    try:
        io.write_count_series(out, counts, design.delta_n)
        if latent_out:
            io.write_latent_path(latent_out, path)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write output: {exc}")
    print(f"wrote {out} (b_n={b_n}, a_n={design.a_n:g}, seed={exp.seed}, "
          f"replication={args.replication})")
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.a_n) and args.a_n > 0):
        raise ValueError("--a-n must be a positive finite number")
    if not 0.0 < args.level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    counts, delta_n, T = io.read_count_series(args.counts)
    if counts.b_n < 4:
        raise ValueError(f"need at least 4 observation intervals, got {counts.b_n}")
    variants = args.variant or list(harness.VARIANTS)
    C, results = harness.estimate_counts(counts, args.a_n, delta_n, T, variants, args.level)

    report = [(variant, results[variant], results[variant].ci) for variant in variants]
    if args.format == "csv":
        print("variant,C,xi,clamped,ci_lo,ci_hi,lo_clamped,hi_clamped,level")
        for variant, res, ci in report:
            print(f"{variant},{C!r},{res.xi!r},{int(res.clamped)},"
                  f"{ci.lo!r},{ci.hi!r},{int(ci.lo_clamped)},{int(ci.hi_clamped)},{ci.level!r}")
    else:
        print(f"b_n = {counts.b_n}, a_n = {args.a_n:g}, T = {T:g}")
        print(f"correlation C = {C:.6f}")
        for variant, res, ci in report:
            clamp = " (clamped)" if res.clamped else ""
            edge = "".join([" [lo clipped]" if ci.lo_clamped else "",
                            " [hi clipped]" if ci.hi_clamped else ""])
            print(f"variant {variant}: xi = {res.xi:.6f}{clamp}, "
                  f"{100 * ci.level:g}% CI = [{ci.lo:.6f}, {ci.hi:.6f}]{edge}")
    return EXIT_OK


def cmd_mse_table(args: argparse.Namespace) -> int:
    cf, exp = _load_experiment(args)
    rows = harness.run_mse_table(exp, n_workers=args.threads)
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
    return EXIT_OK if n_valid >= 1 else EXIT_DEGENERATE


def cmd_rate_check(args: argparse.Namespace) -> int:
    variant = args.variant[0] if args.variant else "1"
    _, exp = _load_experiment(args)
    slope = harness.rate_check(exp, variant, n_workers=args.threads)
    print(f"variant {variant}: slope of log(mse) vs log(b_n) = {slope:.4f}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
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
    p.add_argument("--format", choices=get_args(io.TableFormat), default=None)
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
    try:
        return args.func(args)
    except estimators.DegenerateDataError as exc:
        return _fail(EXIT_DEGENERATE, f"degenerate data: {exc}")
    except io.CountSeriesError as exc:
        return _fail(EXIT_CONFIG, f"bad counts file: {exc}")
    except ValueError as exc:  # a ConfigError, an invalid argument or model
        return _fail(EXIT_CONFIG, str(exc))
    except OSError as exc:  # an unreadable --counts or --config; writes report their own
        return _fail(EXIT_IO, f"cannot read input: {exc}")


if __name__ == "__main__":
    sys.exit(main())

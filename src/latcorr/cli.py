"""Command-line front end.

Subcommands
-----------
simulate   : draw one latent path + count path from a config and write CSVs
estimate   : run all estimators on an external count-series file
mse-table  : run the Monte Carlo grid and write the MSE table (csv or md)
rate-check : fit the log-MSE / log-b_n slope for one variant

Exit codes: 0 success, 1 I/O failure or out of memory, 2 invalid
configuration, arguments or counts file, 3 degenerate data.  A command returns
0 or raises, and ``main`` alone maps the exception to its code and one
``error:`` line; only the output writes and a table with no valid row (exit 3,
after its warning) return a code.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from typing import get_args

from . import estimators, harness, io, sim

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3

def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_experiment(args: argparse.Namespace) -> tuple[io.ConfigFile, harness.ExperimentConfig]:
    """Check ``--threads`` (grid commands), load ``--config`` and apply ``--seed``;
    any invalid value, a missing config file included, raises a ValueError."""
    sim._integer_at_least(getattr(args, "threads", 0), 0, "--threads")
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
    sim._integer_at_least(args.replication, 0, "--replication")
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
    sim._positive_finite(args.a_n, "--a-n")
    sim._open_unit(args.level, "--level")
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

    n_invalid = sum(1 for row in rows if not row.valid or math.isnan(row.mse))
    if n_invalid:
        print(f"warning: {n_invalid} of {len(rows)} rows invalid "
              "(all replications degenerate)", file=sys.stderr)
    return EXIT_OK if n_invalid < len(rows) else EXIT_DEGENERATE


def cmd_rate_check(args: argparse.Namespace) -> int:
    variant, *more = args.variant or ["1"]
    if more:
        raise ValueError(f"rate-check fits one variant, got --variant {' '.join(args.variant)}")
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
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--config", required=True, help="JSON experiment config")
    experiment.add_argument("--seed", type=int, default=None, help="override the config seed")
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", type=int, default=1, help="processes that share the "
                         "table's columns, this one included: 0 = every usable core, 1 = all "
                         "in this process (default); the output is the same for any value")

    p = sub.add_parser("simulate", parents=[experiment],
                       help="simulate one count path from a config")
    p.add_argument("--out", help="output count-series CSV path")
    p.add_argument("--latent-out", help="also write the fine-grid latent path")
    p.add_argument("--replication", type=int, default=0, help="replication index (default 0)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate correlation and its variance from counts")
    p.add_argument("--counts", required=True, help="count-series CSV (header t,y1,y2)")
    p.add_argument("--a-n", dest="a_n", type=float, required=True,
                   help="intensity scale a_n used when the counts were generated; C, xi "
                   "and the CI do not depend on it up to rounding, and not at all for a "
                   "power of two; one that takes the xi weights out of float range exits 3")
    p.add_argument("--variant", action="append", choices=list(harness.VARIANTS),
                   help="variance-estimator variant (repeatable; default: all)")
    p.add_argument("--level", type=float, default=0.95, help="confidence level (default 0.95)")
    p.add_argument("--format", choices=["csv", "text"], default="text",
                   help="output format (default: text)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("mse-table", parents=[experiment, threads],
                       help="run the Monte Carlo grid and write the MSE table")
    p.add_argument("--out", help="output path (default: config 'out' or stdout)")
    p.add_argument("--format", choices=get_args(io.TableFormat), default=None,
                   help="table format (default: config 'format' or csv)")
    p.set_defaults(func=cmd_mse_table)

    p = sub.add_parser("rate-check", parents=[experiment, threads],
                       help="fit the MSE decay slope for one variant")
    p.add_argument("--variant", action="append", choices=list(harness.VARIANTS),
                   help="variant to check (default 1)")
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
    except MemoryError as exc:  # a grid within the config's caps that this host cannot hold
        return _fail(EXIT_IO, f"out of memory: {exc}")


if __name__ == "__main__":
    sys.exit(main())

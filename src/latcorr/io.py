"""File formats: JSON experiment configs, count-series CSV, result tables.

All outputs are locale-independent ('.' decimal separator, '\\n' line ends,
trailing newline); floats are written with ``repr`` so CSV round-trips are
bit-exact.
"""

from __future__ import annotations

import csv
import io as _io
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .harness import VARIANTS, ExperimentConfig, MseRow
from .sim import CountPath, LatentPath, ModelParams

__all__ = [
    "ConfigError",
    "CountSeriesError",
    "ConfigFile",
    "parse_config",
    "load_config",
    "serialize_config",
    "write_count_series",
    "read_count_series",
    "write_latent_path",
    "mse_table_csv",
    "mse_table_markdown",
]

#: maximum relative deviation of grid spacing tolerated in count files
EQUIDISTANCE_RTOL = 1e-9


class ConfigError(ValueError):
    """Invalid configuration document; the message names the offending key."""


class CountSeriesError(ValueError):
    """Count-series file violates the format contract."""


@dataclass(frozen=True)
class ConfigFile:
    """Parsed configuration document: experiment grid plus output options."""

    experiment: ExperimentConfig
    out: str | None = None
    format: str = "csv"
    latent_out: str | None = None


_MODEL_KEYS = ("mu1", "mu2", "sigma1", "sigma2", "rho", "x1_0", "x2_0", "T")
_TOP_KEYS = (
    "model", "b_n", "r", "variants", "replications", "seed", "refinement",
    "ci_level", "bandwidth_overrides", "out", "format", "latent_out",
)


def _require(doc: dict, key: str):
    if key not in doc:
        raise ConfigError(f"missing required key '{key}'")
    return doc[key]


def _as_number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key '{key}' must be a number, got {value!r}")
    return float(value)


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"key '{key}' must be an integer, got {value!r}")
    return value


def parse_config(doc: dict) -> ConfigFile:
    """Build a :class:`ConfigFile` from a parsed JSON document.

    Unknown keys anywhere in the document are rejected; numeric fields are
    validated before any work starts.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = sorted(set(doc) - set(_TOP_KEYS))
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}'")

    model_doc = _require(doc, "model")
    if not isinstance(model_doc, dict):
        raise ConfigError("key 'model' must be an object")
    unknown = sorted(set(model_doc) - set(_MODEL_KEYS))
    if unknown:
        raise ConfigError(f"unknown key 'model.{unknown[0]}'")
    kwargs = {}
    for k in _MODEL_KEYS:
        if k == "T":
            kwargs[k] = _as_number(model_doc.get("T", 1.0), "model.T")
        else:
            kwargs[k] = _as_number(_require(model_doc, k), f"model.{k}")
    try:
        model = ModelParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"model.{exc}") from exc

    b_n_doc = _require(doc, "b_n")
    if not isinstance(b_n_doc, list) or not b_n_doc:
        raise ConfigError("key 'b_n' must be a nonempty list of integers")
    b_n = tuple(_as_int(b, "b_n") for b in b_n_doc)

    r_doc = _require(doc, "r")
    if not isinstance(r_doc, list) or not r_doc:
        raise ConfigError("key 'r' must be a nonempty list of numbers")
    r = tuple(_as_number(x, "r") for x in r_doc)

    variants_doc = doc.get("variants", list(VARIANTS))
    if not isinstance(variants_doc, list) or not all(isinstance(v, str) for v in variants_doc):
        raise ConfigError("key 'variants' must be a list of strings")

    overrides_doc = doc.get("bandwidth_overrides", {})
    if not isinstance(overrides_doc, dict):
        raise ConfigError("key 'bandwidth_overrides' must be an object")
    overrides = {
        k: _as_number(v, f"bandwidth_overrides.{k}") for k, v in overrides_doc.items()
    }

    try:
        experiment = ExperimentConfig(
            model=model,
            b_n=b_n,
            r=r,
            variants=tuple(variants_doc),
            replications=_as_int(doc.get("replications", 1000), "replications"),
            seed=_as_int(doc.get("seed", 0), "seed"),
            refinement=_as_int(doc.get("refinement", 8), "refinement"),
            ci_level=_as_number(doc.get("ci_level", 0.95), "ci_level"),
            bandwidth_overrides=overrides,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("key 'out' must be a string path")
    latent_out = doc.get("latent_out")
    if latent_out is not None and not isinstance(latent_out, str):
        raise ConfigError("key 'latent_out' must be a string path")
    fmt = doc.get("format", "csv")
    if fmt not in ("csv", "md"):
        raise ConfigError("key 'format' must be 'csv' or 'md'")

    return ConfigFile(experiment=experiment, out=out, format=fmt, latent_out=latent_out)


def load_config(path: str) -> ConfigFile:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    return parse_config(doc)


def serialize_config(cf: ConfigFile) -> dict:
    """Inverse of :func:`parse_config` (parse -> serialize -> parse is identity)."""
    exp = cf.experiment
    doc = {
        "model": {k: getattr(exp.model, k) for k in _MODEL_KEYS},
        "b_n": list(exp.b_n),
        "r": list(exp.r),
        "variants": list(exp.variants),
        "replications": exp.replications,
        "seed": exp.seed,
        "refinement": exp.refinement,
        "ci_level": exp.ci_level,
        "bandwidth_overrides": dict(exp.bandwidth_overrides),
        "format": cf.format,
    }
    if cf.out is not None:
        doc["out"] = cf.out
    if cf.latent_out is not None:
        doc["latent_out"] = cf.latent_out
    return doc


def write_count_series(path: str, counts: CountPath, delta_n: float) -> None:
    """Write cumulative counts as CSV with header ``t,y1,y2``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "y1", "y2"])
        for j in range(len(counts.y1)):
            writer.writerow([repr(j * delta_n), int(counts.y1[j]), int(counts.y2[j])])


def read_count_series(path: str) -> tuple[CountPath, float, float]:
    """Parse a count-series CSV into ``(counts, delta_n, T)``.

    Enforces the format contract: header ``t,y1,y2``; finite, strictly
    increasing, equidistant times (relative tolerance 1e-9); integer
    cumulative counts starting at 0 and nondecreasing.
    """
    with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
        # a body without rows is reported below, not by numpy's empty-input warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            line = fh.readline()
        except UnicodeDecodeError as exc:  # decoding runs ahead of the header line
            raise CountSeriesError(_first_bad_line(path) or str(exc)) from exc
        if not line:
            raise CountSeriesError("empty file")
        header = next(csv.reader([line]))
        if [h.strip() for h in header] != ["t", "y1", "y2"]:
            raise CountSeriesError(f"expected header 't,y1,y2', got {','.join(header)!r}")
        try:
            rows = np.loadtxt(fh, delimiter=",", dtype=[("t", "f8"), ("y1", "i8"), ("y2", "i8")],
                              comments=None, quotechar='"', ndmin=1)
        except ValueError as exc:  # field count, non-integer or out-of-range count, non-UTF-8
            raise CountSeriesError(_first_bad_line(path) or str(exc)) from exc

    if len(rows) < 2:
        raise CountSeriesError("need at least two observation rows")
    times = rows["t"]
    if not np.all(np.isfinite(times)):
        raise CountSeriesError("observation times must be finite")
    steps = np.diff(times)
    if np.any(steps <= 0):
        raise CountSeriesError("observation times must be strictly increasing")
    b_n = len(times) - 1
    delta = (times[-1] - times[0]) / b_n
    deviation = np.abs(np.subtract(steps, delta, out=steps), out=steps)
    if np.max(deviation) > EQUIDISTANCE_RTOL * delta:
        raise CountSeriesError("observation times must be equidistant (rel. tol. 1e-9)")
    try:  # the count columns stay views of the parsed records
        counts = CountPath(y1=rows["y1"], y2=rows["y2"])
    except ValueError as exc:
        raise CountSeriesError(str(exc)) from exc
    return counts, float(delta), float(b_n * delta)


def _first_bad_line(path: str) -> str | None:
    """Name the first line of a count file that is not UTF-8, or that is a
    body line but not a time and two int64 counts; None if none is found.

    Only the error path of :func:`read_count_series` reads the file again.
    The rules are ``np.loadtxt``'s: blank lines are skipped, a whitespace-only
    line is a row of one field, and ``1_0`` is no number.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return f"line {lineno}: not UTF-8 text"
            if lineno == 1 or not line.strip("\r\n"):
                continue
            try:
                t, *ys = [field.replace("_", "x") for field in next(csv.reader([line]))]
                float(t)
                if len(ys) != 2 or not all(-(2**63) <= int(y) < 2**63 for y in ys):
                    raise ValueError
            except ValueError:
                return f"line {lineno}: expected a time and two int64 counts, got {line.strip()!r}"
    return None


def write_latent_path(path: str, latent: LatentPath) -> None:
    """Write the fine-grid latent path as CSV with header ``s,x1,x2``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["s", "x1", "x2"])
        for i in range(latent.n_nodes):
            writer.writerow([repr(float(latent.times[i])),
                             repr(float(latent.x1[i])), repr(float(latent.x2[i]))])


def mse_table_csv(rows: list[MseRow]) -> str:
    """Render MSE rows as CSV (header + one line per grid cell)."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["variant", "b_n", "r", "mse", "bn_times_mse",
                     "degenerate_count", "clamped_count", "N"])
    for row in rows:
        writer.writerow([
            row.variant, row.b_n, repr(row.r), repr(row.mse), repr(row.bn_times_mse),
            row.degenerate_count, row.clamped_count,
            row.n_effective + row.degenerate_count,
        ])
    return buf.getvalue()


def _bn_header(b_n: int) -> str:
    e = b_n.bit_length() - 1
    if b_n == 2**e:
        return f"$b_n = 2^{e}$" if e < 10 else f"$b_n = 2^{{{e}}}$"
    return f"$b_n = {b_n}$"


def _fmt_rate(r: float) -> str:
    return f"{r:g}"


def mse_table_markdown(rows: list[MseRow], scaled: bool = False) -> str:
    """Render rows as markdown tables, one per rate exponent.

    Layout mirrors the reference tables: variants as rows, grid sizes as
    ascending columns.  ``scaled`` switches the cells to b_n * mse.
    """
    rates = sorted({row.r for row in rows})
    lines = []
    what = "$b_n$ x MSE" if scaled else "MSE"
    for r in rates:
        sub = [row for row in rows if row.r == r]
        bns = sorted({row.b_n for row in sub})
        variants = list(dict.fromkeys(row.variant for row in sub))
        cell = {(row.variant, row.b_n): row for row in sub}
        lines.append(f"### {what} of asymptotic variance estimators; $a_n = b_n^{{{_fmt_rate(r)}}}$")
        lines.append("")
        lines.append("| $*$ | " + " | ".join(_bn_header(b) for b in bns) + " |")
        lines.append("|" + " --- |" * (len(bns) + 1))
        for v in variants:
            vals = []
            for b in bns:
                row = cell.get((v, b))
                if row is None or not row.valid:
                    vals.append("--")
                else:
                    vals.append(f"{row.bn_times_mse if scaled else row.mse:.4f}")
            lines.append(f"| {v} | " + " | ".join(vals) + " |")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"

"""File formats: JSON experiment configs, count-series CSV, result tables.

All outputs are locale-independent ('.' decimal separator, '\\n' line ends,
trailing newline); every CSV goes through :func:`write_csv`, which writes a
float as its ``repr``, so CSV round-trips are bit-exact.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
import warnings
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Literal, get_args

import numpy as np

from .harness import ExperimentConfig, MseRow
from .sim import CountPath, LatentPath, ModelParams

__all__ = [
    "ConfigError",
    "CountSeriesError",
    "ConfigFile",
    "parse_config",
    "load_config",
    "serialize_config",
    "write_csv",
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


#: the table formats ``mse-table`` writes
TableFormat = Literal["csv", "md"]


@dataclass(frozen=True)
class ConfigFile:
    """Parsed configuration document: experiment grid plus output options.

    The document's keys are the fields of :class:`ExperimentConfig` (those
    of :class:`ModelParams` under ``model``) and the output fields below;
    a field without a default is a required key.
    """

    experiment: ExperimentConfig
    out: str | None = None
    format: TableFormat = "csv"
    latent_out: str | None = None


#: the fields of :class:`ConfigFile` that are top-level keys: all but ``experiment``
_OUTPUTS = fields(ConfigFile)[1:]


def _expect(ok: bool, value, key: str, what: str):
    if not ok:
        raise ConfigError(f"key '{key}' must be {what}, got {value!r}")
    return value


def _number(value, key: str) -> float:
    return float(_expect(isinstance(value, (int, float)) and not isinstance(value, bool),
                         value, key, "a number"))


def _integer(value, key: str) -> int:
    return _expect(isinstance(value, int) and not isinstance(value, bool), value, key, "an integer")


def _nonempty_list(item, what: str):
    return lambda value, key: tuple(item(x, key) for x in _expect(
        isinstance(value, list) and value, value, key, f"a nonempty list of {what}"))


#: How a field reads from JSON, by its annotation as written (``Field.type`` is
#: that string, as annotations are postponed): ``read(value, key)`` returns the
#: field's value or raises a ConfigError that names ``key``.
_READERS = {
    "float": _number,
    "int": _integer,
    "tuple[int, ...]": _nonempty_list(_integer, "integers"),
    "tuple[float, ...]": _nonempty_list(_number, "numbers"),
    "tuple[str, ...]": lambda value, key: tuple(_expect(
        isinstance(value, list) and all(isinstance(v, str) for v in value),
        value, key, "a list of strings")),
    "dict[str, float]": lambda value, key: {
        k: _number(v, f"{key}.{k}")
        for k, v in _expect(isinstance(value, dict), value, key, "an object").items()},
    "str | None": lambda value, key: _expect(
        value is None or isinstance(value, str), value, key, "a string path"),
    "TableFormat": lambda value, key: _expect(
        value in get_args(TableFormat), value, key, " or ".join(map(repr, get_args(TableFormat)))),
    "sim.ModelParams": lambda value, key: _read(
        ModelParams, _expect(isinstance(value, dict), value, key, "an object"), f"{key}."),
}


def _read(cls, doc: dict, prefix: str = "", beside=(), **given):
    """``cls(**given, ...)`` with every other field read from its key in ``doc``;
    the keys of the fields ``beside`` may stand in ``doc`` too, and any other
    key is an error.  ``prefix`` leads the key an error names."""
    unknown = sorted(set(doc) - {f.name for f in fields(cls) + beside if f.name not in given})
    if unknown:
        raise ConfigError(f"unknown key '{prefix}{unknown[0]}'")
    values = dict(given)
    for f in fields(cls):
        if f.name in doc:
            values[f.name] = _READERS[f.type](doc[f.name], prefix + f.name)
        elif f.default is MISSING and f.default_factory is MISSING and f.name not in given:
            raise ConfigError(f"missing required key '{prefix}{f.name}'")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(prefix + str(exc)) from exc


def parse_config(doc: dict) -> ConfigFile:
    """Build a :class:`ConfigFile` from a parsed JSON document.

    Unknown keys anywhere in the document are rejected; numeric fields are
    validated before any work starts.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    experiment = _read(ExperimentConfig, doc, beside=_OUTPUTS)
    return _read(ConfigFile, doc, beside=fields(ExperimentConfig), experiment=experiment)


def load_config(path: str) -> ConfigFile:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    return parse_config(doc)


def serialize_config(cf: ConfigFile) -> dict:
    """Inverse of :func:`parse_config` (parse -> serialize -> parse is identity)."""
    doc = {**asdict(cf.experiment), **{f.name: getattr(cf, f.name) for f in _OUTPUTS}}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items() if v is not None}


def write_csv(fh, header: str, rows) -> None:
    """Write the comma-separated names ``header``, then each row of the iterable ``rows``, to
    the text stream ``fh`` as '\\n'-ended CSV lines; a float is written as its ``repr``."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)


def _write_columns(path: str, header: str, *columns: np.ndarray) -> None:
    """Write equal-length columns as CSV, taking them into Python numbers 2^14 rows at a
    time, so no whole column is held as a list."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(fh, header, (row for i in range(0, len(columns[0]), 1 << 14)
                               for row in zip(*(c[i:i + (1 << 14)].tolist() for c in columns))))


def write_count_series(path: str, counts: CountPath, delta_n: float) -> None:
    """Write cumulative counts as CSV with header ``t,y1,y2``."""
    _write_columns(path, "t,y1,y2", np.arange(len(counts.y1)) * delta_n, counts.y1, counts.y2)


def read_count_series(path: str) -> tuple[CountPath, float, float]:
    """Parse a count-series CSV into ``(counts, delta_n, T)``.

    Enforces the format contract: header ``t,y1,y2``; finite, strictly
    increasing, equidistant times (relative tolerance 1e-9); integer
    cumulative counts starting at 0 and nondecreasing.  Only regular files are
    read, and no name ending in ``.gz``, ``.bz2``, ``.xz`` or ``.lzma``.
    """
    full_path = os.path.abspath(path)  # numpy would fetch a name that parses as a URL
    if full_path.endswith((".gz", ".bz2", ".xz", ".lzma")):  # numpy would decompress it
        raise CountSeriesError(f"count files are plain text, not compressed: {path!r}")
    if os.path.exists(full_path) and not os.path.isfile(full_path):  # a device, FIFO or pipe
        raise OSError(f"not a regular file: {path!r}")
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
        try:  # by path, numpy reads the file in chunks in C, not line by line
            rows = np.loadtxt(full_path, skiprows=1, encoding="utf-8", delimiter=",",
                              dtype=[("t", "f8"), ("y1", "i8"), ("y2", "i8")],
                              comments=None, quotechar='"', ndmin=1)
        except ValueError as exc:  # field count, non-integer or out-of-range count, non-UTF-8
            raise CountSeriesError(_first_bad_line(path) or str(exc)) from exc

    if len(rows) < 2:
        raise CountSeriesError("need at least two observation rows")
    times = rows["t"]
    if not np.all(np.isfinite(times)):
        raise CountSeriesError("observation times must be finite")
    b_n = len(times) - 1
    with np.errstate(over="ignore"):  # a span past the float range is reported below
        steps = np.diff(times)
        delta = (times[-1] - times[0]) / b_n
        T = b_n * delta  # inf also where delta is, or where it rounds up past the largest float
    if np.any(steps <= 0):
        raise CountSeriesError("observation times must be strictly increasing")
    if not np.isfinite(T):
        raise CountSeriesError("observation times must span less than the largest float")
    deviation = np.abs(np.subtract(steps, delta, out=steps), out=steps)
    if np.max(deviation) > EQUIDISTANCE_RTOL * delta:
        raise CountSeriesError("observation times must be equidistant (rel. tol. 1e-9)")
    try:  # the count columns stay views of the parsed records
        counts = CountPath(y1=rows["y1"], y2=rows["y2"])
    except ValueError as exc:
        raise CountSeriesError(str(exc)) from exc
    return counts, float(delta), float(T)


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
    _write_columns(path, "s,x1,x2", latent.times, latent.x1, latent.x2)


def mse_table_csv(rows: list[MseRow]) -> str:
    """Render MSE rows as CSV (header + one line per grid cell)."""
    buf = _io.StringIO()
    write_csv(buf, "variant,b_n,r,mse,bn_times_mse,degenerate_count,clamped_count,N",
              ([row.variant, row.b_n, row.r, row.mse, row.bn_times_mse, row.degenerate_count,
                row.clamped_count, row.n_effective + row.degenerate_count] for row in rows))
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

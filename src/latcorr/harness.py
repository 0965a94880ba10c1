"""Monte Carlo harness: the replication pipeline, MSE tables, rate checks.

A grid cell is one (b_n, r) pair with ``a_n = b_n**r``.  Every replication
owns an RNG substream derived from ``(seed, b_n, r, index)``, simulates one
latent path and one count path (:func:`simulate_replication`), estimates C
and every requested xi and CI from the counts (:func:`estimate_counts`, which
the CLI also calls), and computes the path-wise truth.  A cell's replications
run in one process in chunks of :data:`CHUNK`: the latent layer (paths,
counts, truth) in sub-chunks that bound its memory, with every substream
consumed as for one replication alone, then ``S``, every Gamma, ``C``,
``xi`` and the CIs of the whole chunk in one stacked pass.  Cell aggregation
is a fixed-order fold over replication indices.  :func:`run_mse_table` may
share a table's cells out to forked helper processes; no row depends on
where its cell ran.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import pickle
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from . import estimators, oracle, sim

__all__ = [
    "VARIANTS",
    "ExperimentConfig",
    "VariantResult",
    "ReplicationRecord",
    "MseRow",
    "gamma_for_variant",
    "simulate_replication",
    "estimate_counts",
    "run_replication",
    "run_cell",
    "aggregate_cell",
    "run_mse_table",
    "fit_rate_slope",
    "rate_check",
]

VARIANTS = ("1", "2", *estimators.VARIANT_EXPONENTS)

#: Consecutive replications estimated together, as one chunk.
CHUNK = 8
#: Bytes of fine-grid work arrays a chunk's latent layer may hold at once: one replication
#: peaks at about ``_FINE_ROWS`` float64 rows of ``b_n*m`` values, so it runs in sub-chunks of
#: 8 up to ``b_n*m`` = 512, 4 at 1024, 2 at 2048, 1 from 4096 on.  Each array then stays under
#: glibc's 128 KiB mmap threshold and is reused; 512 KiB left a desk round 0.5 MiB more resident.
CHUNK_BYTES = 1 << 18
_FINE_ROWS = 8


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment grid: model x b_n list x rate exponents x variants."""

    model: sim.ModelParams
    b_n: tuple[int, ...]
    r: tuple[float, ...]
    variants: tuple[str, ...] = VARIANTS
    replications: int = 1000
    seed: int = 0
    refinement: int = 8
    ci_level: float = 0.95
    bandwidth_overrides: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "b_n", tuple(int(b) for b in self.b_n))
        object.__setattr__(self, "r", tuple(float(x) for x in self.r))
        object.__setattr__(self, "variants", tuple(self.variants))
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not self.b_n:
            raise ValueError("b_n list must be nonempty")
        if any(b < 4 for b in self.b_n):
            raise ValueError("every b_n must be at least 4")
        if not self.r:
            raise ValueError("r list must be nonempty")
        for b_n, r in itertools.product(self.b_n, self.r):
            try:
                a_n = float(b_n) ** r
            except OverflowError:
                a_n = math.inf
            if not 0.0 < a_n < math.inf:
                raise ValueError(f"r={r} gives a_n = {b_n}**r = {a_n}, not a finite positive float")
        if not self.variants:
            raise ValueError("variants list must be nonempty")
        unknown = [v for v in self.variants if v not in VARIANTS]
        if unknown:
            raise ValueError(f"unknown variants: {unknown}")
        if self.refinement < 1:
            raise ValueError("refinement must be at least 1")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must lie strictly between 0 and 1")
        bad = [v for v in self.bandwidth_overrides if v not in estimators.VARIANT_EXPONENTS]
        if bad:
            raise ValueError(f"bandwidth_overrides only apply to kernel variants, got {bad}")
        # every override must give a window on every grid before any work starts
        for (v, e), b_n in itertools.product(self.bandwidth_overrides.items(), self.b_n):
            try:
                estimators.BandwidthSpec.from_exponent(e).resolve(b_n, self.model.T)
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"bandwidth_overrides.{v} = {e} gives no bandwidth h in "
                                 f"(0, T] at b_n={b_n}") from exc


@dataclass(frozen=True)
class VariantResult:
    xi: float
    clamped: bool
    ci: estimators.ConfidenceInterval


@dataclass(frozen=True)
class ReplicationRecord:
    """Everything measured on one replication."""

    index: int
    b_n: int
    r: float
    degenerate: bool
    C: float | None
    results: dict[str, VariantResult]
    true_R: float
    true_xi: float


@dataclass(frozen=True)
class MseRow:
    """One cell of the MSE table for one estimator variant."""

    variant: str
    b_n: int
    r: float
    mse: float
    bn_times_mse: float
    degenerate_count: int
    clamped_count: int
    n_effective: int
    #: Monte Carlo standard error of ``mse``; NaN below 2 live replications
    mse_stderr: float = field(default=math.nan, compare=False)

    @property
    def valid(self) -> bool:
        return self.n_effective > 0


def gamma_for_variant(
    tilde: estimators.TildeSeries,
    T: float,
    variant: str,
    bandwidth_overrides: dict[str, float] | None = None,
) -> estimators.GammaMatrix:
    """Dispatch to the Gamma estimator named by ``variant``.

    Kernel variants use ``h = T * b_n**(-e)`` with the standard exponents
    (w: 0.25, m: 0.5, n: 0.75) unless overridden.
    """
    if variant == "1":
        return estimators.gamma_v1(tilde, T)
    if variant == "2":
        return estimators.gamma_v2(tilde, T)
    if variant in estimators.VARIANT_EXPONENTS:
        e = (bandwidth_overrides or {}).get(variant, estimators.VARIANT_EXPONENTS[variant])
        return estimators.gamma_kernel(tilde, T, estimators.BandwidthSpec.from_exponent(e))
    raise ValueError(f"unknown variant {variant!r}")


def simulate_replication(
    config: ExperimentConfig, b_n: int, r: float, index: int
) -> tuple[sim.SamplingDesign, sim.LatentPath, sim.CountPath]:
    """Latent path and count path of one replication of one grid cell.

    Deterministic given ``(config.seed, b_n, r, index)``: the replication's
    substream is consumed by the latent normals, then the Poisson draws.
    """
    return _simulate(config.model, config.refinement, b_n, r,
                     sim.replication_rng(config.seed, b_n, r, index))


def _simulate(model: sim.ModelParams, refinement: int, b_n: int, r: float, rng):
    """:func:`simulate_replication` for the replication whose generator is
    ``rng``, or for a list of generators, one per replication: the path and
    the counts then have a leading replication axis."""
    a_n = float(b_n) ** r
    design = sim.SamplingDesign(b_n=b_n, a_n=a_n, m=refinement, T=model.T)
    with np.errstate(over="ignore"):  # an overflow gives inf, which simulate_counts rejects
        path = sim.simulate_latent(model, design, rng)
        counts = sim.simulate_counts(sim.integrated_intensity(path, design), a_n, rng)
    return design, path, counts


def _latent_layer(seed: int, model: sim.ModelParams, refinement: int, b_n: int, r: float,
                  indices: range):
    """Design, then ``(counts, true_R, true_xi)`` per replication in ``indices``, the
    fine-grid work in sub-chunks of at most :data:`CHUNK_BYTES`; the counts are
    read-only, as the chunk cache shares them."""
    size = max(1, min(CHUNK, CHUNK_BYTES // (_FINE_ROWS * 8 * b_n * refinement)))
    rows = []
    for part in (indices[k:k + size] for k in range(0, len(indices), size)):
        rngs = [sim.replication_rng(seed, b_n, r, i) for i in part]
        design, path, counts = _simulate(model, refinement, b_n, r, rngs)
        truths = oracle.truth_record(path, model)
        counts.y1.flags.writeable = counts.y2.flags.writeable = False
        rows += [(row, t.R, t.xi) for row, t in zip(counts.rows(), truths)]
    return design, tuple(rows)


@functools.lru_cache(maxsize=1)
def _latent_chunk(seed: int, model: sim.ModelParams, refinement: int, b_n: int, r: float,
                  start: int, stop: int):
    """:func:`_latent_layer` of replications ``start..stop-1``, or None if one
    of them fails.  Keeps only the chunk :func:`run_cell` is working through;
    the arguments are every input that fixes it."""
    try:
        return _latent_layer(seed, model, refinement, b_n, r, range(start, stop))
    except Exception:  # not swallowed: run_replication reruns each index alone, which raises it
        return None


def _frozen(cls, **fields):
    """``cls(**fields)`` of a frozen dataclass with no ``__post_init__``, minus its setattrs."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _estimate_arrays(counts: sim.CountPath, a_n, delta_n, T, variants, overrides):
    """``S`` and ``{variant: Gamma}`` of :func:`estimate_counts`, over any leading axes."""
    with np.errstate(over="ignore", invalid="ignore"):  # the tail flags an overflow's row
        tilde = estimators.tilde_series(counts, a_n, delta_n)
        return estimators.estimate_S(tilde), {
            v: gamma_for_variant(tilde, T, v, overrides) for v in variants}


def _estimate_tail(S, gammas, b_n: int, T: float, level: float):
    """Per row of :func:`_estimate_arrays`' output, flattened, yield ``(C, {variant:
    VariantResult})`` or the DegenerateDataError of the scalar chain estimate_correlation ->
    estimate_xi -> confidence_interval, with its bits (``xi`` from :func:`estimators.xi_forms`)."""
    sums = np.stack([S.s12, S.s11, S.s22], axis=-1).reshape(-1, 3).tolist()
    G = np.reshape([g.values for g in gammas.values()], (len(gammas), len(sums), 3, 3))
    forms, errors = estimators.xi_forms(sums, G)
    z = estimators._normal_quantile(level)
    for (s12, s11, s22), raws, error in zip(sums, forms.T.tolist(), errors):
        denom2 = s11 * s22
        C = math.nan if denom2 <= 0.0 else s12 / math.sqrt(denom2)
        bad = [raw for raw in raws if not math.isfinite(raw)]
        if denom2 <= 0.0:
            error = estimators.DegenerateDataError("S11*S22 = 0: correlation undefined")
        elif not math.isfinite(C):
            error = estimators.DegenerateDataError(f"correlation is not finite: C = {C}")
        elif bad and not error:
            error = estimators.DegenerateDataError(f"asymptotic variance is not finite: v'Gv = {bad[0]}")
        if error:
            yield error
            continue
        C = min(1.0, max(-1.0, C))
        results = {}
        for variant, raw in zip(gammas, raws):
            xi = max(raw, 0.0)
            half = z * math.sqrt(xi * T / b_n)
            lo_raw, hi_raw = C - half, C + half
            ci = _frozen(estimators.ConfidenceInterval, lo_raw=lo_raw, hi_raw=hi_raw,
                         lo=max(lo_raw, -1.0), hi=min(hi_raw, 1.0), lo_clamped=lo_raw < -1.0,
                         hi_clamped=hi_raw > 1.0, level=level)
            results[variant] = _frozen(VariantResult, xi=xi, clamped=raw < 0.0, ci=ci)
        yield C, results


def estimate_counts(
    counts: sim.CountPath, a_n: float, delta_n: float, T: float,
    variants: tuple[str, ...] | list[str], level: float,
    bandwidth_overrides: dict[str, float] | None = None,
) -> tuple[float, dict[str, VariantResult]]:
    """Correlation estimate ``C`` and, per variant, ``xi`` and its CI.

    Raises ``estimators.DegenerateDataError`` if S11*S22 = 0, or if C, S or an
    xi is not finite (finite counts and scales whose products overflow), and
    ValueError if ``a_n``, ``delta_n``, ``T`` or ``level`` is out of range.
    """
    if not (T > 0 and math.isfinite(T)):
        raise ValueError("T must be positive and finite")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    S, gammas = _estimate_arrays(counts, a_n, delta_n, T, variants, bandwidth_overrides)
    (row,) = _estimate_tail(S, gammas, counts.b_n, T, level)
    if isinstance(row, estimators.DegenerateDataError):
        raise row
    return row


_chunk_arrays_entry: list = [None]  # (chunk, variants, overrides, level, rows) of the last call


def _chunk_estimates(chunk, config: ExperimentConfig) -> list:
    """:func:`_estimate_tail` of each replication of a :func:`_latent_layer` chunk, in
    one stacked pass.  A one-entry cache keyed by the estimation settings and the
    chunk object, which it holds, so a chunk computed anew never meets old estimates."""
    key = (config.variants, config.bandwidth_overrides, config.ci_level)
    entry = _chunk_arrays_entry[0]
    if not (entry and entry[0] is chunk and entry[1:4] == key):
        design, latent = chunk
        S, gammas = _estimate_arrays(sim.CountPath.stack([row[0] for row in latent]), design.a_n,
                                     design.delta_n, config.model.T, *key[:2])
        rows = list(_estimate_tail(S, gammas, design.b_n, config.model.T, config.ci_level))
        entry = _chunk_arrays_entry[0] = (chunk, key[0], dict(key[1]), key[2], rows)
    return entry[4]


def run_replication(
    config: ExperimentConfig, b_n: int, r: float, index: int
) -> ReplicationRecord:
    """Simulate and estimate one replication of one grid cell.

    Deterministic given ``(config.seed, b_n, r, index)``.  A replication with
    degenerate count data (S11*S22 = 0) is flagged, not fatal; a degenerate
    model (zero volatility) aborts immediately.

    It comes from the chunk of :data:`CHUNK` replications that ``index`` falls
    in, computed on the first call and kept until another chunk is asked for.
    One outside ``config.replications``, or of a chunk in which some replication
    fails, is computed alone, so it raises its own error, or none.
    """
    if config.model.sigma1 == 0.0 or config.model.sigma2 == 0.0:
        raise estimators.DegenerateDataError(
            "model has a zero volatility: true correlation targets are undefined")
    key = (config.seed, config.model, config.refinement, b_n, r)
    start = index - index % CHUNK
    chunk = None
    if 0 <= index < config.replications:
        chunk = _latent_chunk(*key, start, min(start + CHUNK, config.replications))
    if chunk is None:
        chunk, start = _latent_layer(*key, range(index, index + 1)), index
    _, true_R, true_xi = chunk[1][index - start]
    row = _chunk_estimates(chunk, config)[index - start]
    C, results = (None, {}) if isinstance(row, estimators.DegenerateDataError) else row
    return _frozen(ReplicationRecord, index=index, b_n=b_n, r=r, degenerate=C is None, C=C,
                   results=dict(results), true_R=true_R, true_xi=true_xi)


def run_cell(
    config: ExperimentConfig, b_n: int, r: float, n_workers: int = 1
) -> list[ReplicationRecord]:
    """All replications of one cell, ordered by replication index.

    A cell always runs in the calling process; the unit of parallel work is a
    cell (:func:`run_mse_table`).  ``n_workers`` is accepted for symmetry with
    it and validated.
    """
    if n_workers < 0:
        raise ValueError("n_workers must be nonnegative")
    return [run_replication(config, b_n, r, i) for i in range(config.replications)]


def aggregate_cell(
    records: list[ReplicationRecord], config: ExperimentConfig, b_n: int, r: float
) -> list[MseRow]:
    """Fold one cell's replication records into per-variant MSE rows."""
    degenerate = sum(rec.degenerate for rec in records)
    live = [rec for rec in records if not rec.degenerate]  # index order preserved
    n_eff = len(live)
    rows = []
    for variant in config.variants:
        sq = np.array([(rec.results[variant].xi - rec.true_xi) ** 2 for rec in live])
        mse = float(np.sum(sq) / n_eff) if n_eff else math.nan
        d = sq - mse  # the steps of np.std(sq, ddof=1), bit for bit, without its call overhead
        stderr = (math.sqrt(float(np.sum(d * d)) / (n_eff - 1)) / math.sqrt(n_eff)
                  if n_eff > 1 else math.nan)
        clamped = sum(rec.results[variant].clamped for rec in live)
        rows.append(
            MseRow(variant=variant, b_n=b_n, r=r, mse=mse, bn_times_mse=b_n * mse,
                   degenerate_count=degenerate, clamped_count=clamped, n_effective=n_eff,
                   mse_stderr=stderr)
        )
    return rows


def run_mse_table(config: ExperimentConfig, n_workers: int = 1) -> list[MseRow]:
    """MSE of every variant against path-wise truth on the full grid.

    Rows are ordered (r, b_n, variant) with r and b_n in config order.
    ``mse = mean((xi_hat - xi_true)^2)`` over non-degenerate replications,
    aggregated in replication-index order.  ``n_workers`` caps the processes,
    the caller included, that share the cells (0 = every usable core, 1 = all
    in process; so is a table run while the process has another thread, as
    the helpers serve one table at a time and a fork copies only the calling
    thread).  The rows are bit-identical for any value (:func:`_run_shared`).
    """
    if n_workers < 0:
        raise ValueError("n_workers must be nonnegative")
    cells = [(r, b_n) for r in config.r for b_n in config.b_n]
    shared = n_workers != 1 and _CAN_FORK and threading.active_count() == 1
    done = _run_shared(config, cells, n_workers) if shared else {}
    return [row for i, (r, b_n) in enumerate(cells)
            for row in done.get(i) or _cell_rows(config, r, b_n)]


def _cell_rows(config: ExperimentConfig, r: float, b_n: int) -> list[MseRow]:
    return aggregate_cell(run_cell(config, b_n, r), config, b_n, r)


# A helper is an os.fork child, kept for later tables, that reads pickled (config, cells)
# commands from a pipe and writes back the rows of each cell up to the first that raises.
# It ignores SIGINT and exits at the end of its command pipe, so when the caller exits.  A
# call that fails to reach a helper, or is interrupted, kills every helper, so none is left
# at work on its table.  A helper keeps the module state it was forked with: code that
# patches that state passes n_workers=1 or calls _stop_helpers.
_CAN_FORK = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
_helpers: list = []  # (pid, command pipe, reply pipe) of each live helper


def _shares(config: ExperimentConfig, n_workers: int) -> list[list[int]]:
    """Table positions of the cells each of k = min(``n_workers`` or the usable cores,
    the usable cores, the cells) processes runs, the caller's first: largest ``b_n``
    first, each to the least loaded, at a cost per replication of ``1024 + b_n *
    refinement`` fine steps (fitted to cell times from ``b_n`` 16 to 1024)."""
    sizes = [b_n for _ in config.r for b_n in config.b_n]
    usable = len(os.sched_getaffinity(0))
    loads = [0] * min(n_workers or usable, usable, len(sizes))
    shares: list[list[int]] = [[] for _ in loads]
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += 1024 + sizes[i] * config.refinement
    return [sorted(share) for share in shares]


def _run_shared(config: ExperimentConfig, cells: list, n_workers: int) -> dict:
    """``{position: rows}`` of the cells that ran without error, the caller's share in
    process and each other on a helper.  :func:`run_mse_table` reruns any other cell in
    process in table order, so an error raised is the serial loop's."""
    own, *others = _shares(config, n_workers)
    done = {}
    try:
        while len(_helpers) < len(others):
            _helpers.append(_start_helper())
        for (_, commands, _), share in zip(_helpers, others):
            pickle.dump((config, [cells[i] for i in share]), commands, pickle.HIGHEST_PROTOCOL)
            commands.flush()
        for i in own:
            try:
                done[i] = _cell_rows(config, *cells[i])
            except Exception:
                break
        for (_, _, replies), share in zip(_helpers, others):
            for i, rows in zip(share, pickle.load(replies)):
                # with the caller's r and b_n objects, as in rows run here: no float of their own
                done[i] = [replace(row, r=cells[i][0], b_n=cells[i][1]) for row in rows]
    except (OSError, EOFError, pickle.UnpicklingError):  # no fork or pipe, or a helper died
        _stop_helpers()
    except BaseException:  # Ctrl-C or a fault: a helper left at work would hold up the next call
        _stop_helpers()
        raise
    return done


def _start_helper() -> tuple:
    import signal  # only helpers need it; kept off `import latcorr`

    fds = (cmd_r, cmd_w, rep_r, rep_w) = os.pipe() + os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    if pid:
        os.close(cmd_r)
        os.close(rep_w)
        return pid, open(cmd_w, "wb"), open(rep_r, "rb")
    try:  # the helper
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        os.close(cmd_w)  # or its command pipe would never end
        os.close(rep_r)
        commands, replies = open(cmd_r, "rb"), open(rep_w, "wb")
        while True:  # until EOFError at the end of the commands
            config, cells = pickle.load(commands)
            rows = []
            with contextlib.suppress(Exception):  # the caller reruns the cell, which raises it
                for r, b_n in cells:
                    rows.append(_cell_rows(config, r, b_n))
            pickle.dump(rows, replies, pickle.HIGHEST_PROTOCOL)
            replies.flush()
    finally:
        os._exit(0)


def _stop_helpers(kill: bool = True) -> None:
    """Close this process's ends of every helper's pipes; with ``kill``, kill and reap each."""
    import signal

    while _helpers:
        pid, *pipes = _helpers.pop()
        for pipe in pipes:
            with contextlib.suppress(OSError):  # a command left unsent on a broken pipe
                pipe.close()
        with contextlib.suppress(OSError):  # gone already, or reaped elsewhere
            if kill:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


if _CAN_FORK:  # a forked child, a helper included, only closes its copies of the helper pipes
    os.register_at_fork(after_in_child=functools.partial(_stop_helpers, kill=False))


def fit_rate_slope(rows: list[MseRow], variant: str, r: float) -> float:
    """Least-squares slope of log(mse) against log(b_n) for one variant.

    Invalid rows are excluded; fewer than three remaining points is an error.
    """
    pts = [
        (row.b_n, row.mse)
        for row in rows
        if row.variant == variant and row.r == r and row.valid and row.mse > 0
    ]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 valid rows for variant {variant!r}, got {len(pts)}")
    logb = np.log([b for b, _ in pts])
    logm = np.log([m for _, m in pts])
    slope, _ = np.polyfit(logb, logm, 1)
    return float(slope)


def rate_check(config: ExperimentConfig, variant: str, n_workers: int = 1) -> float:
    """Run the grid (single r required) and fit the MSE decay slope."""
    if len(config.r) != 1:
        raise ValueError("rate_check needs a config with exactly one rate exponent")
    if len(config.b_n) < 3:
        raise ValueError("rate_check needs at least 3 grid sizes")
    rows = run_mse_table(config, n_workers=n_workers)
    return fit_rate_slope(rows, variant, config.r[0])

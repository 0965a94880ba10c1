"""Monte Carlo harness: the replication pipeline, MSE tables, rate checks.

A grid cell is one (b_n, r) pair with ``a_n = b_n**r``; a column is one
position of the config's ``b_n`` with every ``r``.  Every replication owns an
RNG substream derived from ``(seed, b_n, r, index)``, simulates one latent
path and one count path (:func:`simulate_replication`), estimates C and every
requested xi and CI from the counts with the bits of :func:`estimate_counts`
(the scalar chain, which the CLI calls), and computes the path-wise truth.  One
walk (:func:`_column`) runs a range of indices for some ``r`` in chunks of
:data:`CHUNK` indices stacked over them, ``r``-major: the latent layer (paths,
counts, truth) in sub-chunks of ``SUB_CHUNK_STEPS // (b_n * m)`` rows (one at
least), each substream consumed as for its replication alone, then ``S``, every
Gamma, ``C``, ``xi`` and the CIs of the stack in one pass of numpy columns
(:func:`_estimate_tail`), one ``a_n`` per row.  A table folds each cell's
columns in index order and builds no per-replication record; :func:`run_cell`
and :func:`run_replication` build them from the walk of one ``r``.
:func:`run_mse_table` may share its columns out to forked helpers, which reply
with them.  No row depends on where, or beside which ``r``, it ran.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass, field

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

#: Consecutive replication indices estimated together, as one chunk (for every r of a column).
CHUNK = 8
#: Fine steps a chunk's latent layer works on at once: it runs in sub-chunks of
#: ``max(1, SUB_CHUNK_STEPS // (b_n * m))`` rows, 32 at ``b_n * m`` = 128, 8 at 512, 1 from 4096.
#: The largest array binds it: ``oracle._gram_targets``' ``dots``, 3 rows of ``b_n * m + 1``
#: float64 per replication, 96-120 KiB, under glibc's 128 KiB mmap threshold, so the heap reuses
#: it (one alone passes that from ``b_n * m`` = 5461).  4x the bound ran desk tables 1.08-1.19x
#: faster, but perfbench's probe-scaled ``desk_study`` only 1.02-1.06x, peak RSS 3-5% higher.
SUB_CHUNK_STEPS = 1 << 12
#: Most fine steps ``b_n * refinement`` a config may ask for; one replication's latent layer
#: then holds about eight float64 rows of that length, 1 GiB.
MAX_FINE_STEPS = 1 << 24


def _reject_repeats(variants) -> None:
    repeated = [v for v in dict.fromkeys(variants) if variants.count(v) > 1]
    if repeated:
        raise ValueError(f"repeated variants: {repeated}")


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
        object.__setattr__(self, "b_n", tuple(sim._integer_at_least(b, 4, "every b_n")
                                              for b in self.b_n))
        object.__setattr__(self, "r", tuple(float(x) for x in self.r))
        object.__setattr__(self, "variants", tuple(self.variants))
        sim._integer_at_least(self.seed, 0, "seed")
        sim._integer_at_least(self.replications, 1, "replications")
        if not self.b_n:
            raise ValueError("b_n list must be nonempty")
        if not self.r:
            raise ValueError("r list must be nonempty")
        for b_n, r in itertools.product(self.b_n, self.r):
            try:
                a_n = float(b_n) ** r
            except OverflowError:
                a_n = math.inf
            if not 0.0 < a_n < math.inf:
                raise ValueError(f"r={r} gives a_n = {b_n}**r = {a_n}, not a finite positive float")
        keys: dict[int, float] = {}
        for r in self.r:  # each r its own substreams: no two may round to one 1/1000
            if (key := sim._r_key(r)) in keys:
                raise ValueError(f"r={keys[key]} and r={r} share one substream key "
                                 "(round(1000*r)), so their cells would share every draw")
            keys[key] = r
        if not self.variants:
            raise ValueError("variants list must be nonempty")
        unknown = [v for v in self.variants if v not in VARIANTS]
        if unknown:
            raise ValueError(f"unknown variants: {unknown}")
        _reject_repeats(self.variants)
        sim._integer_at_least(self.refinement, 1, "refinement")
        if max(self.b_n) * self.refinement > MAX_FINE_STEPS:
            raise ValueError(f"b_n * refinement = {max(self.b_n)} * {self.refinement} fine steps "
                             f"is above the cap of {MAX_FINE_STEPS}")
        sim._open_unit(self.ci_level, "ci_level")
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

    Deterministic given ``(config.seed, b_n, r, index)``: the replication's substream is
    consumed by the latent normals, then the Poisson draws.  A cell off the config's grid, or
    an ``index`` that is not an integer of at least 0, raises ValueError before any draw.
    """
    sim._integer_at_least(index, 0, "index")
    _check_cell(config, b_n, r)
    design = sim.SamplingDesign(b_n=b_n, a_n=float(b_n) ** r, m=config.refinement, T=config.model.T)
    rng = sim.replication_rng(config.seed, b_n, r, index)
    return (design, *_simulate(config.model, design, design.a_n, rng))


def _check_cell(config: ExperimentConfig, b_n: int, r: float) -> None:
    """Raise a ValueError unless ``(b_n, r)`` is a cell of ``config``'s checked grid."""
    if b_n not in config.b_n or r not in config.r:
        raise ValueError(f"cell (b_n={b_n!r}, r={r!r}) is not in the config's grid")


def _simulate(model: sim.ModelParams, design: sim.SamplingDesign, a_n, rng):
    """Latent path and counts on ``design``'s grid of the replication whose generator is
    ``rng``, or of a sequence (list, tuple or 1-d array) of generators with ``a_n`` one value
    or one per generator: the path and the counts then have a leading replication axis."""
    with np.errstate(over="ignore"):  # an overflow gives inf, which simulate_counts rejects
        path = sim.simulate_latent(model, design, rng)
        counts = sim.simulate_counts(sim.integrated_intensity(path, design), a_n, rng)
    return path, counts


def _latent_layer(config: ExperimentConfig, b_n: int, rs: tuple[float, ...], indices: range,
                  a_n: list[float]):
    """Design (the first r's, whose grid every r shares), the count paths of the replications
    in ``indices`` for each ``r`` of ``rs``, stacked ``r``-major with ``a_n`` one per row, and
    their ``true_R`` and ``true_xi`` arrays; the fine-grid work runs in sub-chunks of at most
    :data:`SUB_CHUNK_STEPS` fine steps, each replication's substream consumed as for it alone."""
    keys = list(itertools.product(rs, indices))
    design = sim.SamplingDesign(b_n=b_n, a_n=a_n[0], m=config.refinement, T=config.model.T)
    size = max(1, SUB_CHUNK_STEPS // (b_n * config.refinement))
    parts = []
    for k in range(0, len(keys), size):
        rngs = [sim.replication_rng(config.seed, b_n, r, i) for r, i in keys[k:k + size]]
        path, counts = _simulate(config.model, design, a_n[k:k + size], rngs)
        truth = oracle.truth_record(path, config.model)
        parts.append((counts.y1, counts.y2, truth.R, truth.xi))
    y1, y2, true_R, true_xi = map(np.concatenate, zip(*parts))
    return design, sim.CountPath(y1=y1, y2=y2), true_R, true_xi


def _estimate_arrays(counts: sim.CountPath, a_n, delta_n, T, variants, overrides):
    """``S`` and ``{variant: Gamma}`` of :func:`estimate_counts`, over any leading axes; ``a_n``
    is one value or one per leading row (:func:`estimators.tilde_series`)."""
    with np.errstate(over="ignore", invalid="ignore"):  # the tail flags an overflow's row
        tilde = estimators.tilde_series(counts, a_n, delta_n)
        return estimators.estimate_S(tilde), {
            v: gamma_for_variant(tilde, T, v, overrides) for v in variants}


def _estimate_tail(S, gammas, b_n: int, T: float, level: float):
    """Columns of the scalar chain estimate_correlation -> estimate_xi -> confidence_interval
    over the R rows of :func:`_estimate_arrays`' output, with its bits: ``C`` (R,) clipped to
    [-1, 1], each variant's ``v'Gv`` (:func:`estimators.xi_forms`) and CI half-width (V, R),
    and the mask (R,) of the rows on which the chain raises."""
    sums = np.stack([S.s12, S.s11, S.s22], axis=-1).reshape(-1, 3)
    G = np.reshape([g.values for g in gammas.values()], (len(gammas), len(sums), 3, 3))
    raw, errors = estimators.xi_forms(sums.tolist(), G)
    with np.errstate(all="ignore"):  # the mask holds each row whose C or v'Gv is not finite
        C = sums[:, 0] / np.sqrt(sums[:, 1] * sums[:, 2])
        half = estimators._normal_quantile(level) * np.sqrt(np.maximum(raw, 0.0) * T / b_n)
    mask = ~np.isfinite(C) | [e is not None for e in errors] | ~np.isfinite(raw).all(axis=0)
    return np.clip(C, -1.0, 1.0), raw, half, mask


def estimate_counts(
    counts: sim.CountPath, a_n: float, delta_n: float, T: float,
    variants: tuple[str, ...] | list[str], level: float,
) -> tuple[float, dict[str, VariantResult]]:
    """Correlation estimate ``C`` and, per variant, ``xi`` and its CI, from the scalar chain
    estimate_correlation -> estimate_xi -> confidence_interval.

    Raises ``estimators.DegenerateDataError`` if S11*S22 = 0, or if C, S or an
    xi is not finite (finite counts and scales whose products overflow), and
    ValueError if a variant repeats or ``a_n``, ``delta_n``, ``T`` or ``level``
    is out of range.
    """
    _reject_repeats(variants)
    sim._positive_finite(T, "T")
    sim._open_unit(level, "level")
    S, gammas = _estimate_arrays(counts, a_n, delta_n, T, variants, None)
    with np.errstate(over="ignore", invalid="ignore"):  # estimate_xi raises on a non-finite v'Gv
        C = estimators.estimate_correlation(S)
        xis = {v: estimators.estimate_xi(S, G) for v, G in gammas.items()}
    return C, {v: VariantResult(xi=xi.xi, clamped=xi.clamped, ci=estimators.confidence_interval(
        C, xi, counts.b_n, T, level)) for v, xi in xis.items()}


def _chunk(config: ExperimentConfig, b_n: int, rs: tuple[float, ...], indices: range):
    """Columns of the replications in ``indices`` for each ``r`` of ``rs``, stacked ``r``-major:
    their latent layer, then ``S``, every Gamma and the batched tail in one pass, each row with
    its own ``a_n``.  Returns :func:`_estimate_tail`'s ``C``, ``v'Gv``, CI half-widths and mask,
    then ``true_R`` and ``true_xi`` (R,)."""
    model = config.model
    if model.sigma1 == 0.0 or model.sigma2 == 0.0:
        raise estimators.DegenerateDataError(
            "model has a zero volatility: true correlation targets are undefined")
    a_n = [float(b_n) ** r for r in rs for _ in indices]
    design, counts, true_R, true_xi = _latent_layer(config, b_n, rs, indices, a_n)
    S, gammas = _estimate_arrays(counts, a_n, design.delta_n, model.T, config.variants,
                                 config.bandwidth_overrides)
    return (*_estimate_tail(S, gammas, b_n, model.T, config.ci_level), true_R, true_xi)


def _column(config: ExperimentConfig, b_n: int, rs: tuple[float, ...], indices: range) -> list:
    """:func:`_chunk`'s six columns of the replications in ``indices`` for each ``r`` of ``rs``,
    each split by ``r`` and joined over the chunks of :data:`CHUNK` indices in index order:
    ``C`` (len(rs), n), ``v'Gv`` and the CI half-widths (V, len(rs), n), then the mask,
    ``true_R`` and ``true_xi`` (len(rs), n).  A chunk that raises runs again one index at a
    time, so the first failing index raises its own error."""
    parts = []
    for k in range(0, len(indices), CHUNK):
        chunk = indices[k:k + CHUNK]
        try:
            parts.append(_chunk(config, b_n, rs, chunk))
        except Exception:  # not swallowed: the index that fails raises it again
            parts += [_chunk(config, b_n, rs, range(i, i + 1)) for i in chunk]
    return [np.concatenate([p[k].reshape(*p[k].shape[:-1], len(rs), -1) for p in parts], axis=-1)
            for k in range(6)]


def _records(config: ExperimentConfig, b_n: int, r: float,
             indices: range) -> list[ReplicationRecord]:
    """The records of one cell's replications in ``indices``, built from :func:`_column`'s
    columns: ``xi = max(v'Gv, 0)`` and the CI ``C -+ half`` of each live row."""
    _check_cell(config, b_n, r)
    C, raw, half, mask, true_R, true_xi = (c[..., 0, :]
                                           for c in _column(config, b_n, (r,), indices))
    return [ReplicationRecord(
        index=index, b_n=b_n, r=r, degenerate=dead, C=None if dead else c,
        results={} if dead else {
            v: VariantResult(xi=max(x, 0.0), clamped=x < 0.0,
                             ci=estimators._interval(c, h, config.ci_level))
            for v, x, h in zip(config.variants, raws, halves)},
        true_R=t_R, true_xi=t_xi)
        for index, c, raws, halves, dead, t_R, t_xi in zip(
            indices, C.tolist(), raw.T.tolist(), half.T.tolist(), mask.tolist(),
            true_R.tolist(), true_xi.tolist())]


def run_replication(
    config: ExperimentConfig, b_n: int, r: float, index: int
) -> ReplicationRecord:
    """Simulate and estimate one replication of one grid cell.

    Deterministic given ``(config.seed, b_n, r, index)``, and bit for bit the
    record :func:`run_cell` gives it.  A replication with degenerate count data
    (S11*S22 = 0) is flagged, not fatal; a degenerate model (zero volatility)
    aborts immediately.
    """
    sim._integer_at_least(index, 0, "index")
    return _records(config, b_n, r, range(index, index + 1))[0]


def run_cell(
    config: ExperimentConfig, b_n: int, r: float, n_workers: int = 1
) -> list[ReplicationRecord]:
    """The records of all replications of one cell in index order, from the walk a
    table folds (:func:`_column`): the first failing index raises its own error.

    A cell always runs in the calling process; the unit of parallel work is a
    column (:func:`run_mse_table`).  ``n_workers`` is accepted for symmetry with
    it and validated.
    """
    sim._integer_at_least(n_workers, 0, "n_workers")
    return _records(config, b_n, r, range(config.replications))


def aggregate_cell(
    records: list[ReplicationRecord], config: ExperimentConfig, b_n: int, r: float
) -> list[MseRow]:
    """Fold one cell's replication records into per-variant MSE rows (:func:`_fold`)."""
    # a record keeps max(v'Gv, 0) and whether v'Gv < 0: -1 stands for a clamped form
    raw = [[math.nan if rec.degenerate else -1.0 if rec.results[v].clamped else rec.results[v].xi
            for rec in records] for v in config.variants]
    return _fold(config, b_n, r, np.array(raw), np.array([rec.degenerate for rec in records]),
                 np.array([rec.true_xi for rec in records]))


def _fold(config: ExperimentConfig, b_n: int, r: float, raw, mask, true_xi) -> list[MseRow]:
    """Per-variant MSE rows of one cell from its columns in replication-index order: each
    variant's ``v'Gv`` (V, n), the degenerate mask and ``true_xi`` (n,)."""
    raw, true_xi = raw[:, ~mask], true_xi[~mask]
    n_eff = len(true_xi)
    # libm's pow, as Python's float ** takes it: numpy's ** 2 is x*x, which differs in the last bit
    sq = np.float_power(np.maximum(raw, 0.0) - true_xi, 2.0)
    rows = []
    for variant, forms, s in zip(config.variants, raw, sq):
        mse = float(np.sum(s) / n_eff) if n_eff else math.nan
        d = s - mse  # the steps of np.std(s, ddof=1), bit for bit, without its call overhead
        stderr = (math.sqrt(float(np.sum(d * d)) / (n_eff - 1)) / math.sqrt(n_eff)
                  if n_eff > 1 else math.nan)
        rows.append(MseRow(variant=variant, b_n=b_n, r=r, mse=mse, bn_times_mse=b_n * mse,
                           degenerate_count=len(mask) - n_eff, n_effective=n_eff,
                           clamped_count=int(np.count_nonzero(forms < 0.0)), mse_stderr=stderr))
    return rows


def run_mse_table(config: ExperimentConfig, n_workers: int = 1) -> list[MseRow]:
    """MSE of every variant against path-wise truth on the full grid.

    Rows are ordered (r, b_n, variant) with r and b_n in config order.
    ``mse = mean((xi_hat - xi_true)^2)`` over non-degenerate replications,
    aggregated in replication-index order.  Each column (one ``b_n``, every
    ``r``) runs through :func:`_column` and each cell folds here (:func:`_fold`):
    no per-replication record.  ``n_workers`` caps the processes, the caller
    included, that share the columns (0 = every usable core, 1 = all in process;
    so is a table run while the process has another thread, as the helpers serve
    one table at a time and a fork copies only the calling thread).  A column
    that did not come back (:func:`_run_shared`) reruns cell by cell in table
    order, so an error raised is the serial loop's.  The rows are bit-identical
    for any value.
    """
    sim._integer_at_least(n_workers, 0, "n_workers")
    shared = n_workers != 1 and _CAN_FORK and threading.active_count() == 1
    done = _run_shared(config, n_workers if shared else 1)
    rows, indices = [], range(config.replications)
    for k, r in enumerate(config.r):
        for column, b_n in enumerate(config.b_n):
            # the cell is row k of its shared column, or the one row of a walk of its r alone
            columns, j = ((done[column], k) if column in done
                          else (_column(config, b_n, (r,), indices), 0))
            rows += _fold(config, b_n, r, columns[1][:, j], columns[3][j], columns[5][j])
    return rows


# A helper is an os.fork child, kept for later tables, that receives (config, columns) commands
# on its end of one duplex multiprocessing.Pipe and sends back every column's walk (_column),
# or exits if one raises.  It ignores SIGINT and exits at the end of its pipe, so when the
# caller exits.  Any failure of a shared table kills every helper, so none is left at work on
# it.  A helper keeps the functions it was forked with: code that monkeypatches them passes
# n_workers=1 or calls _stop_helpers.
_CAN_FORK = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
_helpers: list = []  # (pid, the caller's end of its pipe) of each live helper


def _shares(config: ExperimentConfig, n_workers: int) -> list[list[int]]:
    """The columns, in config order, each of k = min(``n_workers`` or the usable cores,
    the usable cores, the columns) processes runs, the caller's first, column by column:
    largest ``b_n`` first, each to the least loaded, at a cost per replication and r of
    ``1024 + b_n * refinement`` fine steps (fitted to cell times from ``b_n`` 16 to 1024)."""
    n_b = len(config.b_n)
    usable = len(os.sched_getaffinity(0)) if n_workers != 1 else 1
    loads = [0] * min(n_workers or usable, usable, n_b)
    shares: list[list[int]] = [[] for _ in loads]
    for column in sorted(range(n_b), key=lambda c: -config.b_n[c]):
        k = loads.index(min(loads))
        shares[k].append(column)
        loads[k] += len(config.r) * (1024 + config.b_n[column] * config.refinement)
    return [sorted(share) for share in shares]


def _run_shared(config: ExperimentConfig, n_workers: int) -> dict:
    """``{column: columns}`` (:func:`_column` of every ``r``) of the columns done, the caller's
    share in process and each other on a helper.  Any ``Exception`` (a column that raises
    here, a failed fork or pipe, a helper that died, one whose column raised included) stops
    every helper and returns the columns done so far: :func:`run_mse_table` reruns the rest.
    A ``BaseException`` (Ctrl-C) stops them and propagates."""
    own, *others = _shares(config, n_workers)
    done, indices = {}, range(config.replications)
    try:
        while len(_helpers) < len(others):
            _helpers.append(_start_helper())
        for (_, pipe), share in zip(_helpers, others):
            pipe.send((config, share))
        for column in own:
            done[column] = _column(config, config.b_n[column], config.r, indices)
        for (_, pipe), share in zip(_helpers, others):
            done.update(zip(share, pipe.recv()))
    except Exception:
        _stop_helpers()
    except BaseException:
        _stop_helpers()
        raise
    return done


def _start_helper() -> tuple:
    import signal  # only helpers need these; kept off `import latcorr`
    from multiprocessing import Pipe

    pipe, end = Pipe()
    try:
        pid = os.fork()
    except OSError:
        pipe.close()
        end.close()
        raise
    if pid:
        end.close()
        return pid, pipe
    try:  # the helper
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        pipe.close()  # or recv would not end when the caller closes its end
        while True:  # until EOFError at the end of the pipe, or a column that raises
            config, columns = end.recv()
            end.send([_column(config, config.b_n[column], config.r, range(config.replications))
                      for column in columns])
    finally:
        os._exit(0)


def _stop_helpers(kill: bool = True) -> None:
    """Close this process's end of every helper's pipe; with ``kill``, kill and reap each."""
    import signal

    while _helpers:
        pid, pipe = _helpers.pop()
        pipe.close()
        with contextlib.suppress(OSError):  # gone already, or reaped elsewhere
            if kill:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


if _CAN_FORK:  # a forked child, a helper included, only closes its copies of the helper pipes
    os.register_at_fork(after_in_child=functools.partial(_stop_helpers, kill=False))


def fit_rate_slope(rows: list[MseRow], variant: str, r: float) -> float:
    """Least-squares slope of log(mse) against log(b_n) for one variant.

    Invalid rows are excluded; fewer than three distinct grid sizes among the
    remaining points is an error.
    """
    pts = [(row.b_n, row.mse) for row in rows
           if row.variant == variant and row.r == r and row.valid and row.mse > 0]
    sizes = len({b for b, _ in pts})
    if sizes < 3:
        raise ValueError(f"variant {variant!r} has valid rows at {sizes} grid sizes, need 3")
    return float(np.polyfit(*np.log(pts).T, 1)[0])


def rate_check(config: ExperimentConfig, variant: str, n_workers: int = 1) -> float:
    """Run the grid (single r required) and fit the MSE decay slope."""
    if len(config.r) != 1:
        raise ValueError("rate_check needs a config with exactly one rate exponent")
    if len(set(config.b_n)) < 3:
        raise ValueError("rate_check needs at least 3 distinct grid sizes")
    if variant not in config.variants:
        raise ValueError(f"the config runs no variant {variant!r}, only {list(config.variants)}")
    rows = run_mse_table(config, n_workers=n_workers)
    if len({row.b_n for row in rows if row.valid}) < 3:  # the other sizes' rows are all degenerate
        raise estimators.DegenerateDataError("replications are live at fewer than 3 grid sizes")
    return fit_rate_slope(rows, variant, config.r[0])

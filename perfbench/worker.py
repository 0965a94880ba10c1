"""One workload process: imports latcorr, runs the timed loop, reports.

Started by ``run.py`` as ``python3 perfbench/worker.py JOB.json [--setup-only]``.
The job file holds the generated inputs; this process is the only one that
calls latcorr.  It prints one JSON document on stdout:

* ``--setup-only``: ``{"setup_s": ..., "probe_s": ...}``, the time to import
  latcorr and run one warm-up operation, and the median time of the host
  probe (``reference.HostProbe``) right after it;
* otherwise the loop's latencies, operation counts, peak RSS, the data
  ``run.py`` checks, machine facts, and (traced runs) the per-layer metrics.
  Every latency comes with the index of its round, and ``probes`` holds the
  time of the host probe run after each round.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import layers

#: Host probe runs per set-up probe; the first in a fresh process pays
#: one-time costs, so their median is used.
SETUP_PROBE_RUNS = 3


class Study:
    """``harness.run_mse_table`` on a grid; one round is one table of
    ``reps_per_round`` replications per cell, rendered as CSV and markdown.
    Round ``i`` uses experiment seed ``seed0 + i``."""

    def __init__(self, job: dict, latcorr: dict):
        self.job = job
        self.harness, self.io, self.sim = latcorr["harness"], latcorr["io"], latcorr["sim"]
        self.model = self.sim.ModelParams(**job["model"])
        self.ops_per_round = len(job["b_n"]) * len(job["r"]) * job["reps_per_round"]
        self.rounds: list[list] = []
        self.first_csv = None

    def config(self, seed: int, reps: int, b_n=None, r=None):
        return self.harness.ExperimentConfig(
            model=self.model, b_n=b_n or self.job["b_n"], r=r or self.job["r"],
            variants=self.harness.VARIANTS, replications=reps, seed=seed)

    def warm_up(self) -> None:
        cfg = self.config(self.job["seed0"], 1, b_n=self.job["b_n"][:1], r=self.job["r"][:1])
        self.harness.run_mse_table(cfg, n_workers=self.job["workers"])

    def table(self, seed: int, workers: int):
        rows = self.harness.run_mse_table(self.config(seed, self.job["reps_per_round"]),
                                          n_workers=workers)
        text = self.io.mse_table_csv(rows)
        self.io.mse_table_markdown(rows)
        return rows, text

    def round(self, index: int):
        """Run one round; returns ``(ops, failed, [(ms_per_op, ops)])``."""
        start = time.perf_counter()
        rows, text = self.table(self.job["seed0"] + index, self.job["workers"])
        elapsed = time.perf_counter() - start
        self.rounds.append(_rows(rows))
        if self.first_csv is None:
            self.first_csv = text
        return self.ops_per_round, 0, [(1e3 * elapsed / self.ops_per_round, self.ops_per_round)]

    def check_data(self) -> dict:
        """Outputs ``run.py`` checks, produced outside the timed loop."""
        job = self.job
        other = 1 if job["workers"] > 1 else 2
        rows, _ = self.table(job["seed0"], other)
        records = []
        for r in job["r"]:
            for b_n in job["b_n"]:
                cfg = self.config(job["check_seed"], job["check_reps"])
                for rec in self.harness.run_cell(cfg, b_n, r, n_workers=job["workers"]):
                    records.append({
                        "b_n": b_n, "r": r, "degenerate": rec.degenerate, "C": rec.C,
                        "true_R": rec.true_R, "true_xi": rec.true_xi,
                        "variants": {v: [res.xi, res.ci.lo, res.ci.hi]
                                     for v, res in rec.results.items()},
                    })
        return {"rounds": self.rounds, "first_csv": self.first_csv,
                "other_workers": other, "other_rows": _rows(rows), "records": records}

    def memory_pass(self) -> None:
        self.table(self.job["seed0"], 1)


def _rows(rows) -> list[list]:
    return [[row.variant, row.b_n, row.r, row.mse, row.n_effective, row.degenerate_count,
             row.clamped_count] for row in rows]


class CountFiles:
    """``cli.main(["estimate", ...])`` in process; one round is every valid
    file once, then the invalid operations, each of which must exit 2."""

    def __init__(self, job: dict, latcorr: dict):
        self.job = job
        self.cli = latcorr["cli"]
        self.ops_per_round = len(job["valid"]) + len(job["invalid"])
        self.outputs = [set() for _ in job["valid"]]
        self.invalid_codes = [set() for _ in job["invalid"]]

    def call(self, argv: list[str]):
        out = _io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_io.StringIO()):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an operation that raises is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        return code, out.getvalue()

    def warm_up(self) -> None:
        self.call(self.job["valid"][0]["argv"])

    def round(self, index: int):
        failed, latencies = 0, []
        for i, op in enumerate(self.job["valid"]):
            start = time.perf_counter()
            code, text = self.call(op["argv"])
            elapsed = time.perf_counter() - start
            if code == 0:
                latencies.append((1e3 * elapsed, 1))
                self.outputs[i].add(text)
            else:
                failed += 1
                self.outputs[i].add(f"exit {code}")
        for i, op in enumerate(self.job["invalid"]):
            code, _ = self.call(op["argv"])
            failed += code != 2
            self.invalid_codes[i].add(str(code))
        return self.ops_per_round, failed, latencies

    def check_data(self) -> dict:
        return {"outputs": [sorted(s) for s in self.outputs],
                "invalid_codes": [sorted(s) for s in self.invalid_codes]}

    def memory_pass(self) -> None:
        pass


KINDS = {"study": Study, "count": CountFiles}


def setup(job: dict):
    """Import latcorr from the checkout and run one warm-up operation."""
    start = time.perf_counter()
    sys.path.insert(0, job["src"])
    from latcorr import cli, estimators, harness, io, oracle, sim

    src = Path(job["src"]).resolve()
    if src not in Path(harness.__file__).resolve().parents:
        sys.exit(f"latcorr was imported from {harness.__file__}, not from {src}")
    modules = {"cli": cli, "estimators": estimators, "harness": harness, "io": io,
               "oracle": oracle, "sim": sim}
    workload = KINDS[job["kind"]](job, modules)
    workload.warm_up()
    return workload, modules, time.perf_counter() - start


def loop(workload, seconds: float, probe, tracer=None):
    """Whole rounds until ``seconds`` have passed.

    After every round the host probe runs once, untimed by the round; its
    time goes to ``probes`` and each of the round's latencies becomes
    ``(ms, ops, k)`` with ``k`` the round's index in ``probes``.  With a
    tracer, rounds alternate untraced and traced, so both see the same
    machine; returns the untraced and the traced tallies.
    """
    phases = [contextlib.nullcontext()] + ([tracer] if tracer else [])
    tallies = [{"ops": 0, "failed": 0, "latencies": [], "probes": [], "seconds": 0.0,
                "rounds": 0} for _ in phases]
    index = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for phase, tally in zip(phases, tallies):
            with phase:
                begin = time.perf_counter()
                ops, failed, latencies = workload.round(index)
                tally["seconds"] += time.perf_counter() - begin
            tally["latencies"] += [(ms, n, tally["rounds"]) for ms, n in latencies]
            tally["probes"].append(1e3 * probe.seconds())
            tally["ops"] += ops
            tally["failed"] += failed
            tally["rounds"] += 1
            index += 1
    return tallies


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def traced_loop(workload, modules, job: dict, probe) -> tuple[dict, dict]:
    """Per-layer metrics per operation, from alternating untraced and traced
    rounds."""
    tracer = layers.Tracer(modules)
    plain, traced = loop(workload, job["seconds"], probe, tracer)
    ops = traced["ops"]
    self_ns, calls = tracer.self_and_calls()
    metrics = {}
    for module, function in layers.LAYERS:
        name = f"{module}.{function}"
        metrics[f"{name}.self_us_per_op"] = self_ns.get(name, 0) / 1e3 / ops
        metrics[f"{name}.calls_per_op"] = calls.get(name, 0) / ops
    read_ns = tracer.inclusive_ns(layers.READER)
    read_bytes = sum(os.path.getsize(p) for p in tracer.read_paths)
    metrics[f"{layers.READER}.mb_per_s"] = read_bytes / 1e6 / (read_ns / 1e9) if read_ns else 0.0
    metrics["trace.overhead_us_per_op"] = 1e6 * (traced["seconds"] / ops
                                                 - plain["seconds"] / plain["ops"])
    with layers.AllocationPeaks(modules) as peaks:
        workload.memory_pass()
    metrics[f"{layers.ALLOCATOR}.peak_kib"] = (
        sum(peaks.peaks) / len(peaks.peaks) / 1024 if peaks.peaks else 0.0)
    tracer.write(job["spans_out"])
    both = {key: plain[key] + traced[key] for key in ("ops", "failed", "latencies", "rounds")}
    return both, metrics


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    workload, modules, setup_s = setup(job)
    # Imported after set-up, which times the first numpy import with latcorr's.
    import reference

    probe = reference.HostProbe()
    if argv[1:] == ["--setup-only"]:
        probe_s = statistics.median(probe.seconds() for _ in range(SETUP_PROBE_RUNS))
        print(json.dumps({"setup_s": setup_s, "probe_s": probe_s}))
        return 0
    if job["trace"]:
        result, layer_metrics = traced_loop(workload, modules, job, probe)
    else:
        result, layer_metrics = loop(workload, job["seconds"], probe)[0], None
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(setup_s=setup_s, peak_rss_mib=peak_rss_mib, layers=layer_metrics,
                  machine=machine(), checks=workload.check_data())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

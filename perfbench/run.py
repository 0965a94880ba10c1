#!/usr/bin/env python3
"""latcorr benchmark: load generator, output checks and metrics.

    python3 perfbench/run.py --workload desk_study --seed 1 --seconds 20 --trace 0

Run from the root of a latcorr checkout.  This process makes every input
from ``--seed`` and computes what the outputs must satisfy, without
importing latcorr.  The workload itself runs in a child process
(``worker.py``) that imports latcorr from ``src/`` and gets only the
generated inputs.  ``SETUP_PROBES`` fresh processes, half before it and half
after it, each time the import of latcorr plus one warm-up operation;
``setup_s`` is their median.

Every time is reported at the reference host's speed: multiplied by
``PROBE_REF_S`` over the time of a fixed task of the benchmark's own
(``reference.HostProbe``) measured in the same process around it.  The
measured times are printed too, on the line before the result.

The last line of stdout is the result: ``{"correct", "attempted", "failed",
"metrics"}``, with the end-to-end metrics for ``--trace 0`` and the
per-layer metrics for ``--trace 1``.  The exit code is 0 only when every
check passed.  See README.md for workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
SETUP_PROBES = 9
#: Median time of one ``reference.HostProbe`` on the reference host (2 vCPUs,
#: see README.md).  The host's speed moves by a third or more over minutes,
#: as other tenants come and go, and the probe's time moves with it, so a
#: time scaled by PROBE_REF_S / probe time is steady where the measured one
#: is not.
PROBE_REF_S = 0.008
#: Rounds in the centred window whose median probe time scales a round's
#: latencies: a single probe jitters, while the host's slow and fast phases
#: last ten seconds or more.
PROBE_WINDOW = 11
#: Wall-clock limit of a whole run; workers still running then are killed.
RUN_LIMIT_S = 170

#: Workload definitions; the inputs are made from these and the seed.
WORKLOADS = {
    # The reference study's desk grid with the study script's default of one
    # worker thread per core.  A workload of large cells (b_n 1024 and 4096)
    # was dropped; every layer it timed also runs here (see README.md).
    "desk_study": {"kind": "study", "b_n": [16, 32, 64, 128, 256], "r": [2.0, 3.5],
                   "reps_per_round": 8, "check_reps": 150},
    # In-process `latcorr estimate` on long count files: a 4-second, a
    # 1-second and a half-second grid over a 6.5-hour trading day.
    "count_files": {"kind": "count", "lengths": [5850, 23400, 46800], "rate": 3.0,
                    "invalid_length": 5850},
}

# Output checks.
# A cell fails only when |mse - reference| exceeds both MSE_BAND_Z combined
# standard errors and MSE_BAND_REL of the reference: squared errors of xi are
# heavy-tailed, so a run's standard error is itself uncertain.
MSE_BAND_Z = 5.0
MSE_BAND_REL = 0.5
DECAY_SLOPE_MAX = -0.25   # r = 3.5: log-log slope of MSE in b_n below this
FLAT_SLOPE_ABS = 0.4      # r = 2: |slope| below this, every variant
# Pooled 95% CI coverage of the true R at r = 3.5, b_n >= 64.  The five
# variants of one replication mostly cover or miss together, so the pooled
# rate's spread is that of about check_reps * cells draws; check_reps keeps
# both ends of the band 5 such standard deviations away from the mean.
COVERAGE_BAND = (0.85, 0.995)
ESTIMATE_RTOL = 1e-7      # printed xi and CI ends against the recomputation


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def study_job(spec: dict, seed: int) -> dict:
    rng = random.Random(f"latcorr-bench/{seed}")
    return {"kind": "study", "model": reference.STUDY_MODEL, "b_n": spec["b_n"],
            "r": spec["r"], "reps_per_round": spec["reps_per_round"],
            "workers": nproc(),
            "seed0": rng.randrange(2**40), "check_seed": rng.randrange(2**40),
            "check_reps": spec["check_reps"]}


def count_job(spec: dict, seed: int, work: Path) -> tuple[dict, list]:
    """Writes the count files; returns the job and the expected outputs.

    The invalid inputs do not depend on the seed: a file whose middle time
    stamp is ``nan``, and ``--a-n nan`` on the same series with valid times.
    """
    valid, expected = [], []
    for i, b_n in enumerate(spec["lengths"]):
        a_n = float(b_n) ** spec["rate"]
        y1, y2 = reference.simulate_count_series(
            b_n, a_n, np.random.default_rng(np.random.SeedSequence([seed, i])))
        path = work / f"counts_{b_n}.csv"
        path.write_text(reference.count_csv(y1, y2), encoding="utf-8")
        valid.append({"argv": ["estimate", "--counts", str(path), "--a-n", repr(a_n),
                               "--format", "csv"]})
        expected.append({"b_n": b_n, "estimate": reference.estimate(y1, y2, 1.0, a_n)})

    b_n = spec["invalid_length"]
    a_n = float(b_n) ** spec["rate"]
    y1, y2 = reference.simulate_count_series(b_n, a_n, np.random.default_rng(0))
    fixed, nan_time = work / "fixed.csv", work / "nan_time.csv"
    fixed.write_text(reference.count_csv(y1, y2), encoding="utf-8")
    nan_time.write_text(reference.count_csv(y1, y2, nan_row=b_n // 2), encoding="utf-8")
    invalid = [
        {"name": "nan time stamp",
         "argv": ["estimate", "--counts", str(nan_time), "--a-n", repr(a_n), "--format", "csv"]},
        {"name": "--a-n nan",
         "argv": ["estimate", "--counts", str(fixed), "--a-n", "nan", "--format", "csv"]},
    ]
    return {"kind": "count", "valid": valid, "invalid": invalid}, expected


def run_worker(job_path: Path, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), str(job_path)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------- checks


def log_slope(bns, values) -> float:
    return float(np.polyfit(np.log(bns), np.log(values), 1)[0])


def check_study(job: dict, data: dict) -> list[str]:
    problems = []
    rounds = data["rounds"]
    reps = job["reps_per_round"]
    cells = {}
    for rows in rounds:
        for variant, b_n, r, mse, n_eff, degenerate, clamped in rows:
            if n_eff + degenerate != reps:
                problems.append(f"{variant}/{b_n}/{r}: {n_eff}+{degenerate} != {reps} replications")
            cells.setdefault((variant, b_n, r), []).append((mse, n_eff))

    expected_cells = {(v, b, r) for v in reference.VARIANTS for b in job["b_n"] for r in job["r"]}
    if set(cells) != expected_cells:
        problems.append(f"table cells {sorted(set(cells) ^ expected_cells)} missing or extra")
        return problems

    # Pooled MSE and its standard error by batch means over rounds.
    pooled = {}
    for key, vals in cells.items():
        mse = np.array([m for m, n in vals if n > 0])
        n_eff = np.array([n for m, n in vals if n > 0])
        if len(mse) < 2 or not np.all(np.isfinite(mse)):
            problems.append(f"{key}: no finite MSE over two rounds or more")
            continue
        mean = float(np.sum(mse * n_eff) / np.sum(n_eff))
        se = float(np.std(mse, ddof=1) / math.sqrt(len(mse)))
        pooled[key] = (mean, se, int(np.sum(n_eff)))
    if problems:
        return problems

    for (variant, b_n, r), (mse, se, n) in pooled.items():
        ref = reference.reference_mse(variant, b_n, r)
        if ref is None:
            continue
        # the reference is a mean of REFERENCE_N squared errors of the same law
        se_ref = se * math.sqrt(n / reference.REFERENCE_N)
        z = (mse - ref) / math.sqrt(se**2 + se_ref**2)
        if abs(z) > MSE_BAND_Z and abs(mse - ref) > MSE_BAND_REL * ref:
            problems.append(f"MSE {variant}/b_n={b_n}/r={r}: {mse:.5f} vs reference "
                            f"{ref:.5f} (z = {z:+.1f})")

    bns = job["b_n"]
    for r in job["r"]:
        for variant in reference.VARIANTS:
            slope = log_slope(bns, [pooled[variant, b, r][0] for b in bns])
            if r == 3.5 and not slope < DECAY_SLOPE_MAX:
                problems.append(f"MSE of {variant} does not decay at r=3.5: slope {slope:.2f}")
            if r == 2.0 and not abs(slope) < FLAT_SLOPE_ABS:
                problems.append(f"MSE of {variant} is not flat at r=2: slope {slope:.2f}")

    if data["other_rows"] != rounds[0]:
        problems.append(f"table with {data['other_workers']} workers differs from the timed run")
    csv_lines = data["first_csv"].splitlines()[1:]
    rendered = [[v, int(b), float(r), float(m), int(n) - int(d), int(d), int(c)]
                for v, b, r, m, _, d, c, n in (line.split(",") for line in csv_lines)]
    if rendered != rounds[0]:
        problems.append("rendered CSV table differs from the rows")

    hits = trials = 0
    for rec in data["records"]:
        if rec["degenerate"]:
            continue
        if not -1.0 <= rec["C"] <= 1.0:
            problems.append(f"C = {rec['C']} outside [-1, 1]")
        for variant, (xi, lo, hi) in rec["variants"].items():
            if not (math.isfinite(xi) and xi >= 0.0):
                problems.append(f"xi = {xi} of {variant} is not finite and >= 0")
            if not -1.0 <= lo <= rec["C"] <= hi <= 1.0:
                problems.append(f"CI [{lo}, {hi}] of {variant} does not hold C = {rec['C']}")
            if rec["r"] == 3.5 and rec["b_n"] >= 64:
                trials += 1
                hits += lo <= rec["true_R"] <= hi
    coverage = hits / trials if trials else math.nan
    if not COVERAGE_BAND[0] <= coverage <= COVERAGE_BAND[1]:
        problems.append(f"95% CI coverage {coverage:.3f} over {trials} intervals "
                        f"outside {COVERAGE_BAND}")
    return problems[:20]


def _close(got: float, want: float, rtol: float, atol: float) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


def check_count(data: dict, expected: list) -> list[str]:
    problems = []
    for outputs, exp in zip(data["outputs"], expected):
        C, variants = exp["estimate"]
        if len(outputs) != 1:
            problems.append(f"b_n={exp['b_n']}: {len(outputs)} different outputs: "
                            f"{[o[:80] for o in outputs]}")
            continue
        lines = outputs[0].splitlines()
        if lines[:1] != ["variant,C,xi,clamped,ci_lo,ci_hi,lo_clamped,hi_clamped,level"] \
                or len(lines) != 1 + len(variants):
            problems.append(f"b_n={exp['b_n']}: unexpected output {outputs[0][:200]!r}")
            continue
        for line in lines[1:]:
            v, c, xi, clamped, lo, hi, lo_c, hi_c, level = line.split(",")
            want_xi, want_clamped, want_lo, want_hi, want_lo_c, want_hi_c = variants[v]
            ok = (_close(float(c), C, 0.0, 1e-12)
                  and _close(float(xi), want_xi, ESTIMATE_RTOL, 1e-300)
                  and _close(float(lo), want_lo, ESTIMATE_RTOL, 1e-12)
                  and _close(float(hi), want_hi, ESTIMATE_RTOL, 1e-12)
                  and (int(clamped), int(lo_c), int(hi_c)) == (want_clamped, want_lo_c, want_hi_c)
                  and float(level) == reference.CI_LEVEL)
            if not ok:
                problems.append(f"b_n={exp['b_n']} variant {v}: printed {line!r}, recomputed "
                                f"C={C!r} xi={want_xi!r} CI=[{want_lo!r}, {want_hi!r}]")
    return problems


# ---------------------------------------------------------------- metrics


def probe_times(probes: list[float]) -> np.ndarray:
    """Each round's host probe time: the median over ``PROBE_WINDOW`` rounds
    centred on it."""
    half = PROBE_WINDOW // 2
    return np.array([np.median(probes[max(i - half, 0):i + half + 1])
                     for i in range(len(probes))])


def timings(result: dict, setups: list[dict], at_reference: bool) -> dict:
    """The timed end-to-end metrics, either as measured or each time scaled
    by ``PROBE_REF_S`` over the host probe's time around it."""
    def scale(probe_s: float) -> float:
        return PROBE_REF_S / probe_s if at_reference else 1.0

    samples = result["latencies"]
    probe_s = probe_times(result["probes"]) / 1e3
    ms = np.array([m * scale(probe_s[k]) for m, _, k in samples])
    ops = np.array([n for _, n, _ in samples])
    return {
        "setup_s": statistics.median(p["setup_s"] * scale(p["probe_s"]) for p in setups),
        "ops_per_s": float(ops.sum() / (ms @ ops / 1e3)),
        "op_ms_p50": float(np.percentile(ms, 50)),
        "op_ms_p90": float(np.percentile(ms, 90)),
    }


def end_to_end(result: dict, setups: list[dict]) -> dict:
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms"}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in timings(result, setups, at_reference=True).items()}
    metrics["peak_rss_mib"] = {"value": result["peak_rss_mib"], "unit": "MiB"}
    return metrics


def per_layer(layer_metrics: dict) -> dict:
    units = {"self_us_per_op": "us", "calls_per_op": "count", "peak_kib": "KiB",
             "mb_per_s": "MB/s", "overhead_us_per_op": "us"}
    return {name: {"value": value, "unit": units[name.rsplit(".", 1)[1]]}
            for name, value in layer_metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "latcorr" / "__init__.py").is_file():
        print(f"error: no latcorr sources under {src}; run from a latcorr checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    spec = WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if spec["kind"] == "study":
            job, expected = study_job(spec, args.seed), None
        else:
            job, expected = count_job(spec, args.seed, work)
        job.update(src=str(src), seconds=args.seconds, trace=args.trace,
                   spans_out=str(OUT / f"spans-{args.workload}.csv"))
        job_path = work / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")

        # Probes on both sides of the measured worker see the host as it was
        # over the whole run, not only in the seconds before it.
        setups = [run_worker(job_path, True, deadline) for _ in range(SETUP_PROBES // 2)]
        result = run_worker(job_path, False, deadline)
        setups += [run_worker(job_path, True, deadline)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if spec["kind"] == "study":
        problems = check_study(job, result["checks"])
    else:
        problems = check_count(result["checks"], expected)
    if not result["latencies"]:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    if args.trace:
        metrics, measured = per_layer(result["layers"]), None
    else:
        metrics = end_to_end(result, setups)
        measured = dict(timings(result, setups, at_reference=False),
                        probe_ms_p50=float(np.median(result["probes"])))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": result["machine"], "setup_probes": setups,
              "rounds": result["rounds"], "problems": problems, "metrics": metrics,
              "measured": measured}
    if spec["kind"] == "count":
        record["invalid_exit_codes"] = {
            op["name"]: codes for op, codes in zip(job["invalid"], result["checks"]["invalid_codes"])}
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("machine: " + json.dumps(dict(result["machine"], seed=args.seed)))
    if measured:
        print("measured: " + json.dumps(measured))
    print(json.dumps({"correct": not problems, "attempted": result["ops"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

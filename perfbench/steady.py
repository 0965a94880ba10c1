#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steady.py --workloads desk_study count_files \\
        --seeds 1 2 3 4 5 6 7 8 9 10

For every workload and end-to-end metric this prints the median over the
seeds and the spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in BENCHMARK.json.  The same follows for the times as
measured, before the scaling to the reference host (``measured.*``).  Runs
are sequential; a failed run stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        values, shares = {}, set()
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            shares.add(f"{result['failed']}/{result['attempted']}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            measured = json.loads(lines[-2].removeprefix("measured: "))
            for name, value in measured.items():
                values.setdefault(f"measured.{name}", []).append(value)
        print(f"{workload}: failed/attempted per seed {sorted(shares)}")
        summary[workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            summary[workload][name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                                       "spread": spread, "values": vals}
            print(f"  {name:24s} median {statistics.median(vals):11.4f}  "
                  f"spread {spread:6.3f}  bound {bounds.get(name)}")
    out = HERE / "_out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

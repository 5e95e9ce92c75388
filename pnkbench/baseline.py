#!/usr/bin/env python3
"""Run the benchmark over ten seeds and summarise each metric.

From the root of a checkout:

    python3 pnkbench/baseline.py --out pnkbench/baseline.json

For every workload it runs ``run.py --trace 0`` once per seed, for the
``run_seconds`` of ``BENCHMARK.json``, then one ``--trace 1`` run with the
first seed. Each end-to-end metric gets its ten
values, median, quartiles (``statistics.quantiles(values, n=4)``) and
spread, the quartile distance as a share of the median. The spread is
compared with the metric's bound in ``BENCHMARK.json``; ``setup_s`` is
exempt, as only its median is compared between runs of the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


SEEDS = list(range(1, 11))


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """Details, result and wall time of one run of ``run.py``."""
    started = time.perf_counter()
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stdout}{done.stderr}")
    return (json.loads(lines[-2]), json.loads(lines[-1]),
            time.perf_counter() - started)


def summary(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="write the summary as JSON to this file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    doc = {"seeds": SEEDS, "seconds": seconds, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict = {}
        walls = []
        for seed in SEEDS:
            details, result, wall = bench(workload, seed, seconds, 0)
            walls.append(wall)
            doc["fingerprint"] = details["fingerprint"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4)
                                   for k, v in values.items()}, flush=True)
        end_to_end = {name: summary(v) for name, v in values.items()}
        for name, s in end_to_end.items():
            ok = name == "setup_s" or s["spread"] <= bounds[name] / 3
            steady &= ok
            print(f"  {workload} {name}: median {s['median']:.6g} spread "
                  f"{s['spread']:.4f} (bound {bounds[name]})"
                  f"{'' if ok else '  ABOVE A THIRD OF THE BOUND'}",
                  flush=True)
        _, traced, wall = bench(workload, SEEDS[0], seconds, 1)
        walls.append(wall)
        doc["workloads"][workload] = {
            "run_wall_s": walls,
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

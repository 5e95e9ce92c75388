#!/usr/bin/env python3
"""Layered benchmark of pnk: end-to-end metrics, exact work counts, spans.

Run from the root of a checkout:

    python3 pnkbench/run.py --workload hopf_branch --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``hopf_branch``, ``flip_probe``,
``circle_torus`` and ``shipped_configs``. One client runs one workload
iteration after another in this process (a closed loop, one thread), with
``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1``. Every iteration is checked
against the catalog oracles or the golden reports; counts must repeat
exactly between iterations of one seed.

``--trace 0`` prints the end-to-end metrics:

* ``run_s``: median wall time of one iteration, rescaled to the reference
  machine speed of ``calibration.py`` by calibration units run inside the
  iteration. The raw median, quartiles and count of the iteration wall
  times are in the details line as ``iteration_s_*``;
* ``setup_s``: import of pnk plus the workload's set-up, the median of
  several fresh interpreters, rescaled by reference imports of numpy and
  scipy run between them;
* ``rhs_evals`` and ``jac_evals``: field value and jacobian evaluations per
  iteration, exact;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs the untraced loop for half the time and a traced loop
for the other half. It prints the per-layer metrics of ``spans.py`` and
the tracing overhead, ``run_s`` of the traced loop minus that of the
untraced one. The spans are kept in memory and written to
``pnkbench/out/`` at exit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (samples, quartiles, parameters, machine fingerprint).
Exit codes: 0 all iterations correct, 1 a check failed or a count did not
repeat, 2 the checkout holds no pnk sources.
"""

from __future__ import annotations

import os

# Must precede the first numpy import, here and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("hopf_branch", "flip_probe", "circle_torus", "shipped_configs")
DEFAULT_SEED = 1
MIN_ITERATIONS = 2        # per timed loop, however long they take
SETUP_REPEATS = 3         # fresh-interpreter set-ups behind setup_s
# A fresh interpreter importing what pnk imports from numpy and scipy, and
# how long that takes on a quiet core of the 2-vCPU Xeon sandbox the
# benchmark was written on.
REFERENCE_IMPORT = ("import time; start = time.perf_counter(); "
                    "import numpy, scipy.integrate, scipy.interpolate, "
                    "scipy.linalg, scipy.optimize; "
                    "print(repr(time.perf_counter() - start))")
IMPORT_REFERENCE_S = 0.5
CALIBRATION_SHARE = 0.1   # least calibration time per iteration time


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_pnk():
    """Import pnk from this checkout's sources, never from elsewhere."""
    if not (SRC / "pnk" / "__init__.py").is_file():
        print(f"no pnk sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import pnk
    if Path(pnk.__file__).resolve().parent != SRC / "pnk":
        print(f"imported pnk from {pnk.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return pnk


def setup_probe(args) -> None:
    """Time import and workload set-up in this fresh interpreter."""
    started = time.perf_counter()
    import_pnk()
    import workloads
    workloads.PREPARE[args.workload](args.seed, OUT_DIR / args.workload)
    print(repr(time.perf_counter() - started))


def measure_setup(args) -> tuple:
    """Set-up times of fresh interpreters, each after a reference import.

    Returns the set-up and reference times and the median set-up time
    rescaled by the median reference to a machine on which the reference
    takes ``IMPORT_REFERENCE_S``. The reference runs in its own interpreter,
    so imports that pnk adds or drops still show.
    """
    setup = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)]
    reference = [sys.executable, "-c", REFERENCE_IMPORT]
    samples, references = [], []
    for _ in range(SETUP_REPEATS):
        references.append(_timed_child(reference))
        samples.append(_timed_child(setup))
    scaled = (statistics.median(samples) * IMPORT_REFERENCE_S
              / statistics.median(references))
    return samples, references, scaled


def _timed_child(cmd) -> float:
    """Run a child that prints its own duration last; return it."""
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


def quartiles(values) -> list:
    if len(values) < 2:  # a traced run may time one untraced iteration
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def mismatched(counts: list) -> list:
    """Names of the counts that differ between iterations."""
    return sorted({key for c in counts[1:] for key in c
                   if c[key] != counts[0][key]})


class Loop:
    """Closed-loop iterations of one workload with checks and counts.

    ``times`` are iteration wall times without the calibration units run
    inside them; ``scaled`` are the same rescaled by the units' speed.
    """

    def __init__(self, workload, counts_of, calibrator, wrap=None):
        self.workload = workload
        self.counts_of = counts_of
        self.calibrator = calibrator
        self.wrap = wrap or (lambda body: body())
        self.times: list = []
        self.scaled: list = []
        self.counts: list = []
        self.problems: list = []

    def run(self, seconds: float, min_iterations: int) -> None:
        """Iterate until another iteration would end past ``seconds``."""
        started = time.perf_counter()
        while (len(self.times) < min_iterations
               or time.perf_counter() - started
               + statistics.median(self.times) <= seconds):
            self.once()

    def once(self) -> None:
        cal = self.calibrator
        cal.reset()
        t0 = time.perf_counter()
        try:
            result = self.wrap(self.workload.run)
        except Exception as exc:  # a failed iteration is a measured outcome
            result, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        else:
            problems = None
        elapsed = time.perf_counter() - t0 - cal.spent
        cal.unit()  # units outside the iteration top up its calibration
        while cal.spent < CALIBRATION_SHARE * elapsed:
            cal.unit()
        self.times.append(elapsed)
        self.scaled.append(elapsed * cal.scale())
        self.counts.append(self.counts_of())
        if problems is None:
            try:
                problems = self.workload.check(result)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.problems.append(problems)

    @property
    def attempted(self) -> int:
        return len(self.problems)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)


def fingerprint(args) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "workload_seed": args.seed,
        "default_seed": DEFAULT_SEED,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0

    t0 = time.perf_counter()
    import_pnk()
    import calibration
    import spans
    import workloads
    out_dir = OUT_DIR / args.workload
    counter = spans.Counter()
    spans.activate(counter)
    prepare = workloads.PREPARE[args.workload]
    workload = prepare(args.seed, out_dir)
    inprocess_setup = time.perf_counter() - t0
    setup_samples, setup_references, setup_s = measure_setup(args)
    calibrator = calibration.Calibrator()

    def iteration_counts():
        got = {"rhs_evals": counter.counts["value"],
               "jac_evals": counter.counts["jacobian"]}
        counter.reset()
        return got

    budget = args.seconds / 2 if args.trace else args.seconds
    spans.bind(calibration.HOOKED, calibrator.wrap)
    counter.reset()
    plain = Loop(workload, iteration_counts, calibrator)
    # A traced run needs one untraced iteration, for the overhead and the
    # count comparison; its traced loop makes at least MIN_ITERATIONS.
    plain.run(budget, 1 if args.trace else MIN_ITERATIONS)
    run_s = statistics.median(plain.scaled)
    details = {
        "workload": args.workload,
        "params": workload.params,
        "fingerprint": fingerprint(args),
        "iteration_s_count": len(plain.times),
        "iteration_s_median": statistics.median(plain.times),
        "iteration_s_quartiles": quartiles(plain.times),
        "iteration_s_samples": plain.times,
        "run_s_samples": plain.scaled,
        "setup_s_samples": setup_samples,
        "setup_reference_s_samples": setup_references,
        "setup_s_in_process": inprocess_setup,
        "problems": [p for p in plain.problems if p],
        "count_mismatches": mismatched(plain.counts),
    }
    attempted, failed = plain.attempted, plain.failed

    if args.trace:
        tracer = spans.Tracer()
        spans.activate(tracer)
        workload = prepare(args.seed, out_dir)
        spans.install_spans(tracer)  # replaces the calibration hooks
        traced = Loop(workload, dict, calibrator, tracer.run_iteration)
        traced.run(budget, MIN_ITERATIONS)
        attempted += traced.attempted
        failed += traced.failed
        details["problems"] += [p for p in traced.problems if p]
        details["traced_iteration_s_samples"] = traced.times

        per_iteration = [spans.iteration_metrics(r) for r in tracer.iterations]
        counts = [{k: v for k, v in m.items() if spans.is_count(k)}
                  for m in per_iteration]
        untraced = plain.counts[0]
        counts.append(dict(counts[0], **{
            "core.rhs_evals": untraced["rhs_evals"],
            "core.jac_evals": untraced["jac_evals"]}))
        details["count_mismatches"] += mismatched(counts)
        gap = max(abs(m.pop("trace.self_sum_s") - m["trace.iteration_s"])
                  for m in per_iteration)
        if gap > 1e-6:
            details["count_mismatches"].append(
                f"layer self times miss the iteration time by {gap:.3g} s")
        values = spans.median_metrics(per_iteration)
        values["trace.run_s"] = statistics.median(traced.scaled)
        values["trace.untraced_run_s"] = run_s
        values["trace.overhead_s"] = values["trace.run_s"] - run_s

        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.iterations), encoding="utf-8")
        details["trace_file"] = str(trace_path.relative_to(ROOT))
        metrics = {name: {"value": value, "unit": spans.unit_of(name)}
                   for name, value in sorted(values.items())}
    else:
        counts = plain.counts[0]
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "rhs_evals": {"value": counts["rhs_evals"], "unit": "count"},
            "jac_evals": {"value": counts["jac_evals"], "unit": "count"},
            "peak_rss_mb": {"value": rss_mib, "unit": "MiB"},
        }

    details["failed_frac"] = failed / attempted
    correct = failed == 0 and not details["count_mismatches"]
    print(json.dumps(details, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

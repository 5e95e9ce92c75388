#!/usr/bin/env python3
"""A/B benchmark of two revisions: alternating pairs of pnkbench runs.

    python3 tools/ab.py --base REV [--head REV] --workload W [W ...] \\
        [--pairs N] --seed S [--seconds T] [--tag TAG]

The base revision, and the head revision when one is given, are checked
out with ``git worktree add --detach`` into a temporary directory, which
is removed afterwards. Without ``--head`` the head is a copy of the
working tree, uncommitted changes included. Neither tree holds bytecode
of pnk, and every run sets ``PYTHONDONTWRITEBYTECODE=1``, so both sides
compile pnk's source in each fresh interpreter, as a fresh checkout does.

For each workload the tool runs ``python3 pnkbench/run.py --workload W
--seed S --seconds T --trace 0`` in each tree, N times (10 by default),
in pairs whose order alternates: base first in even pairs, head first in
odd ones. T defaults to the ``run_seconds`` of ``BENCHMARK.json``. The
tool reads each run's last line, a JSON object, and stops with exit code
1 when a run is not ``correct`` or when the two runs of a pair
differ in ``rhs_evals`` or ``jac_evals``: a speed comparison of runs that
did different work shows nothing.

For every end-to-end metric of ``BENCHMARK.json`` it reports both sides'
medians and quartiles, the pairs the head won and a verdict. The verdict
is ``gain`` only when the head won at least 9 in 10 pairs (10 pairs at
least) and its median beats the base's by more than the base's quartile
distance; it is ``no gain`` otherwise. With ``--tag`` the whole record,
every sample included, goes to ``BENCH_<tag>.json`` at the repository
root. The tool uses the standard library and git only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNNER = "pnkbench/run.py"
SIDES = ("base", "head")
COUNTS = ("rhs_evals", "jac_evals")
MIN_PAIRS = 10     # fewest pairs behind a claimed gain
WIN_SHARE = 0.9    # least share of pairs the head must win

# what a copy of the working tree leaves out: version control, caches
# and run outputs
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", ".benchmarks", "out")


def quartiles(samples) -> tuple:
    """(lower quartile, median, upper quartile) of the samples, by the
    inclusive method."""
    if len(samples) == 1:
        return (samples[0],) * 3
    return tuple(statistics.quantiles(samples, n=4, method="inclusive"))


def compare(base, head, better: str = "lower") -> dict:
    """Paired samples of one metric, base[i] and head[i] from pair i: both
    sides' medians and quartiles, the pairs the head won, the median gap
    in the head's favour, the base's quartile distance and the verdict."""
    if len(base) != len(head) or not base:
        raise ValueError("need one base and one head sample per pair")
    sign = 1.0 if better == "lower" else -1.0
    (b1, bmed, b3), (h1, hmed, h3) = quartiles(base), quartiles(head)
    wins = sum(sign * (b - h) > 0.0 for b, h in zip(base, head))
    gap = sign * (bmed - hmed)
    pairs = len(base)
    gain = (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs
            and gap > b3 - b1)
    return {"base": {"median": bmed, "quartiles": [b1, b3]},
            "head": {"median": hmed, "quartiles": [h1, h3]},
            "head_over_base": hmed / bmed if bmed else None,
            "head_wins": wins, "pairs": pairs, "median_gap": gap,
            "base_quartile_distance": b3 - b1,
            "verdict": "gain" if gain else "no gain"}


def declared(root: Path = ROOT) -> tuple:
    """The run length BENCHMARK.json sets, in seconds, and its end-to-end
    metrics as name -> "lower" or "higher"."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (spec["run_seconds"],
            {m["name"]: m["better"] for m in spec["end_to_end"]})


def git(*args, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One benchmark run in the tree: its details line and its last line,
    both JSON, or SystemExit naming why the run is refused."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    command = [sys.executable, RUNNER, "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        details, result = {}, {}
    if proc.returncode != 0 or result.get("correct") is not True:
        tail = "\n".join((proc.stdout + proc.stderr).splitlines()[-10:])
        raise SystemExit(f"refused: {workload} in {tree} was not correct "
                         f"(exit {proc.returncode}):\n{tail}")
    return details, result


def run_pairs(trees: dict, workload: str, args, metrics: dict) -> tuple:
    """The machine fingerprint of the workload's first run, and its
    alternating pairs with every metric's comparison."""
    samples, machine = [], None
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"pair": i, "first": order[0]}
        for side in order:
            details, result = run_once(trees[side], workload, args.seed,
                                       args.seconds)
            machine = machine or details.get("fingerprint")
            pair[side] = {name: result["metrics"][name]["value"]
                          for name in metrics}
        differ = [c for c in COUNTS if pair["base"][c] != pair["head"][c]]
        if differ:
            raise SystemExit(
                f"refused: {workload} pair {i} differs in {differ}: "
                f"base {[pair['base'][c] for c in differ]}, "
                f"head {[pair['head'][c] for c in differ]}")
        samples.append(pair)
        print(f"{workload} pair {i}: " + ", ".join(
            f"{side} run_s {pair[side]['run_s']:.4f}" for side in SIDES),
            flush=True)
    return machine, {
        "samples": samples,
        "metrics": {name: compare([p["base"][name] for p in samples],
                                  [p["head"][name] for p in samples],
                                  better)
                    for name, better in metrics.items()}}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--head", help="head revision (the working tree)")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="run length (BENCHMARK.json's run_seconds)")
    parser.add_argument("--tag", help="write BENCH_<tag>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    run_seconds, metrics = declared()
    if args.seconds is None:
        args.seconds = run_seconds
    revisions = {"base": {"rev": args.base,
                          "commit": git("rev-parse", args.base + "^{commit}")}}
    if args.head is None:
        revisions["head"] = {"rev": None, "commit": git("rev-parse", "HEAD"),
                             "working_tree": True,
                             "dirty": bool(git("status", "--porcelain"))}
    else:
        revisions["head"] = {
            "rev": args.head,
            "commit": git("rev-parse", args.head + "^{commit}")}
    record = {
        "tool": "tools/ab.py", "machine": None, "revisions": revisions,
        "command": f"python3 {RUNNER} --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs, "seed": args.seed,
        "order": "base first in even pairs, head first in odd ones",
        "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="pnk-ab-") as tmp:
        trees, added = {}, []
        try:
            for side in SIDES:
                tree = Path(tmp) / side
                rev = revisions[side]["commit"]
                if revisions[side].get("working_tree"):
                    shutil.copytree(ROOT, tree, ignore=_IGNORE)
                else:
                    git("worktree", "add", "--detach", str(tree), rev)
                    added.append(tree)
                trees[side] = tree
            for workload in args.workload:
                record["machine"], record["workloads"][workload] = run_pairs(
                    trees, workload, args, metrics)
        finally:
            for tree in added:
                git("worktree", "remove", "--force", str(tree))
    for workload, result in record["workloads"].items():
        for name, cmp in result["metrics"].items():
            print(f"{workload:16s} {name:12s} {cmp['base']['median']:.6g} -> "
                  f"{cmp['head']['median']:.6g}  head won "
                  f"{cmp['head_wins']}/{cmp['pairs']}, gap "
                  f"{cmp['median_gap']:.3g} vs base quartile distance "
                  f"{cmp['base_quartile_distance']:.3g}: {cmp['verdict']}")
    if args.tag:
        path = ROOT / f"BENCH_{args.tag}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Rerun the recorded mutants: each must fail the tests named for it.

    python3 tools/mutants.py              # every mutant
    python3 tools/mutants.py NAME ...     # the named ones
    python3 tools/mutants.py --list       # names, files and reasons

Each entry of ``MUTANTS`` names a file, an exact old text, the new text
that replaces it, why the mutant matters and the tests expected to kill
it. The tool refuses to run when an old text does not occur exactly once
in its file, so code that moved fails loudly instead of being skipped.
It copies the tree (without ``.git`` and caches) to a temporary
directory, runs the named tests there once unmutated, which must pass,
and then, one mutant at a time, applies the mutant, runs its tests with
``pytest -x`` and restores the file. A mutant is killed when pytest
reports a failed test; it survives when its tests pass. The tool exits 0
when every mutant is killed and 1 otherwise, also when pytest cannot
run a mutant's tests (a test that no longer exists, say).

A change that claims "the new test fails on mutation X" adds X here.
``tests/test_mutants.py`` checks, in tier-1, that every old text still
occurs exactly once and that every named test still exists; running the
mutants takes too long for tier-1.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# what the copy leaves out: version control, caches and run outputs
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", ".benchmarks", "out")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str    # relative to the repository root
    old: str
    new: str
    reason: str
    tests: tuple  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant("dense-swap", "src/pnk/flow.py",
           "xs.append((x, 1 - x))", "xs.append((1 - x, x))",
           "the dense output's Horner loop must alternate x and 1 - x as "
           "scipy's does",
           ("tests/test_flow.py::TestOwnStepLoop",)),
    Mutant("dense-h-scale", "src/pnk/flow.py",
           "        dop853.D.dot(K, out=hdk)\n"
           "        np.multiply(hdk, h_arr, out=hdk)\n",
           "        dop853.D.dot(K, out=hdk)\n",
           "the dense output's rows 3 on are h D K, not D K",
           ("tests/test_flow.py::TestOwnStepLoop",)),
    Mutant("accepted-state-overwritten", "src/pnk/flow.py",
           "    (y, y_new), (y_view, y_new_view) = states, state_views\n",
           "    y = y_new = states[0]\n"
           "    y_view = y_new_view = state_views[0]\n",
           "a trial step writes its state into the buffer that the last "
           "accepted state does not hold, which a rejected trial and the "
           "dense output still read",
           ("tests/test_flow.py::TestOwnStepLoop::test_t_eval_samples",
            "tests/test_flow.py::TestOwnStepLoop::test_rejected_steps")),
    Mutant("error-scale-new-state-only", "src/pnk/flow.py",
           "            np.abs(y_old, out=scale)\n",
           "            np.abs(y_new, out=scale)\n",
           "the error scale is atol + max(|y_old|, |y_new|) rtol, as "
           "scipy's",
           ("tests/test_flow.py::TestOwnStepLoop::test_hopf_variational",
            "tests/test_flow.py::TestOwnStepLoop::test_rejected_steps")),
    Mutant("step-not-raised-to-the-smallest", "src/pnk/flow.py",
           "        if h_abs < min_step:\n"
           "            h_abs = min_step\n",
           "",
           "a proposed step below 10 spacings of t starts at that floor, "
           "so a span shorter than the floor still takes its one step",
           ("tests/test_flow.py::TestOwnStepLoop::"
            "test_step_raised_to_the_smallest",)),
    Mutant("view-per-step", "src/pnk/flow.py",
           "            rhs(t_old + h, y_new_view, f_view)\n",
           "            rhs(t_old + h, handed(y_new), f_view)\n",
           "every view a right-hand side receives is built once per run",
           ("tests/test_flow.py::"
            "test_right_hand_sides_get_views_built_once",)),
    Mutant("seed-quadratic-sign", "src/pnk/bifurcation.py",
           "q_step = 0.5 * (g_plus + g_minus) / step",
           "q_step = -0.5 * (g_plus + g_minus) / step",
           "the normal-form seeds need the fitted quadratic term's sign; "
           "every symmetric probe has q = 0",
           ("tests/test_bifurcation.py::TestPostcriticalProbe::"
            "test_seed_amplitudes_closed_form",)),
    Mutant("seed-cubic-sign", "src/pnk/bifurcation.py",
           "c_step2 = 0.5 * (g_plus - g_minus) / step - (lam - 1.0)",
           "c_step2 = 0.5 * (g_plus - g_minus) / step + (lam - 1.0)",
           "the seed fit's cubic term is what the odd part of g leaves "
           "after the linear term",
           ("tests/test_bifurcation.py::TestPostcriticalProbe::"
            "test_seed_amplitudes_closed_form",)),
    Mutant("degenerate-count", "src/pnk/bifurcation.py",
           "if int(np.sum(on_circle)) > len(criticals):",
           "if int(np.sum(on_circle)) > len(criticals) + 1:",
           "one critical multiplier more than the kind expects on the "
           "circle makes the event Degenerate",
           ("tests/test_bifurcation.py::TestClassifyEvent::"
            "test_degenerate_double_crossing",)),
    Mutant("resonance-denominators", "src/pnk/bifurcation.py",
           "for q in range(1, 7) for p in range(q + 1))",
           "for q in range(1, 5) for p in range(q + 1))",
           "rotation numbers with denominators up to 6 are flagged "
           "resonant",
           ("tests/test_bifurcation.py::TestClassifyEvent::"
            "test_resonant_rotation_flagged",)),
    Mutant("circle-margin-unsigned", "src/pnk/spectra.py",
           "float(np.min(np.abs(np.abs(spec) - 1.0)))",
           "float(np.min(np.abs(spec) - 1.0))",
           "the distance from the unit circle is |(|mu| - 1)|, inside the "
           "circle too",
           ("tests/test_continuation.py::TestHyperbolicityReport",)),
    Mutant("orbit-no-restart", "src/pnk/section.py",
           "            except PnkError:\n"
           "                if not kept:\n"
           "                    raise\n"
           "                break\n",
           "            except PnkError:\n"
           "                raise\n",
           "a later sample whose projection fails restarts the orbit run "
           "from the last iterate",
           ("tests/test_section.py::TestTransversalOrbit::"
            "test_failed_projection_restarts_the_run",)),
    Mutant("orbit-first-sample-swallowed", "src/pnk/section.py",
           "                if not kept:\n"
           "                    raise\n",
           "",
           "the failed projection of a run's first sample is the map's "
           "own failure and propagates",
           ("tests/test_section.py::TestTransversalOrbit::"
            "test_failed_first_sample_raises",)),
    Mutant("open-torus-defect-dropped", "src/pnk/cli.py",
           '            report["error"]["closure_defect"] = '
           "exc.report.closure_defect\n",
           "            pass\n",
           "an OpenTorus report carries the defect that failed",
           ("tests/test_cli.py::TestExitCodes::"
            "test_open_torus_reports_its_defect",)),
    Mutant("failed-invariance-exits-0", "src/pnk/cli.py",
           "    elif not invariance.passed:\n"
           "        code = EXIT_NUMERICAL\n",
           "",
           "a verify whose invariance check fails exits 3",
           ("tests/test_cli.py::TestExitCodes::test_failed_invariance_is_3",
            "tests/test_cli.py::TestExitCodes::"
            "test_failed_invariance_says_why")),
    Mutant("one-slice-bifurcate-scanned", "src/pnk/cli.py",
           "if code != EXIT_OK or len(branch.points) < 2:",
           "if code != EXIT_OK:",
           "a bifurcate branch of one slice has no multiplier path to scan "
           "and exits 3",
           ("tests/test_cli.py::TestExitCodes::"
            "test_bifurcate_on_one_slice_is_3",)),
    Mutant("exit-3-silent", "src/pnk/cli.py",
           "    elif code != EXIT_OK:\n"
           "        print(_failure_line(report), file=sys.stderr)\n",
           "",
           "an exit 3 with no error named says why on stderr",
           ("tests/test_cli.py::TestExitCodes::"
            "test_failed_invariance_says_why",
            "tests/test_cli.py::TestExitCodes::"
            "test_bifurcate_on_one_slice_says_why")),
    Mutant("plain-state-unchecked", "src/pnk/flow.py",
           "    def rhs(_t, y, out):\n"
           "        _check_state(y)\n",
           "    def rhs(_t, y, out):\n",
           "the plain right-hand side's state check is the only check of a "
           "flow's end state",
           ("tests/test_flow.py::TestIntegrateFlow::"
            "test_blowup_failure_modes",)),
    Mutant("variational-state-unchecked", "src/pnk/flow.py",
           "        x, m = y\n"
           "        _check_state(x)\n",
           "        x, m = y\n",
           "the variational right-hand side's state check is the only "
           "check of a variational flow's end state",
           ("tests/test_flow.py::TestChartEscape::"
            "test_non_finite_second_entry_is_not_an_escape",)),
    Mutant("return-budget-short", "src/pnk/section.py",
           "    for it in range(RETURN_MAX_ITER + 1):\n",
           "    for it in range(RETURN_MAX_ITER - 1):\n",
           "the return-time solve takes up to RETURN_MAX_ITER Newton steps "
           "and raises NoConvergence when they do not converge",
           ("tests/test_section.py::TestReturnBudget",)),
    Mutant("foreign-winding-analyzed", "src/pnk/bifurcation.py",
           "    if not np.array_equal(alpha, branch.alpha):\n",
           "    if False:\n",
           "analyze_branch refines and probes at the branch's own winding",
           ("tests/test_bifurcation.py::TestDetectCrossings::"
            "test_other_winding_refused",)),
    Mutant("exit-4-silent", "src/pnk/cli.py",
           "    elif code != EXIT_OK:\n",
           "    elif code == EXIT_NUMERICAL:\n",
           "an exit 4 with no error named says why on stderr",
           ("tests/test_cli.py::TestExitCodes::test_noncommuting_says_why",)),
    Mutant("plane-axes-equal", "src/pnk/config.py",
           "        if i == j:\n"
           "            raise ConfigError(\"torus.plane: the two axes must "
           "differ\")\n",
           "",
           "a circle torus whose plane axes are equal is refused at build",
           ("tests/test_cli.py::test_refusal_names_its_key",)),
    Mutant("angle-coords-repeated", "src/pnk/config.py",
           "    if len(set(coords)) != len(coords):\n",
           "    if False:\n",
           "a flat torus whose angle_coords repeat an index is refused at "
           "build",
           ("tests/test_cli.py::test_refusal_names_its_key",)),
    Mutant("probe-collapse-accepted", "src/pnk/bifurcation.py",
           "    if float(np.max(radii)) <= 100.0 * opts.tol:\n",
           "    if False:\n",
           "a circle probe whose orbit collapsed onto the fixed point "
           "finds nothing",
           ("tests/test_bifurcation.py::TestPostcriticalProbe::"
            "test_circle_probe_refusals",)),
    Mutant("every-cycle-start-solved", "src/pnk/bifurcation.py",
           "            if twice and cycles:\n",
           "            if False:\n",
           "a flip has one 2-cycle, so the P o P starts stop at the first "
           "that files it",
           ("tests/test_bifurcation.py::TestPostcriticalProbe::"
            "test_flip_probe_solves_one_cycle_start",)),
    Mutant("failed-cycle-start-ends-search", "src/pnk/bifurcation.py",
           "            if twice and cycles:\n",
           "            if twice:\n",
           "a P o P start that files no 2-cycle hands over to the next",
           ("tests/test_bifurcation.py::TestPostcriticalProbe::"
            "test_failed_cycle_start_hands_over",)),
    Mutant("flip-jacobian-stale-frame", "src/pnk/catalog.py",
           "        _, _, rot, v, v0, e, r0, r1 = frame(x, eps)\n",
           "        _, _, rot, v, v0, e, r0, r1 = last[1] or frame(x, eps)\n",
           "the flip's jacobian reuses the last frame only at its own point; "
           "a stage calls the value first, so only out-of-order calls see it",
           ("tests/test_catalog.py::TestFlipFrame::"
            "test_kernels_called_out_of_order",)),
    Mutant("flip-frame-key-without-eps", "src/pnk/catalog.py",
           "        key = x.tobytes() + eps.tobytes()\n",
           "        key = x.tobytes()\n",
           "the flip's frame holds eps[0], so its key holds eps",
           ("tests/test_catalog.py::TestFlipFrame::"
            "test_kernels_called_out_of_order",
            "tests/test_catalog.py::TestFlipFrame::"
            "test_point_changed_in_place",
            "tests/test_catalog.py::TestKernelsKeepTheirBits::"
            "test_value_and_jacobian_equal_the_numpy_forms")),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    """How often the mutant's old text occurs in its file under root."""
    return (root / mutant.path).read_text(encoding="utf-8").count(mutant.old)


def run_tests(tree: Path, tests) -> subprocess.CompletedProcess:
    """pytest on the tests in the tree, importing pnk from its src."""
    path = os.pathsep.join(filter(None, [str(tree / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, capture_output=True, text=True)


def _tail(proc, lines=15) -> str:
    return "\n".join((proc.stdout + proc.stderr).splitlines()[-lines:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (all)")
    parser.add_argument("--list", action="store_true",
                        help="list the mutants and exit")
    args = parser.parse_args(argv)
    known = {m.name for m in MUTANTS}
    unknown = sorted(set(args.names) - known)
    if unknown:
        parser.error(f"unknown mutants {unknown}; known: {sorted(known)}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    if args.list:
        for m in chosen:
            print(f"{m.name}  {m.path}: {m.reason}")
        return 0

    stale = [f"{m.name}: old text occurs {occurrences(m)} times in {m.path}"
             for m in chosen if occurrences(m) != 1]
    if stale:
        print("refused, each old text must occur exactly once:\n  "
              + "\n  ".join(stale), file=sys.stderr)
        return 1

    failed = []
    with tempfile.TemporaryDirectory(prefix="pnk-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        tests = sorted({node for m in chosen for node in m.tests})
        proc = run_tests(tree, tests)
        if proc.returncode != 0:
            print("the listed tests fail on the unmutated tree:\n"
                  + _tail(proc), file=sys.stderr)
            return 1
        for m in chosen:
            target = tree / m.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m.old, m.new),
                              encoding="utf-8")
            started = time.perf_counter()
            try:
                proc = run_tests(tree, m.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            seconds = time.perf_counter() - started
            if proc.returncode == 1:
                print(f"killed    {m.name} ({seconds:.1f} s)")
                continue
            failed.append(m.name)
            if proc.returncode == 0:
                print(f"SURVIVED  {m.name} ({seconds:.1f} s): {m.reason}")
            else:
                print(f"ERROR     {m.name}: pytest exited "
                      f"{proc.returncode}\n{_tail(proc)}")
    print(f"{len(chosen) - len(failed)} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

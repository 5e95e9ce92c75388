#!/usr/bin/env python3
"""Print one sha256 per case over every array and number the case returns.

    python3 tools/result_digest.py --seed 1
    python3 tools/result_digest.py --seed 1 --write   # refreeze the gate

The cases are the four benchmark workloads of ``pnkbench.workloads``
(one ``run()`` each, built at the given seed; run reports pass through
``report.strip_volatile``) and the flow and Floquet paths that no
workload reaches: ``fundamental_matrix`` on the coefficients of
``extract_linearization`` in the parallel-transport gauge (the Hopf
seed has no angle coordinates) and, as ``oscillator_transport``, on the
k = 2 transported frame of the uncoupled oscillators at winding
(2, -1), ``forced_response`` on a periodic coefficient and forcing
(scaled by the Hopf block Ahat at t = 0), a negative-time
``integrate_variational``, and a section return that iterates:
``transversal_map`` with its jacobian and a restarting
``transversal_orbit`` on the twisting circle of ``tests/test_section.py``
(there the return Newton takes 5 iterations, and the orbit takes 4
loop-flow runs). ``polynomial_kernels`` evaluates the value, jacobian
and parameter jacobian of seeded random polynomial families, p = 0
included, which no shipped config reaches (``polynomial_verify`` has
k = 1 and evaluates no jacobian). ``multi_member_loops`` takes loop
fields of two members through the flow right-hand sides, which no
workload does: ``integrate_variational``, ``integrate_flow`` and the
samples of ``integrate_flow(..., times=...)`` of the uncoupled
oscillators at windings (1, 1) and (2, -1) and of a cubic straightened
pair at (1, -1), each from a point off its seed torus.
``crossing_scans`` holds the stripped reports of three bifurcate runs
whose crossing no workload's grid places as they do: the flip and
Neimark scans over -0.05..0.05 in 11 slices, where the crossing lies on
a slice, and the 12-slice flip scan at ``eps_tol`` 0.5, where the
bracket is already narrower than ``eps_tol``.

The hash covers every array (dtype, shape and bytes), number (by its
exact bits), string, flag and container of the returned objects, with
dataclass field names and their nesting; functions are skipped. Two
checkouts that print the same lines at a seed return the same results
bit for bit.

``--write`` freezes the lines of the given seed into ``DIGEST_GOLDEN``,
with the fingerprint of the machine that printed them (Python, numpy,
scipy, BLAS and CPU); ``tests/test_result_digest.py`` reruns the cases
and names every line that moved.
"""

import argparse
import dataclasses
import hashlib
import json
import platform
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST_GOLDEN = ROOT / "tests" / "golden" / "result_digest.json"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from pnk import report  # noqa: E402
from pnk.catalog import (StraightenedSpec, make_hopf,  # noqa: E402
                         make_straightened, make_uncoupled_oscillators)
from pnk.config import build_run, parse_config  # noqa: E402
from pnk.core import TWO_PI, loop_field  # noqa: E402
from pnk.floquet import (extract_linearization, forced_response,  # noqa: E402
                         fundamental_matrix)
from pnk.flow import integrate_flow, integrate_variational  # noqa: E402
from pnk.section import (build_section, transversal_map,  # noqa: E402
                         transversal_orbit)
from pnkbench.workloads import PREPARE  # noqa: E402
from tests.test_bifurcation import _scan  # noqa: E402
from tests.test_section import _twisting_circle  # noqa: E402


def feed(h, value) -> None:
    """Feed value into the hash h, tagged by type so that layouts differ."""
    if value is None:
        h.update(b"N")
    elif isinstance(value, (bool, np.bool_)):
        h.update(b"B1" if value else b"B0")
    elif isinstance(value, (int, np.integer)):
        h.update(b"I%d;" % int(value))
    elif isinstance(value, (float, np.floating)):
        h.update(b"F" + float(value).hex().encode())
    elif isinstance(value, (complex, np.complexfloating)):
        h.update(b"C" + complex(value).real.hex().encode() + b","
                 + complex(value).imag.hex().encode())
    elif isinstance(value, str):
        data = value.encode()
        h.update(b"S%d;" % len(data) + data)
    elif isinstance(value, np.ndarray) and value.dtype != object:
        h.update(b"A" + value.dtype.str.encode() + repr(value.shape).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(b"L%d;" % len(value))
        for item in value:
            feed(h, item)
    elif isinstance(value, dict):
        h.update(b"D%d;" % len(value))
        for key in sorted(value, key=str):
            feed(h, str(key))
            feed(h, value[key])
    elif dataclasses.is_dataclass(value):
        feed(h, type(value).__name__)
        for field in dataclasses.fields(value):
            feed(h, field.name)
            feed(h, getattr(value, field.name))
    elif callable(value):
        h.update(b"fn")
    else:
        raise TypeError(f"no digest rule for {type(value).__name__}")


def digest(value) -> str:
    h = hashlib.sha256()
    feed(h, value)
    return h.hexdigest()


def workload_case(name, seed, out_dir):
    result = PREPARE[name](seed, out_dir).run()
    if name == "shipped_configs":
        result = [(config, report.strip_volatile(doc), code)
                  for config, doc, code in result]
    return result


def floquet_cases(seed):
    """The flow and Floquet paths outside the workloads, on a Hopf system
    whose parameters the seed jitters as ``hopf_branch`` does."""
    rng = random.Random(seed)
    system = make_hopf(0.95 + 0.1 * rng.random(), 0.099 + 0.002 * rng.random())
    family, seed_ = system.family, system.seed
    coefficients = extract_linearization(family, seed_, [1])
    rate = float(coefficients.at(0.0, coefficients.frame)[1][0, 0])
    pair = make_uncoupled_oscillators()
    oscillators = extract_linearization(pair.family, pair.seed, [2, -1])
    field = loop_field(family, [1])
    return {
        "fundamental_matrix": lambda: fundamental_matrix(
            coefficients, coefficients.T, n_out=33),
        "oscillator_transport": lambda: fundamental_matrix(
            oscillators, oscillators.T, n_out=33),
        "forced_response": lambda: forced_response(
            lambda t: [[rate * (1.0 + 0.5 * np.cos(TWO_PI * t))]],
            lambda t: [np.sin(TWO_PI * t)], coefficients.T, n_out=33),
        "variational_negative_time": lambda: integrate_variational(
            field, seed_.base_point, seed_.eps0, -0.7),
    }


def return_cases():
    """Section returns whose Newton iterates, which no workload reaches."""
    family, seed = _twisting_circle(twist=10.0, eps0=0.01)
    frame = build_section(family, seed)
    return {
        "twisting_return_map": lambda: transversal_map(
            family, frame, [1], [0.05], with_jacobian=True),
        "twisting_return_orbit": lambda: transversal_orbit(
            family, frame, [1], [0.05], 12),
    }


def _random_polynomial(rng, n, k, p):
    """A polynomial system config with up to 3 terms per component:
    integer powers up to 3 (parameters up to 2), signed zero coefficients
    and empty components included."""
    def term():
        coeff = rng.choice([-0.0, 0.0, rng.uniform(-2.0, 2.0)])
        return [coeff, [rng.randint(0, 3) for _ in range(n)],
                [rng.randint(0, 2) for _ in range(p)]]

    fields = [[[term() for _ in range(rng.randint(0, 3))] for _ in range(n)]
              for _ in range(k)]
    return {"system": {"name": "polynomial",
                       "params": {"n": n, "k": k, "p": p, "fields": fields}},
            "torus": {"kind": "flat", "angle_coords": list(range(k)),
                      "values": [0.0] * n, "eps0": [0.0] * p},
            "analysis": "verify"}


def polynomial_case(seed):
    """Value, jacobian and parameter jacobian of each field of eight
    random polynomial families at three random points each."""
    rng = random.Random(seed)
    out = []
    for index in range(8):
        n = rng.randint(1, 4)
        p = 0 if index % 4 == 0 else rng.randint(1, 3)
        doc = _random_polynomial(rng, n, rng.randint(1, n), p)
        family = build_run(parse_config(doc)).family
        for _ in range(3):
            x = np.array([rng.uniform(-1.5, 1.5) for _ in range(n)])
            eps = np.array([rng.uniform(-1.0, 1.0) for _ in range(p)])
            for i in range(family.k):
                field = family.member(i)
                out.append((field.value(x, eps), field.jacobian(x, eps),
                            field.eps_jacobian(x, eps)))
    return out


def multi_member_loops():
    """Variational, plain and sampled time-one flows of loop fields with
    two members, from points off the seed tori."""
    pair = make_uncoupled_oscillators()
    cubic = make_straightened(StraightenedSpec(
        (np.diag([-0.3, 0.2]), np.diag([0.1, -0.4])), [[0.5], [0.25]],
        cubic=1.0))
    times = np.arange(1, 9) / 8
    out = []
    for system, alpha, offset in (
            (pair, [1, 1], [0.1, -0.2, 0.05, 0.0]),
            (pair, [2, -1], [0.1, -0.2, 0.05, 0.0]),
            (cubic, [1, -1], [0.0, 0.0, 0.1, 1e-3])):
        field = loop_field(system.family, alpha)
        x0 = system.seed.base_point + np.array(offset)
        eps = system.seed.eps0
        out.append((integrate_variational(field, x0, eps, 1.0),
                    integrate_flow(field, x0, eps, 1.0),
                    integrate_flow(field, x0, eps, 1.0, times=times).samples))
    return out


def crossing_scans():
    """The stripped reports of the flip and Neimark scans in 11 slices
    and of the flip scan in 12 slices at eps_tol 0.5."""
    scans = [("flip", 11, {}), ("neimark", 11, {}),
             ("flip", 12, {"eps_tol": 0.5})]
    with tempfile.TemporaryDirectory() as tmp:
        return [report.strip_volatile(_scan(Path(tmp) / str(i), system, num,
                                            **options))
                for i, (system, num, options) in enumerate(scans)]


def digests(seed):
    """(case name, digest) of every case at the seed, in printing order."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in PREPARE:
            yield name, digest(workload_case(name, seed, Path(tmp)))
    cases = {**floquet_cases(seed), **return_cases(),
             "polynomial_kernels": lambda: polynomial_case(seed),
             "multi_member_loops": multi_member_loops,
             "crossing_scans": crossing_scans}
    for name, case in cases.items():
        yield name, digest(case())


def machine():
    """What the bits of a digest may depend on beyond the source."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    cpu = [platform.machine()]
    try:
        with open("/proc/cpuinfo") as info:
            cpu += [line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")][:1]
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "cpu": ", ".join(cpu + config["SIMD Extensions"]["found"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--write", action="store_true",
                        help=f"also freeze the lines into {DIGEST_GOLDEN}")
    args = parser.parse_args(argv)
    lines = {}
    for name, value in digests(args.seed):
        print(name, value, flush=True)
        lines[name] = value
    if args.write:
        doc = {"seed": args.seed, "machine": machine(), "digests": lines}
        DIGEST_GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Bit identity of every result the digest tool covers.

``tools/result_digest.py`` hashes the bytes of the four benchmark
workloads' results and of the flow and Floquet paths no workload reaches.
Its lines at one seed are frozen in ``tests/golden/result_digest.json``,
with the machine that printed them; this test reruns the cases and names
every line that moved. Like the golden reports, it compares on every
machine: a line that moves with the BLAS or the CPU is a finding, and the
failure names both machines. A deliberate numerical change refreezes the
file with ``python3 tools/result_digest.py --seed 1 --write`` and says in
CHANGES.md which lines moved and why.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "result_digest.py"


@pytest.fixture()
def result_digest(monkeypatch):
    # the tool puts the repository on sys.path; undone after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("_result_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_equal_the_frozen_lines(result_digest):
    frozen = json.loads(result_digest.DIGEST_GOLDEN.read_text())
    got = dict(result_digest.digests(frozen["seed"]))
    want = frozen["digests"]
    moved = [name for name in want if got.get(name) != want[name]]
    added = [name for name in got if name not in want]
    here = result_digest.machine()
    machines = ("" if here == frozen["machine"] else
                f"; frozen on {frozen['machine']}, run on {here}")
    assert not moved and not added, (
        f"digest lines moved at seed {frozen['seed']}: {moved}; "
        f"new lines: {added}{machines}")

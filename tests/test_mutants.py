"""The recorded mutants of ``tools/mutants.py`` still apply.

Running the mutants takes too long for tier-1; this checks that the list
has not rotted: every old text occurs exactly once in its file, and
every test named to kill a mutant still exists.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "mutants.py"


@pytest.fixture(scope="module")
def mutants():
    spec = importlib.util.spec_from_file_location("_mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_old_text_occurs_once(mutants):
    counts = [(m.name, mutants.occurrences(m)) for m in mutants.MUTANTS]
    assert all(count == 1 for _, count in counts), counts


def test_names_are_distinct(mutants):
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def test_named_tests_exist(mutants):
    missing = []
    for m in mutants.MUTANTS:
        assert m.tests, m.name
        for node in m.tests:
            path, *parts = node.split("::")
            text = (ROOT / path).read_text(encoding="utf-8")
            for part in parts:
                if not re.search(rf"^\s*(class|def) {part}\b", text, re.M):
                    missing.append(f"{m.name}: {node}")
    assert not missing, missing

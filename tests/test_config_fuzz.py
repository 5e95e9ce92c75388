"""Property test of the CLI exit-code contract on mutated shipped configs.

Each example takes one shipped run config and changes or deletes one of
its options, catalog parameters or torus keys (defaults included). The
contract: ``pnk validate`` and ``pnk run`` exit with 0, 2, 3 or 4 and let
no exception escape, exits 3 and 4 write ``report.json``, and a config
that validates does not fail ``run`` with a configuration error.

Values are bounded JSON: windings |alpha| <= 2 and other numbers within
+-64, since a huge winding or grid is a valid run that only takes long.
"""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pnk.cli import main
from pnk.config import parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "run_configs"
SHIPPED = {path.stem: json.loads(path.read_text(encoding="utf-8"))
           for path in sorted(CONFIG_DIR.glob("*.json"))}
DELETE = object()


def _targets(doc):
    """(section path, key) of each option, system parameter and torus key."""
    norm = parse_config(doc).normalized
    return ([(("options",), key) for key in norm["options"]]
            + [(("system", "params"), key) for key in norm["system"]["params"]]
            + [(("torus",), key) for key in norm["torus"]])


TARGETS = {name: _targets(doc) for name, doc in SHIPPED.items()}


def _json_values(bound):
    numbers = st.one_of(st.integers(-bound, bound),
                        st.floats(-bound, bound))
    scalars = st.one_of(st.none(), st.booleans(), numbers,
                        st.text(max_size=3))
    return st.one_of(scalars, st.lists(numbers, max_size=4),
                     st.lists(st.lists(numbers, max_size=3), max_size=3))


@st.composite
def mutated_configs(draw):
    name = draw(st.sampled_from(sorted(SHIPPED)))
    section, key = draw(st.sampled_from(TARGETS[name]))
    value = draw(st.one_of(st.just(DELETE),
                           _json_values(2 if key == "alpha" else 64)))
    doc = copy.deepcopy(SHIPPED[name])
    target = doc
    for part in section:
        target = target.setdefault(part, {})
    if value is DELETE:
        target.pop(key, None)
    else:
        target[key] = value
    return doc


@settings(max_examples=300, derandomize=True, deadline=None)
@given(doc=mutated_configs())
def test_exit_codes_hold_for_mutated_configs(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = Path(tmp) / "out"
        validated = main(["validate", str(path)])
        ran = main(["run", str(path), "--out", str(out)])
        assert validated in (0, 2)
        assert ran in (0, 2, 3, 4)
        if ran in (3, 4):
            assert (out / "report.json").is_file()
        if validated == 0:
            assert ran != 2

"""Every imported name in the package modules and the tests is used, no
package module imports or reads a private name of another, importing
pnk or running it imports no scipy module, and a Floquet run imports
scipy.linalg only: its coefficients are exact, not interpolated, and
floquet.py imports no difference stencil.

The unused-import guard walks the syntax tree of ``src/pnk/*.py`` (but
``__init__.py``, which imports to re-export) and ``tests/*.py``. Names
listed in ``__all__``, ``from __future__ import annotations`` and imports
on a line marked ``# noqa: F401`` are exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "pnk").glob("*.py")
                 if p.name != "__init__.py") + sorted(
                     (ROOT / "tests").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "pnk").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name in ("*", "annotations"):
                continue
            if "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            bound = alias.asname or alias.name.split(".")[0]
            imported[bound] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES,
                         ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


# A module's private names are its own: a name another module needs is
# public. ``from . import _dop853`` imports a module, which is allowed;
# so is ``flow.__doc__``, but not ``flow._name`` on a sibling module
# that ``from . import flow`` bound.
def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _private_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    found = []
    siblings = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        for alias in node.names:
            if node.module is None:
                siblings[alias.asname or alias.name] = alias.name
            elif _is_private(alias.name):
                found.append(f"{node.module}.{alias.name} "
                             f"(line {node.lineno})")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _is_private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings):
            found.append(f"{siblings[node.value.id]}.{node.attr} "
                         f"(line {node.lineno})")
    return found


def test_private_import_guard_sees_names_not_modules():
    source = ("from . import _dop853\nfrom ._dop853 import SAFETY\n"
              "from .flow import __doc__, _run\n")
    assert _private_imports(source) == ["flow._run (line 3)"]


def test_private_import_guard_sees_sibling_attributes():
    source = ("import numpy as np\nfrom . import _dop853, flow as fl\n"
              "fl._run(_dop853.A, fl.__doc__, np._NoValue)\n"
              "_dop853._private = fl.integrate\n")
    assert sorted(_private_imports(source)) == [
        "_dop853._private (line 4)", "flow._run (line 3)"]


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_no_private_cross_module_import(path):
    assert _private_imports(path.read_text(encoding="utf-8")) == []


# scipy's subpackages take longer to import than numpy, and a run that
# needs none of them should not pay for them: pnk imports scipy inside
# the functions that call it, never at module level.
def _module_level_imports(source: str) -> list[str]:
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_no_module_level_scipy_import(path):
    names = _module_level_imports(path.read_text(encoding="utf-8"))
    assert [m for m in names if m.split(".")[0] == "scipy"] == []


# Runs in a fresh interpreter, so no test that imported scipy before it
# hides an import.
SCIPY_FREE_RUNS = """
import sys
from pathlib import Path

from pnk.cli import main, run_config
from pnk.config import load_config

configs, out = Path(sys.argv[1]), Path(sys.argv[2])
for path in sorted(configs.glob("*.json")):
    assert main(["validate", str(path)]) == 0, path
for name in ("hopf_torus", "straightened_continue", "polynomial_verify"):
    report, code = run_config(load_config(configs / f"{name}.json"),
                              out / name)
    assert code == 0, (name, report["error"])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _fresh_scipy_modules(script, *args):
    """The scipy modules that ``script`` prints, run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_runs_import_no_scipy(tmp_path):
    assert _fresh_scipy_modules(SCIPY_FREE_RUNS, ROOT / "run_configs",
                                tmp_path) == "[]"


FLOQUET_RUN = """
import sys
from pathlib import Path

from pnk.cli import run_config
from pnk.config import load_config

report, code = run_config(load_config(sys.argv[1]), Path(sys.argv[2]))
assert code == 0, report["error"]
print(sorted({".".join(m.split(".")[:2]) for m in sys.modules
              if m.split(".")[0] == "scipy"}))
"""


def test_floquet_run_imports_no_interpolation(tmp_path):
    # expm and logm of the decomposition come from scipy.linalg
    loaded = _fresh_scipy_modules(
        FLOQUET_RUN, ROOT / "run_configs" / "straightened_floquet.json",
        tmp_path)
    assert "'scipy.linalg'" in loaded
    assert "scipy.interpolate" not in loaded


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_no_interpolation_import_anywhere(path):
    # function bodies included: no pnk module interpolates samples
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += [f"{node.module}.{alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0
              for alias in node.names]
    assert not [m for m in names if m.startswith("scipy.interpolate")]


def test_floquet_imports_no_difference_stencil():
    # the frame transport is exact, G' = J G, so floquet differences nothing
    tree = ast.parse((ROOT / "src" / "pnk" / "floquet.py").read_text(
        encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    names |= {node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module}
    assert not [n for n in names if n.split(".")[-1] == "numdiff"]

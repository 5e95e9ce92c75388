#!/usr/bin/env python3
"""Regenerate the golden reports for the shipped example configs.

Runs every config in run_configs/ and freezes the reports (timing
stripped) into tests/golden/. Only rerun this when an intentional
numerical or format change invalidates the stored files; the acceptance
suite compares against them byte for byte.

Before overwriting a golden it prints what moved: the largest absolute
change of any number, with its JSON path, and every non-numeric value
that changed (strings, nulls, booleans, added or removed entries).

    python3 tools/regen_golden.py           # refreeze every golden
    python3 tools/regen_golden.py --check   # compare only, write nothing

``--check`` prints the same drift for every golden and exits 1 when any
report differs from its golden by a single byte (or has none), 0 when
every report matches.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pnk.cli import run_config  # noqa: E402
from pnk.config import load_config  # noqa: E402
from pnk.report import canonical_json, strip_volatile  # noqa: E402


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _changes(old, new, path=""):
    """Yield (path, old, new) for every leaf value that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}" if path else key
            yield from _changes(old.get(key, "<absent>"),
                                new.get(key, "<absent>"), sub)
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _changes(a, b, f"{path}[{i}]")
    elif old != new or type(old) is not type(new):
        yield path, old, new


def report_drift(name: str, old: dict, new: dict) -> None:
    top_path, top = "", 0.0
    other = []
    for path, before, after in _changes(old, new):
        if _is_number(before) and _is_number(after):
            if abs(after - before) > top:
                top_path, top = path, abs(after - before)
        else:
            other.append(f"  {path}: {json.dumps(before)} -> "
                         f"{json.dumps(after)}")
    where = f" ({top_path})" if top else ""
    print(f"{name}: largest numeric drift {top:.2g}{where}", *other, sep="\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with tests/golden, write nothing, "
                             "exit 1 on any difference")
    check = parser.parse_args(argv).check
    golden_dir = ROOT / "tests" / "golden"
    if not check:
        golden_dir.mkdir(parents=True, exist_ok=True)
    differ = 0
    for config_path in sorted((ROOT / "run_configs").glob("*.json")):
        config = load_config(config_path)
        with tempfile.TemporaryDirectory() as tmp:
            report, code = run_config(config, Path(tmp))
        if code != 0:
            print(f"{config_path.name}: exit code {code}, not freezing")
            return 1
        out = golden_dir / config_path.name
        text = canonical_json(strip_volatile(report))
        old = out.read_text(encoding="utf-8") if out.exists() else None
        if old is not None:
            report_drift(config_path.stem, json.loads(old), json.loads(text))
        if check:
            same = old == text
            differ += not same
            print(f"{out.relative_to(ROOT)}: "
                  f"{'identical' if same else 'DIFFERS'}")
            continue
        out.write_text(text, encoding="utf-8")
        print(f"froze {out.relative_to(ROOT)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

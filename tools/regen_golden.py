#!/usr/bin/env python3
"""Regenerate the golden reports for the shipped example configs.

Runs every config in run_configs/ and freezes the reports (timing
stripped) into tests/golden/. Only rerun this when an intentional
numerical or format change invalidates the stored files; the acceptance
suite compares against them byte for byte.

Before overwriting a golden it prints what moved: the largest absolute
change of any number, with its JSON path, and every non-numeric value
that changed (strings, nulls, booleans, added or removed entries).
"""

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


def main() -> int:
    golden_dir = ROOT / "tests" / "golden"
    golden_dir.mkdir(parents=True, exist_ok=True)
    for config_path in sorted((ROOT / "run_configs").glob("*.json")):
        config = load_config(config_path)
        with tempfile.TemporaryDirectory() as tmp:
            report, code = run_config(config, Path(tmp))
        if code != 0:
            print(f"{config_path.name}: exit code {code}, not freezing")
            return 1
        out = golden_dir / config_path.name
        text = canonical_json(strip_volatile(report))
        if out.exists():
            report_drift(config_path.stem,
                         json.loads(out.read_text(encoding="utf-8")),
                         json.loads(text))
        out.write_text(text, encoding="utf-8")
        print(f"froze {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden reports of the gallery manifests: the behaviour lock.

`tests/golden/<name>.json` holds the report and exit code of each named
gallery manifest.  `compare` checks a fresh report against one of them:
strings, ints, bools, None, key sets and list lengths must match exactly
(so do branches, ranks, check names, verdicts and exit codes); floats may
differ by at most ``REL * |golden| + ABS``.

Regenerate the files with

    PYTHONPATH=src python tests/golden_reports.py

and review the diff: a change of behaviour shows up there.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).with_name("golden")
REL = 1e-6
ABS = 1e-12


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def snapshot(report: dict, code: int) -> dict:
    """The stored form: the report as `confpair analyze` serialises it."""
    return {"exit_code": code, "report": json.loads(json.dumps(report, sort_keys=True))}


def load(name: str) -> dict:
    return json.loads(golden_path(name).read_text())


def compare(got, want, path: str = "") -> list[str]:
    """Paths at which `got` departs from the golden `want` (empty: a match)."""
    if type(got) is not type(want):
        return [f"{path}: type {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(set(got) ^ set(want))} differ"]
        out = []
        for key in sorted(want):
            out.extend(compare(got[key], want[key], f"{path}.{key}"))
        return out
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out.extend(compare(g, w, f"{path}[{i}]"))
        return out
    if isinstance(want, float):
        if got == want or (math.isnan(want) and math.isnan(got)):
            return []
        if not abs(got - want) <= REL * abs(want) + ABS:
            return [f"{path}: {got!r} != {want!r}"]
        return []
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def main():
    from confpair.cli import run_manifest
    from confpair.gallery import MANIFESTS

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(MANIFESTS):
        report, code = run_manifest(json.loads(json.dumps(MANIFESTS[name])))
        text = json.dumps(snapshot(report, code), sort_keys=True, indent=2) + "\n"
        golden_path(name).write_text(text)
        print(f"{name}: exit {code}")


if __name__ == "__main__":
    main()

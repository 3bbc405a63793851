"""Golden reports of the gallery manifests: the behaviour lock.

`tests/golden/<name>.json` holds the report and exit code of each named
gallery manifest.  `compare` checks a fresh report against one of them:
strings, ints, bools, None, key sets and list lengths must match exactly
(so do branches, ranks, check names, verdicts and exit codes); floats may
differ by at most ``REL * |golden| + ABS``.

Regenerate the files with

    PYTHONPATH=src python tests/golden_reports.py

and review the diff: a change of behaviour shows up there.  With `--check`
nothing is written: every float that differs from its golden value is
printed with its share of the bound ``REL * |golden| + ABS``, and so is
every key, string, int or other value that differs.  The exit status is 1
when some difference breaks the comparison, 0 otherwise.
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


def differences(got, want, path: str = ""):
    """(path, got, want, share) of every place where `got` departs from the
    golden `want`.  For two floats `share` is |got - want| over the bound
    ``REL * |golden| + ABS`` (they match while it is at most 1); it is None
    for every other difference, which no comparison forgives."""
    if type(got) is not type(want):
        yield path, f"type {type(got).__name__}", f"type {type(want).__name__}", None
    elif isinstance(want, dict):
        if set(got) != set(want):
            yield (path, f"keys {sorted(set(got) - set(want))}",
                   f"keys {sorted(set(want) - set(got))}", None)
        else:
            for key in sorted(want):
                yield from differences(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        if len(got) != len(want):
            yield path, f"length {len(got)}", f"length {len(want)}", None
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                yield from differences(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        if not (got == want or (math.isnan(want) and math.isnan(got))):
            yield path, got, want, abs(got - want) / (REL * abs(want) + ABS)
    elif got != want:
        yield path, got, want, None


def compare(got, want, path: str = "") -> list[str]:
    """Paths at which `got` departs from the golden `want` (empty: a match)."""
    return [f"{where}: {g!r} != {w!r}" for where, g, w, share in differences(got, want, path)
            if share is None or not share <= 1.0]


def main(argv=None) -> int:
    import argparse

    from confpair.cli import run_manifest
    from confpair.gallery import MANIFESTS

    parser = argparse.ArgumentParser(description="Regenerate or check the golden reports.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; print every value that differs from its golden one")
    args = parser.parse_args(argv)
    failed = False
    if not args.check:
        GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(MANIFESTS):
        report, code = run_manifest(json.loads(json.dumps(MANIFESTS[name])))
        got = snapshot(report, code)
        if not args.check:
            golden_path(name).write_text(json.dumps(got, sort_keys=True, indent=2) + "\n")
            print(f"{name}: exit {code}")
            continue
        for where, g, w, share in differences(got, load(name)):
            if share is None:
                print(f"{name}{where}: {g!r} != golden {w!r}")
            else:
                print(f"{name}{where}: {g!r} vs golden {w!r}, {share:.3g} of the bound")
            failed |= share is None or not share <= 1.0
    return int(failed)


if __name__ == "__main__":
    raise SystemExit(main())

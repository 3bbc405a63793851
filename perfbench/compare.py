"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py SET_A SET_B

Each set is a directory of run records as `perfbench/run.py` writes them
(`perfbench/out/runs/` by default); untraced records are compared.  For each
workload and end-to-end metric of BENCHMARK.json it prints both sides'
median and quartiles, how many run pairs the second side wins (runs pair
by seed when both sides ran the same seeds, else in seed order), and a
verdict judged by the metric's bound:

- better: B wins at least 9 of 10 pairs and the medians differ by more
  than the distance between A's quartiles;
- worse: B's median is worse than A's by more than the bound;
- unresolved: either side spreads (quartile distance over median) more
  than the bound, unless every run of B beats every run of A;
- no worse: otherwise.

It also prints the operations attempted and failed on each side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, list[dict]]:
    """Untraced run records of a set, per workload, in seed order."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> tuple[str, int]:
    """The verdict on B against A, and the number of pairs B wins."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    a1, ma, a3 = quartiles(a)
    b1, mb, b3 = quartiles(b)
    worse_by = sign * (mb - ma) / ma
    spread = max((a3 - a1) / ma, (b3 - b1) / mb)
    if pairs and wins >= 0.9 * len(pairs) and worse_by < 0 and abs(mb - ma) > a3 - a1:
        return "better", wins
    if spread > bound and not all(sign * (x - y) > 0 for x in a for y in b):
        return "unresolved", wins
    if worse_by > bound:
        return "worse", wins
    return "no worse", wins


def compare(set_a: Path, set_b: Path, bench: dict, out=sys.stdout):
    side_a, side_b = load(set_a), load(set_b)
    for wl in [w["name"] for w in bench["workloads"]]:
        ra, rb = side_a.get(wl, []), side_b.get(wl, [])
        if not ra or not rb:
            print(f"{wl}: no runs on {'A' if not ra else 'B'}", file=out)
            continue
        same_seeds = [r["seed"] for r in ra] == [r["seed"] for r in rb]
        pairing = "by seed" if same_seeds else "in seed order"
        for side, recs in (("A", ra), ("B", rb)):
            att = sum(r["result"]["attempted"] for r in recs)
            fail = sum(r["result"]["failed"] for r in recs)
            print(f"{wl} {side}: {len(recs)} runs, {att} operations attempted, {fail} failed"
                  f" ({fail / att:.4f}), all correct: "
                  f"{all(r['result']['correct'] for r in recs)}", file=out)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r["result"]["metrics"][name]["value"] for r in ra]
            b = [r["result"]["metrics"][name]["value"] for r in rb]
            pairs = list(zip(a, b))
            word, wins = verdict(a, b, pairs, metric["bound"], metric["better"] == "lower")
            a1, ma, a3 = quartiles(a)
            b1, mb, b3 = quartiles(b)
            print(f"  {name:<12} A {ma:10.4f} [{a1:.4f}, {a3:.4f}] spread {(a3 - a1) / ma:6.2%}"
                  f" | B {mb:10.4f} [{b1:.4f}, {b3:.4f}] spread {(b3 - b1) / mb:6.2%}"
                  f" | B/A {mb / ma - 1:+7.2%} | B wins {wins}/{len(pairs)} ({pairing})"
                  f" | bound {metric['bound']:.0%} | {word}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("set_a", type=Path)
    parser.add_argument("set_b", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    compare(args.set_a, args.set_b, json.loads(args.benchmark.read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the confpair manifest runner, driven from outside the program.

    python3 perfbench/run.py --workload pairs|extend|charts --seed N \\
        --seconds S --trace 0|1 [--record-dir DIR]

Run from the repository root.  One process and one caller run whole passes
over the workload's manifests in a closed loop: each operation is
`confpair.cli.run_manifest` followed by serialising the report as
`confpair analyze` writes it.  Passes repeat until the next one would end
after `--seconds`; at least two run.  The timed end-to-end metrics are CPU
seconds, scaled to a reference machine speed that a fixed unit of work
gauges every 50 ms while the passes run (see `speed.py`).  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with `--trace 0`, the per-layer ones with
`--trace 1`).
Each run also writes a record with every pass and operation time, and with
`--trace 1` the per-operation span sums, to `perfbench/out/runs/`.
"""

from __future__ import annotations

import os

# One BLAS thread (at most nproc): per-point linear algebra runs on small
# matrices, and a single thread keeps timings steady on a shared machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
_IMPORT_TIMER = ("import time; t = time.process_time(); import confpair.cli; "
                 "d = time.process_time() - t; import speed, statistics; speed.unit_seconds(); "
                 "print(d, statistics.median(speed.unit_seconds() for _ in range(20)))")


def measure_setup(repeats: int) -> list[tuple[float, float]]:
    """CPU seconds to import confpair.cli, each in a fresh interpreter, and
    the median CPU seconds of a unit of work timed right after it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, unit = proc.stdout.split()[-2:]
        times.append((float(seconds), float(unit)))
    return times


def _median(values):
    return statistics.median(values) if values else 0.0


def traced_metrics(warm_spans: list[list], warm_totals: list[float]):
    """Per-layer metrics (medians over the warm passes) and, per operation,
    how much of its wall time the spans account for."""
    per_pass = []
    accounting = []
    for op_spans in warm_spans:
        total: tuple[dict, dict] = ({}, {})
        for name, wall, stats, counts in op_spans:
            tracer.merge(total, (stats, counts))
            traced = tracer.self_total(stats)
            accounting.append({"manifest": name, "wall_s": wall, "spans_self_s": traced,
                               "unaccounted_share": abs(wall - traced) / wall})
        per_pass.append(tracer.layer_values(*total))
    values = {name: _median([v[name] for v in per_pass]) for name in per_pass[0]}
    values["trace.pass_s"] = _median(warm_totals)
    values["trace.unaccounted_share"] = max(a["unaccounted_share"] for a in accounting)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracer.PER_LAYER}
    return metrics, accounting


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-dir", type=Path, default=HERE / "out" / "runs")
    args = parser.parse_args(argv)

    if not (SRC / "confpair" / "cli.py").is_file():
        print(f"perfbench: no confpair sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from confpair import cli

    # an untimed import first, so that bytecode compilation is not timed
    setup = [] if args.trace else measure_setup(SETUP_REPEATS + 1)[1:]
    ops = workloads.build(args.workload, args.seed)
    serialize = tracer.report_json
    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
        serialize = tr.wrap(tracer.REPORT_JSON, tracer.report_json)

    # The traced run gauges no speed: the unit's numpy.linalg calls would
    # count in the per-layer metrics.
    gauge = speed.Gauge() if tr is None else None
    first_blobs: dict = {}
    passes: list[checks.PassResult] = []
    spans: list[list] = []  # per pass: per operation (name, wall, stats, counts)
    start = perf_counter()
    with gauge or contextlib.nullcontext():
        while True:
            op_spans: list = []
            on_op = None
            if tr is not None:
                def on_op(i, dt, op_spans=op_spans):
                    op_spans.append((ops[i].name, dt) + tr.take())
            t0 = perf_counter()
            passes.append(checks.run_pass(ops, cli.run_manifest, serialize, first_blobs, on_op,
                                          gauge))
            spans.append(op_spans)
            now = perf_counter()
            if len(passes) >= 2 and (now - start) + (now - t0) > args.seconds:
                break
    if tr is not None:
        tr.uninstall()

    failures = {name: why for p in passes for name, why in p.failed.items()}
    failed = sum(len(p.failed) for p in passes)
    known = {op.name: op.known_fault for op in ops}
    unexpected = sorted(name for name in failures if not known[name])
    for name, why in sorted(failures.items()):
        print(f"failed: {name}: {why[:300]}", file=sys.stderr)
    for i, op in enumerate(ops):
        warm = [p.seconds[i] for p in passes[1:]]
        warm_cpu = [p.cpu_seconds[i] for p in passes[1:]]
        print(f"{op.name:<34} {op.points:>6} points  cold {passes[0].seconds[i]:8.4f} s"
              f"  warm median {_median(warm):8.4f} s wall, {_median(warm_cpu):8.4f} s CPU")
    if gauge:
        units = [u for p in passes for u in p.unit_seconds]
        print(f"unit of work: median {_median(units):.4f} s CPU, range [{min(units):.4f}, "
              f"{max(units):.4f}], reference {speed.REFERENCE_S} s")

    warm_totals = [p.total for p in passes[1:]]
    accounting = None
    if tr is None:
        metrics = {
            "setup_s": {"value": _median([speed.scaled(t, u) for t, u in setup]), "unit": "s"},
            "cold_pass_s": {"value": passes[0].scaled_total, "unit": "s"},
            "pass_s": {"value": _median([p.scaled_total for p in passes[1:]]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    else:
        metrics, accounting = traced_metrics(spans[1:], warm_totals)

    line = {"correct": not unexpected, "attempted": len(ops) * len(passes),
            "failed": failed, "metrics": metrics}
    args.record_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "operations": [op.name for op in ops],
        "points": [op.points for op in ops], "setup_s": setup,
        "pass_seconds": [p.seconds for p in passes],
        "pass_cpu_seconds": [p.cpu_seconds for p in passes],
        "pass_unit_seconds": [p.unit_seconds for p in passes], "failures": failures,
        "accounting": accounting,
        "spans": [[{"manifest": n, "wall_s": w, "stats": s, "counts": c} for n, w, s, c in ps]
                  for ps in spans] if tr is not None else None,
        "result": line,
    }
    path = args.record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

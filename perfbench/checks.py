"""Correctness checks of one operation, and one pass over a workload.

A report is checked against the values the geometry fixes (see
`workloads.Operation.expect`), against every threshold its manifest states,
and against the bytes of its first run in the same process.  An operation
that raises, exits nonzero or misses a check is one failed operation; the
pass goes on.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter, process_time

import speed


def cpu_clock() -> float:
    """CPU seconds used so far by this process and by its children that
    have ended, so that work handed to a child process is still counted."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def report_problems(op, report: dict, code: int) -> list[str]:
    """Every way in which `report` (exit `code`) falls short of `op.expect`."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if report.get("passed") is not True:
        problems.append("report not passed")
    for chk in report.get("checks", []):
        name = chk.get("name", "?")
        if "value" in chk and "threshold" in chk:
            if not chk["value"] <= chk["threshold"]:
                problems.append(f"{name}: {chk['value']!r} above threshold {chk['threshold']!r}")
        elif "expected" in chk:
            if chk.get("actual") != chk["expected"]:
                problems.append(f"{name}: {chk.get('actual')!r} != {chk['expected']!r}")
        elif not chk.get("passed"):
            problems.append(f"{name}: not passed")
    results = report.get("results", {})
    expect = op.expect
    if "regions" in expect:
        regions = results.get("regions") or []
        if not regions:
            problems.append("no regions")
        for i, reg in enumerate(regions):
            got = (reg.get("branch"), reg.get("ranks", {}).get("rulings"),
                   reg.get("ranks", {}).get("transfer_bundle"))
            if got != tuple(expect["regions"]):
                problems.append(f"region{i}: (branch, rulings, transfer_bundle) = {got}, "
                                f"expected {tuple(expect['regions'])}")
    if "witness_pairing" in expect:
        wp = (results.get("degeneracy") or {}).get("witness_pairing_min")
        if wp is None or abs(wp - expect["witness_pairing"]) > 1e-9:
            problems.append(f"witness pairing {wp!r}, expected {expect['witness_pairing']}")
    if "nu" in expect:
        nu = ((results.get("nullity") or {}).get("1") or {}).get("max")
        if nu != expect["nu"]:
            problems.append(f"s = 1 nullity {nu!r}, expected {expect['nu']}")
    if "fiber_rank" in expect:
        lo, hi = expect["fiber_rank"]
        rank = results.get("fiber_rank")
        if not (isinstance(rank, int) and lo <= rank <= hi):
            problems.append(f"fibre rank {rank!r} outside [{lo}, {hi}]")
    return problems


@dataclass
class PassResult:
    """Wall and CPU time of each operation, the CPU times of the units of
    work timed during the pass, and the problems of the operations that
    failed."""

    seconds: list[float] = field(default_factory=list)
    cpu_seconds: list[float] = field(default_factory=list)
    unit_seconds: list[float] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.seconds)

    @property
    def scaled_total(self) -> float:
        """CPU seconds of the pass at the reference speed, gauged by the
        mean unit of the pass."""
        return speed.scaled(sum(self.cpu_seconds), statistics.fmean(self.unit_seconds))


def run_pass(ops, run_manifest, serialize, first_blobs: dict, on_op=None,
             gauge: speed.Gauge | None = None) -> PassResult:
    """Run each operation once: execute, serialise, time, then check.

    `first_blobs` maps an operation's name to its first report text in this
    process; a later repetition must match it byte for byte.  `on_op(i, dt)`
    is called after each operation with its wall time, outside the timed
    part.  With an open `gauge`, each operation's CPU time leaves out the
    gauge's own, and the pass keeps the units timed while it ran.
    """
    out = PassResult()
    first_unit = len(gauge.units) if gauge else 0
    for i, op in enumerate(ops):
        own0 = gauge.own_seconds if gauge else 0.0
        c0 = cpu_clock()
        t0 = perf_counter()
        try:
            report, code = run_manifest(op.doc)
            blob = serialize(report)
            error = None
        except Exception as exc:  # any raise is one failed operation; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        own = gauge.own_seconds - own0 if gauge else 0.0
        out.cpu_seconds.append(cpu_clock() - c0 - own)
        out.seconds.append(dt)
        if on_op is not None:
            on_op(i, dt)
        if error is not None:
            out.failed[op.name] = error
            continue
        problems = report_problems(op, report, code)
        if blob != first_blobs.setdefault(op.name, blob):
            problems.append("report differs from the first run of this manifest")
        if problems:
            out.failed[op.name] = "; ".join(problems)
    if gauge:
        out.unit_seconds = gauge.units[first_unit:]
    return out

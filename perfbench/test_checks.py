"""Negative controls for the benchmark's own checks and tracer.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from confpair import cli, jets  # noqa: E402
from confpair.errors import GeometryError  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _op(workload: str, name: str) -> workloads.Operation:
    return next(op for op in workloads.build(workload, 3) if op.name == name)


@pytest.fixture(scope="module")
def flat_pair():
    op = _op("pairs", "flat-pair")
    report, code = cli.run_manifest(op.doc)
    assert code == 0
    return op, report


def test_sound_report_has_no_problems(flat_pair):
    op, report = flat_pair
    assert checks.report_problems(op, report, 0) == []


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda r: r["results"]["regions"][0]["ranks"].__setitem__("rulings", 3),
                 id="flipped-rank"),
    pytest.param(lambda r: r["results"]["regions"][0].__setitem__("branch", "degenerate"),
                 id="wrong-branch"),
    pytest.param(lambda r: next(c for c in r["checks"] if "threshold" in c).__setitem__(
        "value", 1.0), id="residual-above-threshold"),
    pytest.param(lambda r: r["results"].__setitem__("regions", []), id="no-regions"),
])
def test_broken_report_is_a_problem(flat_pair, mutate):
    op, report = flat_pair
    broken = copy.deepcopy(report)
    mutate(broken)
    assert checks.report_problems(op, broken, 0)


def test_nonzero_exit_is_a_problem(flat_pair):
    op, report = flat_pair
    assert checks.report_problems(op, report, 2) == ["exit code 2"]


def test_wrong_nullity_and_fibre_rank_are_problems():
    nullity = workloads.Operation("n", {}, {"nu": 2})
    report = {"passed": True, "checks": [], "results": {"nullity": {"1": {"max": 3}}}}
    assert checks.report_problems(nullity, report, 0)
    fibre = workloads.Operation("f", {}, {"fiber_rank": (2, 2)})
    assert checks.report_problems(fibre, {"passed": True, "results": {"fiber_rank": 1}}, 0)


def _stub_ops(n=3):
    return [workloads.Operation(f"op{i}", {"i": i}) for i in range(n)]


def test_repeated_report_must_be_byte_identical():
    calls = []

    def runner(doc):
        calls.append(doc["i"])
        return {"passed": True, "checks": [], "results": {"n": len(calls)}}, 0

    ops = _stub_ops(1)
    first: dict = {}
    assert checks.run_pass(ops, runner, tracer.report_json, first).failed == {}
    second = checks.run_pass(ops, runner, tracer.report_json, first)
    assert list(second.failed) == ["op0"]
    assert "differs" in second.failed["op0"]


def test_geometry_error_is_one_failed_operation():
    def runner(doc):
        if doc["i"] == 1:
            raise GeometryError("frame jump")
        return {"passed": True, "checks": [], "results": {}}, 0

    result = checks.run_pass(_stub_ops(3), runner, tracer.report_json, {})
    assert len(result.seconds) == 3
    assert list(result.failed) == ["op1"]
    assert result.failed["op1"].startswith("GeometryError")


def test_gauged_pass_leaves_out_the_gauge_and_scales_by_the_mean_unit():
    gauge = speed.Gauge()

    def runner(doc):
        # spin for 0.2 s of CPU time besides the gauge's own
        t0, own0 = time.process_time(), gauge.own_seconds
        while time.process_time() - t0 - (gauge.own_seconds - own0) < 0.2:
            pass
        return {"passed": True, "checks": [], "results": {}}, 0

    with gauge:
        result = checks.run_pass(_stub_ops(2), runner, tracer.report_json, {}, gauge=gauge)
    assert len(result.unit_seconds) >= 4 and gauge.own_seconds > 0
    assert all(0.2 <= c < 0.21 for c in result.cpu_seconds)
    mean_unit = sum(result.unit_seconds) / len(result.unit_seconds)
    assert result.scaled_total == pytest.approx(sum(result.cpu_seconds) * speed.REFERENCE_S
                                                / mean_unit)
    assert checks.run_pass(_stub_ops(2), runner, tracer.report_json, {}).unit_seconds == []


def test_tracer_accounts_for_the_wall_time_and_restores_bindings():
    original_run = cli.run_manifest
    original_align = jets.align_frames
    tr = tracer.Tracer()
    tr.install()
    try:
        assert cli.run_manifest is not original_run
        serialize = tr.wrap(tracer.REPORT_JSON, tracer.report_json)
        walls = []
        result = checks.run_pass([_op("pairs", "flat-pair")], cli.run_manifest, serialize, {},
                                 lambda i, dt: walls.append(dt))
        stats, counts = tr.take()
    finally:
        tr.uninstall()
    assert result.failed == {}
    assert cli.run_manifest is original_run and jets.align_frames is original_align
    assert isinstance(vars(jets.ImmersionJet)["from_values"], staticmethod)
    # the by-name import in pair_pipeline went through the wrapper
    assert stats["jets.align_frames"][0] >= 1
    assert counts["pair_pipeline.regions"] == 1
    assert abs(walls[0] - tracer.self_total(stats)) < 0.01 * walls[0]
    values = tracer.layer_values(stats, counts)
    assert values["cli.run_manifest.self_s"] > 0
    assert values["numpy.linalg.calls"] > 0

import dataclasses
import inspect
import json
import re

import numpy as np
import pytest

from confpair import cli, extension, jets, lightcone
from confpair.cli import main, run_manifest
from confpair.errors import ManifestError, NotIsometricPair, RankJump
from confpair.gallery import GALLERY, MANIFESTS, build_immersion, catalog, default_chart
from confpair.jets import PipelineConfig


def test_catalog_has_at_least_eight_entries():
    assert len(catalog()) >= 8


@pytest.mark.parametrize("name", sorted(n for n in GALLERY if n not in
                                         ("inversion", "psi-lift", "congruence", "pad")))
def test_gallery_closed_form_and_fd_jets_agree(name):
    imap = GALLERY[name]()
    chart = default_chart(imap)
    closed = imap.jet(chart)
    fd = imap.jet_fd(chart)
    scale = max(float(np.max(np.abs(closed.d2))), 1.0)
    assert np.max(np.abs(fd.d1 - closed.d1)) < 1e-4 * scale
    assert np.max(np.abs(fd.d2 - closed.d2)) < 1e-4 * scale


def test_wrappers_compose():
    spec = {
        "builtin": "inversion",
        "params": {
            "of": {"builtin": "cylinder", "params": {"n": 2}},
            "center": [0.0, 0.0, 2.0],
        },
    }
    imap = build_immersion(spec)
    chart = default_chart(imap)
    jet = imap.jet(chart)
    assert jet.immersion_residual() > 1e-3
    lifted = build_immersion({"builtin": "psi-lift", "params": {"of": spec}})
    assert lifted.ambient.pseudo_pair


def test_expression_immersion_runs():
    doc = {
        "analysis": "single",
        "immersion": {
            "expr": ["cos(x1)", "sin(x1)", "x2"],
            "chart_dim": 2,
            "ambient": {"dim": 3},
        },
        "grid": {"shape": [7, 7], "spacing": [0.04, 0.04], "origin": [0.1, -0.1]},
        "nullity": {"s_values": [1], "points": "center"},
        "expect": {"nu": {"1": 1}},
    }
    report, code = run_manifest(doc)
    assert code == 0
    assert report["results"]["nullity"]["1"]["max"] == 1


def test_manifest_field_diagnostics():
    with pytest.raises(ManifestError) as err:
        run_manifest({
            "analysis": "pair",
            "left": {"builtin": "plane"},
            "grid": {"shape": [3, 3], "spacing": [0.1, 0.1], "origin": [0, 0]},
        })
    assert err.value.path == "right"
    with pytest.raises(ManifestError) as err:
        run_manifest({
            "analysis": "generate",
            "generator": {"left": {"builtin": "plane"}},
            "grid": {"shape": [3, 3], "spacing": [0.1, 0.1], "origin": [0, 0]},
        })
    assert "generator.lorentz" in str(err.value)
    with pytest.raises(ManifestError) as err:
        run_manifest({"analysis": "single", "immersion": {"builtin": "nope"},
                      "grid": {"shape": [3], "spacing": [0.1], "origin": [0.0]}})
    assert "builtin" in str(err.value)


def plane_doc(p):
    return {"analysis": "single", "immersion": {"builtin": "plane", "params": {"n": 2, "p": p}},
            "grid": {"shape": [5, 5], "spacing": [0.1, 0.1], "origin": [0.0, 0.0]}}


def test_plane_of_codimension_0_is_the_chart_itself():
    report, code = run_manifest(plane_doc(0))
    assert code == 0
    assert report["results"]["codimension"] == 0


def test_plane_of_negative_codimension_is_a_manifest_error():
    with pytest.raises(ManifestError) as err:
        run_manifest(plane_doc(-1))
    assert err.value.path == "immersion.params"
    assert "p >= 0" in str(err.value)


def test_tolerance_range_enforced():
    doc = dict(MANIFESTS["cylinder-nullity"])
    with pytest.raises(ManifestError):
        run_manifest(doc, tolerance=0.5)


def test_main_exit_codes(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "analysis": "single",
        "immersion": {"builtin": "cylinder", "params": {"n": 2}},
        "grid": {"shape": [5, 5], "spacing": [0.05, 0.05], "origin": [0.1, -0.1]},
        "nullity": {"s_values": [1], "points": "center"},
        "expect": {"nu": {"1": 1}},
    }))
    out = tmp_path / "rep.json"
    assert main(["analyze", str(manifest), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"]

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad), "--output", str(out)]) == 1

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({
        "analysis": "single",
        "immersion": {"builtin": "cylinder", "params": {"n": 2}},
        "grid": {"shape": [5, 5], "spacing": [0.05, 0.05], "origin": [0.1, -0.1]},
        "nullity": {"s_values": [1], "points": "center"},
        "expect": {"nu": {"1": 2}},  # wrong on purpose
    }))
    assert main(["analyze", str(wrong), "--output", str(out)]) == 2


def test_gallery_run_and_csv(tmp_path):
    out = tmp_path / "flat.json"
    csv_path = tmp_path / "flat.csv"
    code = main(["gallery", "run", "flat-pair", "--output", str(out),
                 "--csv-dump", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["point", "x1", "x2", "x3", "region"]
    first = lines[1].split(",")
    assert [float(x) for x in first[1:4]] == [0.1, -0.09, -0.06]  # plain numbers
    assert first[4:6] == ["0", "nondegenerate"] and len(lines) == 1 + 7 * 7 * 5
    report = json.loads(out.read_text())
    assert report["results"]["regions"][0]["ranks"]["rulings"] == 2


def test_csv_rows_are_built_only_for_a_csv_dump(monkeypatch, tmp_path):
    built = []
    real = cli._csv_rows

    def recorded(*args):
        built.append(1)
        return real(*args)

    monkeypatch.setattr(cli, "_csv_rows", recorded)
    doc = json.loads(json.dumps(MANIFESTS["flat-pair"]))
    run_manifest(doc)
    assert built == []
    run_manifest(doc, csv_dump=str(tmp_path / "flat.csv"))
    assert built == [1]


def test_region_filter(tmp_path):
    out = tmp_path / "r.json"
    assert main(["gallery", "run", "flat-pair", "--output", str(out), "--region", "0"]) == 0
    report = json.loads(out.read_text())
    assert len(report["results"]["regions"]) == 1
    assert main(["gallery", "run", "flat-pair", "--output", str(out), "--region", "7"]) == 1


def test_inline_jet_table_input():
    import numpy as np
    from confpair.jets import ChartGrid
    from confpair.gallery import GALLERY

    imap = GALLERY["cylinder"](n=2)
    grid = ChartGrid((9, 9), (0.03, 0.03), (0.1, -0.12))
    values = imap.values(grid.points())
    doc = {
        "analysis": "single",
        "immersion": {"table": {"values": values.tolist()}},
        "grid": {"shape": [9, 9], "spacing": [0.03, 0.03], "origin": [0.1, -0.12]},
        "nullity": {"s_values": [1], "points": "center"},
        "expect": {"nu": {"1": 1}},
    }
    report, code = run_manifest(doc)
    assert code == 0
    assert report["results"]["source"] == "finite-difference"


def _table_manifest(values):
    return {
        "analysis": "single",
        "immersion": {"table": {"values": values}},
        "grid": {"shape": [3, 3], "spacing": [0.1, 0.1], "origin": [0.0, 0.0]},
    }


MALFORMED_TABLES = {
    "flat": [float(i) for i in range(9)],
    "ragged": [[0.0, 1.0, 2.0]] * 8 + [[0.0, 1.0]],
    "strings": [["a", "b", "c"]] * 9,
    "nan": [[0.0, float("nan"), 1.0]] * 9,
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_TABLES))
def test_malformed_value_table_is_a_manifest_error(kind):
    with pytest.raises(ManifestError) as err:
        run_manifest(_table_manifest(MALFORMED_TABLES[kind]))
    assert err.value.path == "immersion.table.values"


def test_main_reports_a_malformed_value_table(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(_table_manifest(MALFORMED_TABLES["ragged"])))
    assert main(["analyze", str(manifest), "--output", str(tmp_path / "out.json")]) == 1
    assert "immersion.table.values" in capsys.readouterr().err


@pytest.mark.parametrize("axes", [2, 3])
def test_expr_outside_its_domain_is_not_an_immersion(tmp_path, capsys, axes):
    # the upper unit sphere as a graph, on a grid that leaves the unit ball:
    # the outer points have NaN jets, which no LAPACK routine may see
    xs = [f"x{i + 1}" for i in range(axes)]
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "analysis": "single",
        "immersion": {"expr": xs + ["sqrt(1 - " + " - ".join(f"{x} * {x}" for x in xs) + ")"],
                      "chart_dim": axes},
        "grid": {"shape": [5] * axes, "spacing": [0.2] * axes, "origin": [0.5] * axes},
    }))
    with np.errstate(invalid="ignore"):
        assert main(["analyze", str(manifest), "--output", str(tmp_path / "out.json")]) == 1
    assert "NotImmersion: differential drops rank on the chart grid" in capsys.readouterr().err


@pytest.mark.parametrize("component, message", [
    ("1/0", "1 / 0: float division by zero"),
    ("x1 + 2 * 10**400", "10 ** 400: "),
    ("x1 * (-8)**0.5", "(-8) ** 0.5: a negative number to a fractional power"),
])
def test_constant_arithmetic_error_in_an_expr_is_a_manifest_error(tmp_path, capsys, component,
                                                                    message):
    # 1/0 once died in a ZeroDivisionError past main's handlers, 10**400 in an
    # OverflowError and (-8)**0.5 in a TypeError on its complex value
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "analysis": "single", "immersion": {"expr": ["x1", "x2", component], "chart_dim": 2},
        "grid": {"shape": [5, 5], "spacing": [0.1, 0.1], "origin": [0.1, 0.1]}}))
    assert main(["analyze", str(manifest), "--output", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"manifest error: immersion.expr[2]: {message}")
    assert not (tmp_path / "out.json").exists()


def test_grid_cap_enforced():
    with pytest.raises(ManifestError) as err:
        run_manifest({
            "analysis": "single",
            "immersion": {"builtin": "plane", "params": {"n": 2}},
            "grid": {"shape": [101, 101], "spacing": [0.01, 0.01], "origin": [0, 0]},
        })
    assert "desk-scale" in str(err.value)


def _cylinder_nullity_at(points):
    doc = json.loads(json.dumps(MANIFESTS["cylinder-nullity"]))
    doc["nullity"]["points"] = points
    return doc


def test_nullity_points_select_flat_indices(tmp_path):
    report, code = run_manifest(_cylinder_nullity_at([0]))
    assert code == 0
    assert [idx for idx, _ in report["results"]["nullity"]["1"]["per_point"]] == [0]
    report, _ = run_manifest(_cylinder_nullity_at([0, 5]))
    assert [idx for idx, _ in report["results"]["nullity"]["1"]["per_point"]] == [0, 5]
    report, _ = run_manifest(_cylinder_nullity_at("all"))  # s = 1: every grid point
    npoints = report["results"]["chart_points"]
    assert [idx for idx, _ in report["results"]["nullity"]["1"]["per_point"]] == list(range(npoints))

    manifest = tmp_path / "m.json"
    out = tmp_path / "rep.json"
    for bad in ([125], [-1], [], "everywhere", [0.5], [True]):
        manifest.write_text(json.dumps(_cylinder_nullity_at(bad)))
        assert main(["analyze", str(manifest), "--output", str(out)]) == 1
    with pytest.raises(ManifestError) as err:
        run_manifest(_cylinder_nullity_at([125]))
    assert err.value.path == "nullity.points"


def test_flat_pair_checks_are_json_booleans(gallery_reports):
    report = json.loads(gallery_reports["flat-pair"]["blob"])
    assert report["checks"]
    assert all(check["passed"] is True for check in report["checks"])


def test_extend_refuses_a_pair_that_splits_into_regions(tmp_path, capsys):
    # cylinders over two curves of speed sqrt(1 + t^4) with an inflection at
    # t = 0: the pipeline re-splits the chart into t < 0, t = 0 and t > 0
    doc = {
        "analysis": "extend",
        "grid": {"shape": [7, 5, 5], "spacing": [0.05, 0.05, 0.05], "origin": [-0.15, 0.0, 0.0]},
        "left": {"expr": ["x1", "x1 * x1 * x1 / 3", "x2", "x3"], "chart_dim": 3},
        "right": {"expr": ["x1", "x1 * x1 * sin(x1) + 2 * x1 * cos(x1) - 2 * sin(x1)",
                           "-x1 * x1 * cos(x1) + 2 * x1 * sin(x1) + 2 * cos(x1)", "x2", "x3"],
                  "chart_dim": 3},
    }
    with pytest.raises(RankJump, match=re.escape("the pair splits into 3 regions of [75, 25, 75] points")):
        run_manifest(json.loads(json.dumps(doc)))
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--output", str(tmp_path / "out.json")]) == 1
    assert "analysis error: RankJump" in capsys.readouterr().err


def run_config(monkeypatch, name: str, **options) -> PipelineConfig:
    """Run a gallery manifest, which must pass, and return the run's config."""
    doc = json.loads(json.dumps(MANIFESTS[name]))
    seen = []
    real = cli._RUNNERS[doc["analysis"]]

    def runner(doc, cfg):
        seen.append(cfg)
        return real(doc, cfg)

    monkeypatch.setitem(cli._RUNNERS, doc["analysis"], runner)
    assert run_manifest(doc, **options)[1] == 0
    return seen[-1]


def spy_fundamental_data(monkeypatch, *modules):
    """(jet, cfg) of every `fundamental_data` call made through the given
    modules' imported names."""
    calls = []
    real = jets.fundamental_data

    def spy(jet, cfg):
        calls.append((jet, cfg))
        return real(jet, cfg)

    for module in modules:
        monkeypatch.setattr(module, "fundamental_data", spy)
    return calls


def test_transfer_manifest_builds_fundamental_data_once_per_jet(monkeypatch):
    calls = spy_fundamental_data(monkeypatch, cli, lightcone)
    cfg = run_config(monkeypatch, "cylinder-inversion-transfer")
    # the run's own jet and its cone lift, both built with the run's config
    assert len(calls) == 2
    assert calls[0][0] is not calls[1][0]
    assert all(given is cfg for _, given in calls)


def test_extend_manifest_verifies_at_the_run_align_floor(monkeypatch):
    calls = spy_fundamental_data(monkeypatch, extension)
    cfg = run_config(monkeypatch, "flat-extension")
    assert len(calls) == 2 and all(given is cfg for _, given in calls)


def test_obstruction_sweeps_at_the_run_align_floor(monkeypatch):
    # the kernel and fiber fits of `extension_obstruction` (an empty fiber
    # included), reached from a pair report and from an extend manifest with
    # hand-built transfer data, and the fit of the extension's empty tube
    # bundle are gated at the run's alignment floor
    floors = []
    real = jets.align_frames

    def spy(*args, **kwargs):
        floors.append(kwargs["cfg"].align_floor)
        return real(*args, **kwargs)

    monkeypatch.setattr(extension, "align_frames", spy)
    cfg = run_config(monkeypatch, "flat-pair")
    assert floors == [cfg.align_floor] * 2
    cfg = run_config(monkeypatch, "flat-extension")
    assert floors == [cfg.align_floor] * 5


def recording_rank_tol(real, seen: list):
    """`real`, recording the rank tolerance of each call: its `tol`
    argument, or the `rank_tol` of the config it is given where it has no
    `tol` or (`align_frames`) is given none and takes it from the config."""
    signature = inspect.signature(real)

    def spy(*args, **kwargs):
        given = signature.bind(*args, **kwargs)
        given.apply_defaults()
        args_ = given.arguments
        seen.append(args_["cfg"].rank_tol if args_.get("tol") is None else args_["tol"])
        return real(*args, **kwargs)

    return spy


@pytest.mark.parametrize("name", ["flat-extension", "degenerate-extension",
                                  "cylinder-inversion-transfer"])
def test_tolerance_reaches_the_extension_and_the_transfer_check(monkeypatch, name):
    # no rank decision of the obstruction, the tube or the cone lift keeps
    # the default 1e-9 (or its tenfold 1e-8) when the run asks for 2e-9;
    # the tube's 1e-7 gates are fixed literals for now
    seen = []
    for module in (extension, lightcone):
        for fname in ("kernel_stack", "span_stack", "complement_stack", "align_frames",
                      "fundamental_data"):
            if hasattr(module, fname):
                monkeypatch.setattr(module, fname, recording_rank_tol(getattr(module, fname), seen))
    cfg = run_config(monkeypatch, name, tolerance=2e-9)
    assert [tol for tol in seen if tol in (1e-9, 1e-8)] == []
    assert cfg.rank_tol in seen
    assert (1e-7 in seen) is name.endswith("-extension")  # only an extension has a tube


def test_slicer_gates_conformality_at_the_run_config(monkeypatch):
    # a run whose conformal tolerance is not the 1e-6 default: the slicer's
    # gate on the projected pair must get the run's value
    doc = json.loads(json.dumps(MANIFESTS["degenerate-extension"]))
    doc["analysis"] = "generate"
    del doc["checks"]  # the extension's thresholds are no generate keys
    real_runner = cli._RUNNERS["generate"]
    monkeypatch.setitem(cli._RUNNERS, "generate",
                        lambda doc, cfg: real_runner(doc, dataclasses.replace(cfg, conformal_tol=3e-6)))
    given = []
    real = jets.conformal_factor_of_metrics

    def spy(gf, gg, *tol):
        given.append(tol)
        return real(gf, gg, *tol)

    monkeypatch.setattr(extension, "conformal_factor_of_metrics", spy)
    assert run_manifest(doc)[1] == 0
    assert given == [(3e-6,)]


@pytest.mark.parametrize("name, axes, ruled", [
    ("cylinder-nullity", [1, 2], True),  # the rulings of the cylinder
    ("graph-nullity", [0, 1], False),    # a curved graph has no umbilic coordinate planes
])
def test_single_manifest_reports_conformally_ruled(name, axes, ruled):
    doc = {key: MANIFESTS[name][key] for key in ("analysis", "immersion", "grid")}
    doc["ruled"] = {"axes": axes, "expect_ruled": ruled}
    report = run_manifest(json.loads(json.dumps(doc)))[0]
    verdict = report["results"]["conformally_ruled"]
    assert verdict["axes"] == axes
    assert verdict["ruled"] is ruled
    assert verdict["bracket_residual"] < 1e-12  # coordinate fields commute
    assert (verdict["umbilic_residual"] < 1e-12) is ruled
    assert report["checks"] == [{"name": "conformally_ruled", "actual": ruled,
                                 "expected": ruled, "passed": True}]


def test_single_manifest_reports_rigidity():
    # a hypersurface (p = 1) with distinct principal curvatures, n = 5, q = 1:
    # the threshold is nu_1 <= n + p - q - 2 - 1 = 2 and nu_1 = 1
    doc = {"analysis": "single", "immersion": {"builtin": "graph", "params": {"n": 5}},
           "grid": {"shape": [3] * 5, "spacing": [0.03] * 5, "origin": [-0.03] * 5},
           "rigidity_q": 1}
    rigidity = run_manifest(doc)[0]["results"]["rigidity"]
    assert rigidity == {"q": 1, "thresholds": {"per_s": {"1": 2}, "extra_nu1": None},
                        "nu_lower_bounds": {"1": 1}, "satisfied": True,
                        "conclusive_violation": False}


def table_variant(name: str, side: str) -> dict:
    """The gallery pair manifest `name` with one side given as the value
    table of its closed form on the manifest's grid."""
    doc = json.loads(json.dumps(MANIFESTS[name]))
    grid = doc["grid"]
    chart = jets.ChartGrid(tuple(grid["shape"]), tuple(grid["spacing"]), tuple(grid["origin"]))
    doc[side] = {"table": {"values": build_immersion(doc[side]).values(chart.points()).tolist()}}
    return doc


LIFT_NOTE = "right immersion lifted to its isometric cone representative"


def test_stencil_pair_counts_as_isometric_at_the_stencil_tolerance():
    # a tabulated side's stencil metric is off by about 1e-7, above the 1e-8
    # of exact jets but within `fd_tol`, so the pair is not lifted to the cone
    report, code = run_manifest(table_variant("flat-pair", "right"))
    assert code == 0 and report["results"]["notes"] == []
    assert [(r["branch"], r["ranks"]["rulings"], r["ranks"]["transfer_bundle"])
            for r in report["results"]["regions"]] == [("nondegenerate", 2, 0)]
    report, _ = run_manifest(table_variant("congruent-pair", "right"))
    assert report["results"]["notes"] == []
    assert len(report["results"]["regions"]) == 1


def pair_outcome(doc: dict):
    report, _ = run_manifest(doc)
    return report["passed"], [(r["branch"], r["ranks"]) for r in report["results"]["regions"]]


@pytest.mark.parametrize("name, centre", [
    ("congruent-pair", [0.0, 0.0, 0.0, 5.0]),
    ("congruent-pair", [3.0, 3.0, 3.0, 3.0]),
    ("flat-pair", [2.0, 2.0, 2.0, 2.0]),
    ("flat-pair", [-1.0, 3.0, 0.0, 2.0]),
])
def test_inverting_the_right_side_leaves_its_cone_lift_analysis_alone(name, centre):
    # an ambient Moebius map acts on the cone lift as a Lorentz isometry, so
    # the inverted side lifts to the same pair analysis as its psi-lift
    # (which of flat-pair's two answers is right is not asserted here)
    lifted = json.loads(json.dumps(MANIFESTS[name]))
    lifted["right"] = {"builtin": "psi-lift", "params": {"of": lifted["right"]}}
    inverted = json.loads(json.dumps(MANIFESTS[name]))
    inverted["right"] = {"builtin": "inversion",
                         "params": {"of": inverted["right"], "center": centre}}
    assert pair_outcome(inverted) == pair_outcome(lifted)


def test_extend_takes_a_value_table_side():
    # extend reads its sides through the same stage as pair: here the plane
    # (x1, x2, x3, 0, 0) as a value table on the grid
    report, code = run_manifest(table_variant("flat-extension", "left"))
    assert code == 0
    assert report["results"]["inputs"]["left"] == "table"
    assert report["results"]["fiber_rank"] == 1


def test_extend_never_lifts_a_conformal_side():
    # the inverted cylinder is conformal, not isometric, to the plane: a pair
    # manifest lifts it to the cone, extend refuses the pair as it stands
    doc = {key: json.loads(json.dumps(MANIFESTS["flat-pair"][key])) for key in ("grid", "left")}
    doc["analysis"] = "extend"
    doc["right"] = {"builtin": "inversion", "params": {"of": MANIFESTS["flat-pair"]["right"],
                                                       "center": [2.0, 2.0, 2.0, 2.0]}}
    with pytest.raises(NotIsometricPair, match=re.escape("relative residual 9.943e-01")):
        run_manifest(json.loads(json.dumps(doc)))


SLICE_GATES = ["slice_metric_gap", "conformal_residual", "factor_vs_null_pairing"]


@pytest.mark.parametrize("name, points", [("degenerate-pair", 875), ("degenerate-extension", 175)])
def test_every_generated_pair_is_gated_by_its_slice(monkeypatch, name, points):
    # generate and extend read a generator section through one input stage,
    # so both report the slice and fail on a slice that is not conformal
    report, code = run_manifest(json.loads(json.dumps(MANIFESTS[name])))
    assert code == 0 and [c["name"] for c in report["checks"][:3]] == SLICE_GATES
    described = report["results"]["inputs"] if name.endswith("-extension") else report["results"]
    assert described["slice_points"] == points
    real = cli.generate_conformal_pair

    def off_the_cone(*args, **kwargs):
        data = real(*args, **kwargs)
        data.diagnostics["conformal_residual"] = 1e-3
        return data

    monkeypatch.setattr(cli, "generate_conformal_pair", off_the_cone)
    report, _ = run_manifest(json.loads(json.dumps(MANIFESTS[name])))
    assert report["checks"][1] == {"name": "conformal_residual", "value": 1e-3,
                                   "threshold": 1e-6, "passed": False}
    assert report["passed"] is False


def test_generated_and_given_pairs_report_the_same_keys():
    given = run_manifest(json.loads(json.dumps(MANIFESTS["flat-pair"])))[0]["results"]
    generated = run_manifest(json.loads(json.dumps(MANIFESTS["degenerate-pair"])))[0]["results"]
    assert set(given) - {"left", "right"} == set(generated) - {"left", "lorentz", "slice_points",
                                                               "diagnostics", "conformal_factor_range"}
    assert set(given["degeneracy"]) == set(generated["degeneracy"])


def test_shared_flat_normal_needs_one_ambient_on_both_sides(tmp_path, capsys):
    # the plane lies in R^5 and the unpadded cylinder in R^4
    doc = json.loads(json.dumps(MANIFESTS["flat-extension"]))
    doc["right"] = {"builtin": "cylinder", "params": {"n": 3}}
    with pytest.raises(ManifestError) as err:
        run_manifest(doc)
    assert err.value.path == "transfer.shared_flat_normal"
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--output", str(tmp_path / "out.json")]) == 1
    assert "manifest error: transfer.shared_flat_normal" in capsys.readouterr().err


def _gallery_doc(name, **changes):
    """A copy of gallery manifest `name` with (dotted path, value) changes."""
    doc = json.loads(json.dumps(MANIFESTS[name]))
    for path, value in changes.items():
        *parents, key = path.split(".")
        node = doc
        for parent in parents:
            node = node.setdefault(parent, {})
        node[key] = value
    return doc


BAD_AXES = [[7], [-1], [1, 1], [True], [0.5], 1]


@pytest.mark.parametrize("name, key, axes", [
    *[("cylinder-nullity", "ruled.axes", axes) for axes in BAD_AXES],
    *[("cylinder-inversion-transfer", "transfer.ruling_axes", axes)
      for axes in ([5], [9], [-1], [1, 1], [False], "0")],
    *[("flat-extension", "transfer.ruling_axes", axes) for axes in BAD_AXES],
    *[("degenerate-extension", "generator.axis", axis) for axis in (9, 5, -1, True, 0.0)],
])
def test_chart_axes_outside_the_chart_are_manifest_errors(name, key, axes):
    with pytest.raises(ManifestError) as err:
        run_manifest(_gallery_doc(name, **{key: axes}))
    assert err.value.path == key
    assert re.search(r"expected (distinct chart axes|a chart axis) in \[0, ", str(err.value))


@pytest.mark.parametrize("spec, path, message", [
    ({"builtin": "psi-lift", "params": {"of": {"builtin": "plane"}, "tilt": 1.0}},
     "immersion.params.tilt", "unknown key"),
    ({"builtin": "inversion", "params": {"of": {"builtin": "cylinder"}}},
     "immersion.params.center", "missing required field"),
    ({"builtin": "congruence", "params": {"of": {"builtin": "sphere"}, "shift": [1.0]}},
     "immersion.params", "shift needs 3 components"),
    ({"builtin": "congruence", "params": {"of": {"builtin": "sphere"}, "seed": "a"}},
     "immersion.params.seed", "'a'"),
    ({"builtin": "pad", "params": {"of": {"builtin": "cylinder"}, "extra": -1}},
     "immersion.params", "extra >= 0"),
    ({"builtin": "cylinder", "params": {"radius": 0}}, "immersion.params", "radius > 0"),
    ({"builtin": "graph", "params": {"n": 3, "curvatures": [1.0]}}, "immersion.params",
     "graph needs n = 3 curvatures, got 1"),
])
def test_wrapper_params_are_manifest_errors(spec, path, message):
    with pytest.raises(ManifestError) as err:
        run_manifest({"analysis": "single", "immersion": spec,
                      "grid": {"shape": [5, 5], "spacing": [0.04, 0.04], "origin": [0.9, 0.7]}})
    assert err.value.path == path
    assert message in str(err.value)


def test_pad_by_zero_is_its_argument():
    report, code = run_manifest({
        "analysis": "single",
        "immersion": {"builtin": "pad", "params": {"of": {"builtin": "cylinder"}, "extra": 0}},
        "grid": {"shape": [5, 5], "spacing": [0.04, 0.04], "origin": [0.1, -0.1]}})
    assert code == 0 and report["results"]["codimension"] == 1


@pytest.mark.parametrize("name, key, value, path", [
    ("cylinder-nullity", "expect.nu", {"1": 2, "2": 1}, "expect.nu"),
    ("cylinder-inversion-transfer", "transfer", {"ruling_axes": [1]}, "transfer.base"),
    ("cylinder-inversion-transfer", "transfer.thresholds", {"sff": 1e-7},
     "transfer.thresholds.sff"),
    ("psi-invariants", "checks.lightcone_identities.points", 0,
     "checks.lightcone_identities.points"),
    ("psi-invariants", "checks.lightcone_identities.points", True,
     "checks.lightcone_identities.points"),
])
def test_missing_or_unknown_keys_are_manifest_errors(name, key, value, path):
    with pytest.raises(ManifestError) as err:
        run_manifest(_gallery_doc(name, **{key: value}))
    assert err.value.path == path


@pytest.mark.parametrize("key, value, message", [
    ("seed", "a", "expected a non-negative integer, got 'a'"),
    ("seed", True, "expected a non-negative integer, got True"),
    ("seed", 1.0, "expected a non-negative integer, got 1.0"),
    ("seed", -1, "expected a non-negative integer, got -1"),
    ("tolerance", "x", "expected a number in (0, 1e-3], got 'x'"),
    ("tolerance", True, "expected a number in (0, 1e-3], got True"),
    ("fd_tolerance", "x", "expected a number in (0, 1e-3], got 'x'"),
    *[("fd_tolerance", value, f"expected a number in (0, 1e-3], got {value!r}")
      for value in (-1, 0, 1, float("nan"), 0.01)],
])
def test_run_keys_of_the_wrong_type_or_range_are_manifest_errors(key, value, message):
    with pytest.raises(ManifestError) as err:
        run_manifest(_gallery_doc("flat-pair", **{key: value}))
    assert err.value.path == key
    assert message in str(err.value)


@pytest.mark.parametrize("name, key, value, path, message", [
    ("cylinder-nullity", "nullity.s_values", ["a"], "nullity.s_values",
     "expected a non-negative integer, got 'a'"),
    ("cylinder-nullity", "nullity.s_values", 1, "nullity.s_values", "expected a list, got 1"),
    ("psi-invariants", "checks.lightcone_identities.dim", "a",
     "checks.lightcone_identities.dim", "expected a non-negative integer, got 'a'"),
    ("psi-invariants", "checks.roundtrip.threshold", "tiny", "checks.roundtrip.threshold",
     "got 'tiny'"),
    ("cylinder-inversion-transfer", "transfer.thresholds.sff_dictionary", "tiny",
     "transfer.thresholds.sff_dictionary", "got 'tiny'"),
    ("cylinder-nullity", "ruled", [1], "ruled", "got list"),
    ("cylinder-nullity", "rigidity_q", 1.5, "rigidity_q", "expected a non-negative integer"),
])
def test_single_analysis_values_of_the_wrong_type_are_manifest_errors(name, key, value, path,
                                                                      message):
    # each once died as a bare ValueError or AttributeError of int(), float() or .get
    with pytest.raises(ManifestError) as err:
        run_manifest(_gallery_doc(name, **{key: value}))
    assert err.value.path == path
    assert message in str(err.value)


def test_run_keys_in_range_are_recorded():
    report, code = run_manifest(_gallery_doc("cylinder-nullity", seed=7, tolerance=1e-3,
                                             fd_tolerance=1e-3))
    assert code == 0
    assert {key: report["provenance"][key] for key in ("seed", "tolerance", "fd_tolerance")} == {
        "seed": 7, "tolerance": 1e-3, "fd_tolerance": 1e-3}


@pytest.mark.parametrize("branch", [-1, 1.5, "a", True])
def test_generator_branch_must_be_a_non_negative_int(branch):
    with pytest.raises(ManifestError) as err:
        run_manifest(_gallery_doc("degenerate-extension", **{"generator.branch": branch}))
    assert err.value.path == "generator.branch"
    assert f"expected a non-negative integer, got {branch!r}" in str(err.value)


@pytest.mark.parametrize("spec, path, message", [
    ({"expr": "x1", "chart_dim": 2}, "immersion.expr", "expected a nonempty list, got 'x1'"),
    ({"expr": [1, 2], "chart_dim": 2}, "immersion.expr", "expected a nonempty string, got 1"),
    ({"expr": ["x1", "x2", "0"], "chart_dim": 2, "ambient": "zz"}, "immersion.ambient",
     "expected an object, got 'zz'"),
    ({"expr": ["x1", "x2", "0"], "chart_dim": True}, "immersion.chart_dim",
     "expected a positive integer, got True"),
    ({"builtin": "plane", "params": {"p": 1.5}}, "immersion.params.p", "expected an integer, got 1.5"),
])
def test_immersion_specs_of_the_wrong_type_are_manifest_errors(spec, path, message):
    # once "x1" was read character by character, [1, 2] died in a TypeError,
    # "zz" in an AttributeError, true was taken for a chart dimension and
    # p = 1.5 reached numpy
    with pytest.raises(ManifestError) as err:
        run_manifest({"analysis": "single", "immersion": spec,
                      "grid": {"shape": [5, 5], "spacing": [0.04, 0.04], "origin": [0.1, -0.1]}})
    assert err.value.path == path
    assert message in str(err.value)


def _cylinder_nullity_with(**changes):
    return {**MANIFESTS["cylinder-nullity"], **changes}


@pytest.mark.parametrize("doc, message", [
    ([_cylinder_nullity_with()], "manifest: expected an object, got list"),
    (_cylinder_nullity_with(output=1), "output: expected a nonempty string, got 1"),
    (_cylinder_nullity_with(output=7), "output: expected a nonempty string, got 7"),
    (_cylinder_nullity_with(output=["report.json"]), "output: expected a nonempty string, got list"),
])
def test_main_refuses_a_manifest_that_is_no_object_or_whose_output_is_no_path(
        tmp_path, monkeypatch, capsys, doc, message):
    # a list once died in an AttributeError; output 1 wrote the report to
    # stdout and closed it, 7 was a bad file descriptor and a list a TypeError
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps(doc))
    assert main(["analyze", "m.json"]) == 1
    assert capsys.readouterr() == ("", f"manifest error: {message}\n")
    assert [path.name for path in tmp_path.iterdir()] == ["m.json"]

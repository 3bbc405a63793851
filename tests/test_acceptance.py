"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import numpy as np

from confpair.conformal_calc import conformal_s_nullity, s_nullity_at
from confpair.extension import extension_obstruction
from confpair.gallery import GALLERY, MANIFESTS, build_immersion, default_chart
from confpair.indefinite_linalg import DEFAULT_TOL, rank, signature
from confpair.jets import PipelineConfig, fundamental_data, induced_metric
from confpair.lightcone import (
    LightConeModel,
    cone_projection,
    isometric_representative,
    position_identities,
    sff_transfer_check,
)
from confpair.pair_pipeline import TransferData, analyze_pair, verify_compatibility

from oracles import null_space, rational_intersection_dim, rational_rank, rational_signature, span

SEED = 20260811
CFG = PipelineConfig()


def _line(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


# -- 1: light-cone identities -------------------------------------------------


def test_criterion_1_lightcone_identities():
    rng = np.random.default_rng(SEED)
    model = LightConeModel(5)
    amb = model.ambient
    xs = rng.normal(size=(1000, 5))
    ys = rng.normal(size=(1000, 5))
    vs = rng.normal(size=(1000, 5))
    ws = rng.normal(size=(1000, 5))
    px, py = model.embed(xs), model.embed(ys)
    res = max(
        float(np.max(np.abs(amb.norm_sq(px)))),
        float(np.max(np.abs(amb.inner(px, np.broadcast_to(model.e0, px.shape)) - 1.0))),
        float(np.max(np.abs(
            amb.inner(model.embed_differential(xs, vs), model.embed_differential(xs, ws))
            - np.sum(vs * ws, axis=1)))),
        float(np.max(np.abs(amb.inner(px, py) + 0.5 * np.sum((xs - ys) ** 2, axis=1)))),
    )
    _line("criterion 1: light-cone identities on 1000 samples", res <= 1e-12,
          f"max residual {res:.2e} <= 1e-12")


# -- 2: round trips over the gallery -----------------------------------------


EUCLIDEAN_ENTRIES = ["plane", "sphere", "cylinder", "cone-over-sphere", "torus", "graph",
                     "adapted-cylinder"]


def test_criterion_2_roundtrips():
    worst_rt, worst_metric = 0.0, 0.0
    for name in EUCLIDEAN_ENTRIES:
        imap = GALLERY[name]()
        chart = default_chart(imap)
        jet = imap.jet(chart)
        base = induced_metric(jet)
        lift, _ = isometric_representative(jet, base, cfg=CFG)
        back = cone_projection(lift)
        worst_rt = max(worst_rt, float(np.max(np.abs(back.values - jet.values))))
        worst_metric = max(worst_metric, float(np.max(np.abs(induced_metric(lift) - base))))
    # a genuinely conformal representative: inversion of the cylinder against
    # the cylinder metric, with its closed-form factor
    conf = build_immersion({
        "builtin": "inversion",
        "params": {"of": {"builtin": "cylinder", "params": {"n": 2}},
                    "center": [0.0, 0.0, 2.0]},
    })
    base_map = GALLERY["cylinder"](n=2)
    chart = default_chart(base_map)
    jet = conf.jet(chart)
    base = induced_metric(base_map.jet(chart))
    lift, _ = isometric_representative(jet, base, factor=conf.factor_jets(chart.points()), cfg=CFG)
    back = cone_projection(lift)
    worst_rt = max(worst_rt, float(np.max(np.abs(back.values - jet.values))))
    worst_metric = max(worst_metric, float(np.max(np.abs(induced_metric(lift) - base))))
    # cone-valued direction: project a lift and re-lift it
    lifted_map = build_immersion({"builtin": "psi-lift",
                                   "params": {"of": {"builtin": "torus", "params": {}}}})
    jet = lifted_map.jet(default_chart(GALLERY["torus"]()))
    back = cone_projection(jet)
    again, _ = isometric_representative(back, induced_metric(jet), cfg=CFG)
    worst_rt = max(worst_rt, float(np.max(np.abs(again.values - jet.values))))
    ok = worst_rt <= 1e-10 and worst_metric <= 1e-8
    _line("criterion 2: gallery round trips", ok,
          f"projection {worst_rt:.2e} <= 1e-10, lift metric {worst_metric:.2e} <= 1e-8")


# -- 3: cone position identities on all gallery lifts -------------------------


def test_criterion_3_position_identities():
    worst = 0.0
    for name in ["plane", "sphere", "cylinder", "cone-over-sphere", "torus", "graph"]:
        base = GALLERY[name]()
        lifted = GALLERY["psi-lift"](base)
        chart = default_chart(base)
        jet = lifted.jet(chart)
        res = position_identities(fundamental_data(jet, CFG))
        worst = max(worst, res["shape_of_position_plus_identity"], res["shape_of_field"])
    _line("criterion 3: position shape-operator identities on lifts", worst <= 1e-8,
          f"max residual {worst:.2e} <= 1e-8")


# -- 4: curvature dictionary on the cylinder with inversion -------------------


def test_criterion_4_sff_dictionary():
    base_map = GALLERY["cylinder"](n=2)
    chart = default_chart(base_map)
    conf = GALLERY["inversion"](GALLERY["cylinder"](n=2), center=[0.0, 0.0, 2.0])
    base_jet = base_map.jet(chart)
    conf_jet = conf.jet(chart)
    closed = sff_transfer_check(fundamental_data(conf_jet, CFG), base_jet, [1],
                                factor=conf.factor_jets(chart.points()), cfg=CFG)
    fd = sff_transfer_check(fundamental_data(conf_jet, CFG), base_jet, [1], cfg=CFG)
    ok = (
        closed.residuals["sff_dictionary"] <= 1e-7
        and fd.residuals["sff_dictionary"] <= 1e-5
        and closed.residuals["hess_proportionality"] <= 1e-6
    )
    _line(
        "criterion 4: curvature dictionary both sides", ok,
        f"closed-form {closed.residuals['sff_dictionary']:.2e} <= 1e-7, "
        f"stencil {fd.residuals['sff_dictionary']:.2e} <= 1e-5, "
        f"ruling factor spread {closed.residuals['hess_proportionality']:.2e} <= 1e-6",
    )


# -- 5: nullity oracles --------------------------------------------------------


def test_criterion_5_nullity_oracles():
    sphere = GALLERY["sphere"](n=3, radius=2.0)
    cylinder = GALLERY["cylinder"](n=3)
    graph = GALLERY["graph"](n=3)
    values = {}
    for tag, imap, expect in (("sphere", sphere, 3), ("cylinder", cylinder, 2),
                              ("graph", graph, 1)):
        fund = fundamental_data(imap.jet(default_chart(imap)), CFG)
        reports = conformal_s_nullity(fund, 1, points=[fund.jet.chart.center_index()],
                                      cfg=PipelineConfig(seed=SEED))
        values[tag] = (reports[0][1].value, expect)
    exact_ok = all(v == e for v, e in values.values())

    rng = np.random.default_rng(SEED)
    n, p = 5, 2
    exceeded = 0
    matched = 0
    for trial in range(1000):
        a1 = np.diag(rng.integers(-2, 3, size=n).astype(float))
        a2 = np.diag(rng.integers(-2, 3, size=n).astype(float))
        alpha = np.stack([a1, a2], axis=-1)
        pairs = list(zip(np.diag(a1), np.diag(a2)))
        brute = 0
        for z1 in range(-2, 3):
            for z2 in range(-2, 3):
                brute = max(brute, sum(1 for pr in pairs if pr == (float(z1), float(z2))))
        rep = s_nullity_at(alpha, 2, seed=SEED + trial, restarts=2, samples=8)
        if rep.value > brute:
            exceeded += 1
        if rep.value == brute:
            matched += 1
    ok = exact_ok and exceeded == 0
    _line(
        "criterion 5: nullity oracles", ok,
        f"exact values {values}, search exceeded brute force {exceeded}/1000 times "
        f"(matched {matched})",
    )
    assert matched >= 990  # the candidate sweep should recover the planted optimum


# -- 6: congruent pair ---------------------------------------------------------


def test_criterion_6_congruent_pair(gallery_reports):
    entry = gallery_reports["congruent-pair"]
    rep = entry["report"]
    region = rep["results"]["regions"][0]
    compat = region["compatibility"]
    ok = (
        entry["code"] == 0
        and region["branch"] == "nondegenerate"
        and region["ranks"]["transfer_bundle"] == 1  # the whole normal bundle, p = 1
        and region["ranks"]["rulings"] == 3
        and compat["transfer_preserves_sff"] <= 1e-8
        and compat["transfer_parallel"] <= 1e-8
        and compat["bundle_parallel_along_rulings"] <= 1e-8
    )
    _line(
        "criterion 6: congruent pair", ok,
        f"branch {region['branch']}, transfer rank {region['ranks']['transfer_bundle']}, "
        f"rulings {region['ranks']['rulings']}, compat residuals "
        f"{max(compat['transfer_preserves_sff'], compat['transfer_parallel'], compat['bundle_parallel_along_rulings']):.2e} <= 1e-8",
    )


# -- 7: degenerate branch on the generated pair --------------------------------


def test_criterion_7_degenerate_generated_pair(gallery_reports):
    entry = gallery_reports["degenerate-pair"]
    rep = entry["report"]
    region = rep["results"]["regions"][0]
    claims = region["claims"]
    witness_ok = abs(rep["results"]["degeneracy"]["witness_pairing_min"] - 1.0) <= 1e-9
    gap_res = claims["gap_vanishes_on_private_nullity"]["residual"]
    th0_res = claims["cone_position_sff_identity"]["residual"]
    claim_flags = {k: v["passed"] for k, v in claims.items()}
    ok = (
        entry["code"] == 0
        and region["branch"] == "degenerate"
        and witness_ok
        and all(claim_flags.values())
        and gap_res <= 1e-6
        and th0_res <= 1e-6
        and region["ranks"]["rulings"] > 0
    )
    _line(
        "criterion 7: degenerate branch on the generated pair", ok,
        f"witness pairing 1 ({witness_ok}), claims {claim_flags}, "
        f"gap-on-nullity {gap_res:.2e} <= 1e-6, position pairing {th0_res:.2e} <= 1e-6",
    )


# -- 8: dimension bounds over the analyzed gallery pairs ------------------------


def test_criterion_8_dimension_bounds(gallery_reports):
    rows = []
    ok = True
    for name in ("congruent-pair", "flat-pair", "degenerate-pair"):
        rep = gallery_reports[name]["report"]
        for i, region in enumerate(rep["results"]["regions"]):
            bound = region["dimension_bound"]
            if bound.get("hypotheses_ok"):
                rows.append((name, i, bound["name"], bound["slack"]))
                ok = ok and bound["passed"] and bound["slack"] >= 0
            elif bound.get("passed") is False:
                ok = False
                rows.append((name, i, "error", None))
    _line("criterion 8: ruling dimension bounds", ok and len(rows) >= 3,
          f"checked {rows}")


# -- 9: extension correctness ----------------------------------------------------


def test_criterion_9_extension(gallery_reports):
    entry = gallery_reports["flat-extension"]
    ver = entry["report"]["results"]["verification"]
    obs_res = entry["report"]["results"]["obstruction_residuals"]
    base_ok = (
        entry["code"] == 0
        and ver["zero_section_exact"]
        and ver["fiber_straightness"] <= 1e-12
        and ver["metric_agreement"] <= 1e-6
        and ver["kernel_identity_gap"] <= 1e-6
        and obs_res["rulings_inside_kernel"] <= 1e-6
    )

    # negative control 1: a corrupted kernel direction must blow up the
    # containment residual by at least a thousand threshold multiples
    doc = MANIFESTS["flat-extension"]
    left = build_immersion(doc["left"])
    right = build_immersion(doc["right"])
    from confpair.cli import _build_grid

    grid = _build_grid(doc["grid"])
    jf, jg = left.jet(grid), right.jet(grid)
    fl, fr = fundamental_data(jf, CFG), fundamental_data(jg, CFG)
    direction = np.asarray(doc["transfer"]["shared_flat_normal"], dtype=float)
    p = fl.metric.shape[0]
    lf = fl.normal_coordinates(np.broadcast_to(direction, (p, jf.m)))[:, :, None]
    lh = fr.normal_coordinates(np.broadcast_to(direction, (p, jf.m)))[:, :, None]
    rul = np.zeros((p, 3, 3))
    for col, ax in enumerate((1, 2, 0)):  # adjoin the curved direction
        rul[:, :, col] = fl.tangent_frame_inv[:, :, ax]
    for q in range(p):
        rul[q] = np.linalg.qr(rul[q])[0]
    data = TransferData.from_frames(fl, fr, lf, lh, (1,), rul)
    obs_bad = extension_obstruction(data, CFG)
    control1 = obs_bad.residuals["rulings_inside_kernel"] >= 1e3 * 1e-6

    # negative control 2: a corrupted transfer isometry must blow up the
    # form-preservation residual
    sphere = GALLERY["sphere"](n=2, radius=2.0)
    moved = GALLERY["congruence"](GALLERY["sphere"](n=2, radius=2.0), seed=5,
                                  shift=[0.3, -1.0, 2.0])
    chart = default_chart(sphere)
    analysis = analyze_pair(sphere.jet(chart), moved.jet(chart), CFG)
    st = analysis.regions[0]
    clean = verify_compatibility(st)["transfer_preserves_sff"]
    st.identification = -st.identification
    corrupted = verify_compatibility(st)["transfer_preserves_sff"]
    control2 = corrupted >= 1e3 * max(clean, 1e-8)

    ok = base_ok and control1 and control2
    _line(
        "criterion 9: ruled extension", ok,
        f"zero section bitwise {ver['zero_section_exact']}, fibers {ver['fiber_straightness']:.2e} <= 1e-12, "
        f"metrics {ver['metric_agreement']:.2e} <= 1e-6, kernel identity {ver['kernel_identity_gap']:.2e} <= 1e-6, "
        f"negative controls x{obs_bad.residuals['rulings_inside_kernel'] / 1e-6:.0f} and x{corrupted / max(clean, 1e-8):.0f}",
    )


# -- 10: exact rational oracle agreement -----------------------------------------


def test_criterion_10_rational_oracle():
    # every rank and span decision at both floors the pipeline uses (pure
    # relative, and floored at one), against one exact result per instance
    rng = np.random.default_rng(SEED)
    tol = DEFAULT_TOL
    floors = (0.0, 1.0)
    mismatches = 0
    checked = 0
    for trial in range(450):
        m = int(rng.integers(3, 13))
        r = int(rng.integers(1, min(m, 6)))
        left = rng.integers(-3, 4, size=(2 * m, r))
        right = rng.integers(-3, 4, size=(r, m))
        vals = (left @ right).astype(float)
        expected = rational_rank(vals)
        checked += 1
        for floor in floors:
            if (span(vals.T, tol, floor).shape[1] != expected
                    or rank(vals.T, tol, floor) != expected):
                mismatches += 1
    for trial in range(330):
        m = int(rng.integers(2, 13))
        idx = int(rng.integers(0, m + 1))
        eps = np.array([-1.0] * idx + [1.0] * (m - idx))
        k = int(rng.integers(1, min(m, 6) + 1))
        basis = rng.integers(-3, 4, size=(m, k)).astype(float)
        if rational_rank(basis.T) != k:
            continue
        expected = rational_signature((basis.T @ np.diag(eps) @ basis).astype(int))
        checked += 1
        for floor in floors:
            sub = span(basis, tol, floor)
            if signature(sub.T @ (sub * eps[:, None]), tol) != expected:
                mismatches += 1
    for trial in range(300):
        m = int(rng.integers(4, 13))
        c = int(rng.integers(1, 3))
        common = rng.integers(-3, 4, size=(m, c))
        bu = np.hstack([common, rng.integers(-3, 4, size=(m, 1))]).astype(float)
        bv = np.hstack([common, rng.integers(-3, 4, size=(m, 1))]).astype(float)
        expected = rational_intersection_dim(bu, bv)
        checked += 1
        for floor in floors:
            # intersection: kernel of the stacked dot-annihilators
            ann_u = null_space(span(bu, tol, floor).T, tol, floor)
            ann_v = null_space(span(bv, tol, floor).T, tol, floor)
            if null_space(np.vstack([ann_u.T, ann_v.T]), tol, floor).shape[1] != expected:
                mismatches += 1
    _line("criterion 10: rational oracle agreement", mismatches == 0 and checked >= 1000,
          f"{checked} instances at floors {floors}, {mismatches} mismatches")


# -- 11: determinism ---------------------------------------------------------------


def test_criterion_11_determinism(gallery_reports):
    diffs = [name for name, entry in gallery_reports.items()
             if entry["blob"] != entry["blob2"] or entry["code"] != entry["code2"]]
    _line("criterion 11: byte-identical repeated reports", not diffs,
          f"{len(gallery_reports)} manifests, mismatches: {diffs or 'none'}")


def test_all_gallery_manifests_pass(gallery_reports):
    failing = {name: entry["code"] for name, entry in gallery_reports.items()
               if entry["code"] != 0}
    _line("gallery manifests all green", not failing, str(failing or "10/10"))

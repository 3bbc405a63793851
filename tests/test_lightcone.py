import numpy as np
import pytest

from confpair import gallery, jet3
from confpair.errors import OnExceptionalRay
from confpair.indefinite_linalg import ScalarProduct
from confpair.jets import (
    ChartGrid,
    ImmersionJet,
    PipelineConfig,
    conformal_factor_of_metrics,
    fundamental_data,
    induced_metric,
)
from confpair.lightcone import (
    LightConeModel,
    cone_projection,
    isometric_representative,
    position_identities,
    scalar_jet,
    sff_transfer_check,
)

RNG = np.random.default_rng(7)
E3 = ScalarProduct.euclidean(3)
CFG = PipelineConfig()


def cylinder_fn(xs):
    x1, x2 = xs
    return [jet3.cos(x1), jet3.sin(x1), x2]


def cylinder_jet(n_pts=9, h=0.02):
    grid = ChartGrid((n_pts, n_pts), (h, h), (0.1, -0.5 * h * (n_pts - 1)))
    return ImmersionJet.from_function(cylinder_fn, grid, E3)


def inversion_of_cylinder(center, radius=1.0):
    c = np.asarray(center, dtype=float)

    def fn(xs):
        comps = cylinder_fn(xs)
        diff = [comp - float(ci) for comp, ci in zip(comps, c)]
        r2 = jet3.norm2(*diff)
        return [d * (radius**2) / r2 + float(ci) for d, ci in zip(diff, c)]

    return fn


def inversion_factor(center, radius=1.0):
    c = np.asarray(center, dtype=float)

    def fn(xs):
        comps = cylinder_fn(xs)
        diff = [comp - float(ci) for comp, ci in zip(comps, c)]
        return (radius**2) / jet3.norm2(*diff)

    return fn


def test_embed_basics_and_identities():
    model = LightConeModel(4)
    x0 = np.zeros(4)
    e1 = np.eye(model.dim)[1]
    assert np.allclose(model.embed(x0), e1)
    e_first = np.eye(4)[0]
    expect = -0.5 * model.e0 + e1
    expect[2] = 1.0
    assert np.allclose(model.embed(e_first), expect)
    amb = model.ambient
    xs = RNG.normal(size=(200, 4))
    ys = RNG.normal(size=(200, 4))
    vs = RNG.normal(size=(200, 4))
    ws = RNG.normal(size=(200, 4))
    px, py = model.embed(xs), model.embed(ys)
    assert np.max(np.abs(amb.norm_sq(px))) < 1e-12
    assert np.max(np.abs(amb.inner(px, np.broadcast_to(model.e0, px.shape)) - 1)) < 1e-12
    dv = model.embed_differential(xs, vs)
    dw = model.embed_differential(xs, ws)
    assert np.max(np.abs(amb.inner(dv, dw) - np.sum(vs * ws, axis=1))) < 1e-12
    cross = amb.inner(px, py) + 0.5 * np.sum((xs - ys) ** 2, axis=1)
    assert np.max(np.abs(cross)) < 1e-12


def test_lift_jet_is_isometric_and_on_cone():
    jet = cylinder_jet()
    model = LightConeModel(3)
    lifted = model.lift_jet(jet)
    assert np.max(np.abs(lifted.ambient.norm_sq(lifted.values))) < 1e-14
    g_before = induced_metric(jet)
    g_after = induced_metric(lifted)
    assert np.max(np.abs(g_before - g_after)) < 1e-13


LIFTED_MAPS = {
    "torus": gallery.torus(),
    "sphere3": gallery.sphere(3),
    "inversion(cylinder)": gallery.inversion(gallery.cylinder(2), center=[0.0, 0.0, 2.0]),
}


@pytest.mark.parametrize("name", sorted(LIFTED_MAPS))
def test_lift_jet_of_a_sampled_jet_is_the_psi_lift_jet_bit_for_bit(name):
    # one cone-chart formula: lifting the sampled jet runs the same Jet3
    # arithmetic as evaluating psi-lift of the closed form
    imap = LIFTED_MAPS[name]
    chart = gallery.default_chart(imap)
    lifted = LightConeModel(imap.ambient.dim).lift_jet(imap.jet(chart))
    want = gallery.psi_lift(imap).jet(chart)
    assert lifted.ambient == want.ambient and lifted.source == want.source
    for part in ("values", "d1", "d2"):
        assert getattr(lifted, part).tobytes() == getattr(want, part).tobytes(), part


def test_isometric_representative_with_trivial_factor():
    jet = cylinder_jet()
    base = induced_metric(jet)
    lift, factor = isometric_representative(jet, base, cfg=CFG)
    assert np.max(np.abs(factor.v - 1.0)) < 1e-12
    assert np.max(np.abs(induced_metric(lift) - base)) < 1e-10
    pair_e0 = lift.values @ lift.ambient.gram @ LightConeModel(3).e0
    assert np.max(np.abs(pair_e0 - 1.0 / factor.v)) < 1e-12


def test_isometric_representative_nontrivial_factor_and_roundtrip():
    jet = cylinder_jet(n_pts=11)
    base = induced_metric(jet)  # cylinder chart metric is the flat one
    conf = ImmersionJet.from_function(inversion_of_cylinder([0.0, 0.0, 3.0]), jet.chart, E3)
    lift, factor = isometric_representative(conf, base, cfg=CFG)
    assert np.max(np.abs(induced_metric(lift) - base)) < 1e-8
    back = cone_projection(lift)
    assert np.max(np.abs(back.values - conf.values)) < 1e-12
    assert np.max(np.abs(back.d1 - conf.d1)) < 1e-10
    assert np.max(np.abs(back.d2 - conf.d2)) < 1e-9
    # conformality of the lift vs its projection, factor <g, e0>^{-1}
    phi2, _ = conformal_factor_of_metrics(induced_metric(lift), induced_metric(back), 1e-6)
    pair_e0 = lift.values @ lift.ambient.gram @ LightConeModel(3).e0
    assert np.max(np.abs(phi2 - 1.0 / pair_e0)) < 1e-8


def test_closed_form_factor_matches_fd_factor():
    jet = cylinder_jet(n_pts=11)
    base = induced_metric(jet)
    conf = ImmersionJet.from_function(inversion_of_cylinder([0.0, 0.0, 3.0]), jet.chart, E3)
    import confpair.jet3 as j3

    xs = j3.variables(jet.chart.points())
    exact = inversion_factor([0.0, 0.0, 3.0])(xs)
    _, fd_factor = isometric_representative(conf, base, cfg=CFG)
    assert np.max(np.abs(fd_factor.v - exact.v)) < 1e-12
    assert np.max(np.abs(fd_factor.g - exact.g)) < 1e-7
    assert np.max(np.abs(fd_factor.h - exact.h)) < 1e-5


def test_cone_projection_of_plain_lift_and_scaling():
    jet = cylinder_jet()
    model = LightConeModel(3)
    lifted = model.lift_jet(jet)
    back = cone_projection(lifted)
    assert np.max(np.abs(back.values - jet.values)) < 1e-14
    s = scalar_jet(np.full(jet.chart.npoints, 2.5), jet.chart)
    scaled = ImmersionJet.from_components([s * c for c in lifted.components()], jet.chart,
                                          lifted.ambient, "assembled")
    back2 = cone_projection(scaled)
    assert np.max(np.abs(back2.values - jet.values)) < 1e-12


def test_cone_projection_rejects_ray_points():
    jet = cylinder_jet()
    model = LightConeModel(3)
    lifted = model.lift_jet(jet)
    bad = ImmersionJet(
        jet.chart, lifted.ambient, lifted.values - np.array([0, 1, 0, 0, 0.0]),
        lifted.d1, lifted.d2,
    )
    with pytest.raises(OnExceptionalRay):
        cone_projection(bad)


def test_position_identities_on_lift():
    jet = cylinder_jet()
    lifted = LightConeModel(3).lift_jet(jet)
    res = position_identities(fundamental_data(lifted, CFG))
    assert res["on_cone"] < 1e-12
    assert res["position_is_normal"] < 1e-12
    assert res["field_is_normal"] < 1e-12
    assert res["shape_of_position_plus_identity"] < 1e-10
    assert res["shape_of_field"] < 1e-10


def test_position_identities_on_sphere_lift():
    grid = ChartGrid((9, 9), (0.03, 0.03), (0.9, 0.4))

    def sphere(xs):
        th, ph = xs
        return [jet3.cos(th), jet3.sin(th) * jet3.cos(ph), jet3.sin(th) * jet3.sin(ph)]

    jet = ImmersionJet.from_function(sphere, grid, E3)
    lift, _ = isometric_representative(jet, induced_metric(jet), cfg=CFG)
    res = position_identities(fundamental_data(lift, CFG))
    assert res["shape_of_position_plus_identity"] < 1e-8
    assert res["shape_of_field"] < 1e-8


def test_sff_transfer_cylinder_with_inversion_closed_form_factor():
    jet = cylinder_jet(n_pts=11)
    conf = ImmersionJet.from_function(inversion_of_cylinder([0.0, 0.0, 3.0]), jet.chart, E3)
    xs = jet3.variables(jet.chart.points())
    factor = inversion_factor([0.0, 0.0, 3.0])(xs)
    data = sff_transfer_check(fundamental_data(conf, CFG), jet, [1], factor=factor, cfg=CFG)
    assert data.residuals["sff_dictionary"] < 1e-7
    assert data.residuals["corrected_sff_dictionary"] < 1e-7
    assert data.residuals["hess_proportionality"] < 1e-6
    assert data.residuals["mean_curvature_dictionary"] < 1e-6


def test_sff_transfer_with_fd_factor():
    jet = cylinder_jet(n_pts=11)
    conf = ImmersionJet.from_function(inversion_of_cylinder([0.0, 0.0, 3.0]), jet.chart, E3)
    data = sff_transfer_check(fundamental_data(conf, CFG), jet, [1], cfg=CFG)
    assert data.residuals["sff_dictionary"] < 1e-5
    assert data.residuals["corrected_sff_dictionary"] < 1e-5


def test_sff_transfer_isometric_case_reduces():
    jet = cylinder_jet(n_pts=9)
    data = sff_transfer_check(fundamental_data(jet, CFG), jet, [1], cfg=CFG)
    # factor == 1: xi = e0 and the dictionary collapses to the lift formula
    assert np.max(np.abs(data.phi - 1.0)) < 1e-12
    assert data.residuals["sff_dictionary"] < 1e-8
    assert np.max(np.abs(data.xi - LightConeModel(3).e0[None, :])) < 1e-9


def test_position_identities_surface_off_cone_violation():
    jet = cylinder_jet()
    lifted = LightConeModel(3).lift_jet(jet)
    off = ImmersionJet(
        jet.chart, lifted.ambient, lifted.values + np.array([0.0, 0.3, 0, 0, 0]),
        lifted.d1, lifted.d2,
    )
    res = position_identities(fundamental_data(off, CFG))
    assert res["on_cone"] > 0.1  # precondition violation is surfaced, not hidden

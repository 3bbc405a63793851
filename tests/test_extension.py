import numpy as np
import pytest

from confpair import extension, jet3
from confpair.errors import FrameAlignmentFailure, NoIntersection, NotTransversal
from confpair.gallery import MANIFESTS, build_immersion
from confpair.indefinite_linalg import ScalarProduct, by_class, gap_stack, rank_classes, span_stack
from confpair.jets import (
    ChartGrid,
    ImmersionJet,
    ImmersionMap,
    PipelineConfig,
    fundamental_data,
    grid_derivative,
    induced_metric,
)
from confpair.extension import (
    _brackets,
    _extended_jet,
    _norm_sq_jet,
    extension_obstruction,
    generate_conformal_pair,
    ruled_extension,
    transversality_check,
    verify_extension,
)
from confpair.lightcone import LightConeModel, cone_projection
from confpair.pair_pipeline import TransferData, analyze_pair

E5 = ScalarProduct.euclidean(5)
CFG = PipelineConfig()


# -- the flat pair with a shared flat normal direction ----------------------


def flat_pair_with_shared_normal(n_pts=7, h=0.03):
    grid = ChartGrid((n_pts, n_pts, 5), (h, h, h), (0.1, -0.09, -0.06))

    def plane(xs):
        x1, x2, x3 = xs
        z = jet3.constant(0.0, x1)
        return [x1, x2, x3, z, z]

    def cyl(xs):
        x1, x2, x3 = xs
        return [jet3.cos(x1), jet3.sin(x1), x2, x3, jet3.constant(0.0, x1)]

    jf = ImmersionJet.from_function(plane, grid, E5)
    jg = ImmersionJet.from_function(cyl, grid, E5)
    return jf, jg


def shared_normal_transfer(jf, jg):
    """Hand-built transfer data: the last coordinate direction on both sides."""
    fl = fundamental_data(jf, CFG)
    fr = fundamental_data(jg, CFG)
    p = fl.metric.shape[0]
    e_last = np.zeros(5)
    e_last[4] = 1.0
    lf = fl.normal_coordinates(np.broadcast_to(e_last, (p, 5)))[:, :, None]
    lh = fr.normal_coordinates(np.broadcast_to(e_last, (p, 5)))[:, :, None]
    # rulings: the common straight directions, axes 1 and 2, in frame coords
    rul = np.zeros((p, 3, 2))
    for col, ax in enumerate((1, 2)):
        rul[:, :, col] = fl.tangent_frame_inv[:, :, ax]
    for q in range(p):
        rul[q] = np.linalg.qr(rul[q])[0]
    return TransferData.from_frames(fl, fr, lf, lh, (1,), rul)


def test_obstruction_kernel_flat_pair():
    jf, jg = flat_pair_with_shared_normal()
    data = shared_normal_transfer(jf, jg)
    obs = extension_obstruction(data, CFG)
    assert obs.s == 3  # two rulings plus the shared flat normal direction
    assert obs.r == 1
    assert obs.residuals["rulings_inside_kernel"] < 1e-8
    assert obs.residuals["kernel_meets_tangent_in_rulings"] < 1e-8


def test_flat_extension_and_verification():
    jf, jg = flat_pair_with_shared_normal()
    data = shared_normal_transfer(jf, jg)
    obs = extension_obstruction(data, CFG)
    pair = ruled_extension(obs)
    assert pair.left.chart.ndim == 4
    report = verify_extension(pair, CFG)
    assert report["zero_section_exact"]
    assert report["fiber_straightness"] < 1e-12
    assert report["metric_agreement"] < 1e-6
    assert report["kernel_identity_gap"] < 1e-6
    assert report["ruled_leaves"] < 1e-6
    assert report["tube_bundle_rank"] == 0  # ell - r = 0
    assert report["tube_compatibility"]["transfer_preserves_sff"] < 1e-8


def test_extension_without_fibres_or_transfer_bundle():
    # flat-pair: one region with transfer bundle 0 and fibre rank 0, so the
    # extension is the base itself, its tube bundle is empty, and every
    # product of the check is a zero-width stack
    doc = MANIFESTS["flat-pair"]
    from confpair.cli import _build_grid

    grid = _build_grid(doc["grid"])
    jf, jg = (build_immersion(doc[side]).jet(grid) for side in ("left", "right"))
    (region,) = analyze_pair(jf, jg, CFG).regions
    obs = extension_obstruction(region, CFG)
    assert (region.ell, obs.r) == (0, 0)
    pair = ruled_extension(obs)
    assert pair.left.chart.shape == grid.shape
    report = verify_extension(pair, CFG)
    assert report["zero_section_exact"] is True
    assert report["fiber_straightness"] == 0.0
    assert report["tube_bundle_rank"] == report["tube_bundle_rank_expected"] == 0
    assert report["tube_bundle_rank_constant"] is True
    compat = report["tube_compatibility"]
    for key in ("transfer_isometry", "transfer_preserves_sff", "transfer_parallel",
                "bundle_parallel_along_rulings"):
        assert compat[key] == 0.0
    assert report["kernel_identity_gap"] < 1e-12


def test_corrupted_kernel_negative_control():
    jf, jg = flat_pair_with_shared_normal()
    data = shared_normal_transfer(jf, jg)
    obs = extension_obstruction(data, CFG)
    pair = ruled_extension(obs)
    clean = verify_extension(pair, CFG)["kernel_identity_gap"]
    # adjoin the curved coordinate direction to the rulings
    p, n, d = data.rulings.shape
    bad = np.zeros((p, n, d + 1))
    bad[:, :, :d] = data.rulings
    bad[:, :, d] = data.left.tangent_frame_inv[:, :, 0]
    for q in range(p):
        bad[q] = np.linalg.qr(bad[q])[0]
    data.rulings = bad
    obs_bad = extension_obstruction(data, CFG)
    # the corrupted directions are not inside the kernel
    assert obs_bad.residuals["rulings_inside_kernel"] > 1e3 * max(clean, 1e-9)


def test_degenerate_cone_extension():
    grid = ChartGrid((7, 5, 5), (0.02, 0.02, 0.02), (0.3, -0.04, -0.04))

    def cyl(xs):
        x1, x2, x3 = xs
        return [jet3.cos(x1), jet3.sin(x1), x2, x3]

    jf = ImmersionJet.from_function(cyl, grid, ScalarProduct.euclidean(4))

    def reflected(xs):
        x1, x2, x3 = xs
        return [-x1, x2, x3]

    from confpair.lightcone import isometric_representative

    jbar = ImmersionJet.from_function(reflected, grid, ScalarProduct.euclidean(3))
    jhat, _ = isometric_representative(jbar, induced_metric(jf), cfg=CFG)
    analysis = analyze_pair(jf, jhat, CFG)
    st = analysis.regions[0]
    assert st.branch == "degenerate"
    obs = extension_obstruction(st, CFG)
    assert obs.s == st.ruling_dim + obs.r
    assert obs.r == 2
    assert 2 <= obs.r <= st.ell
    # the cone position direction lies inside the kernel
    pos_in_l = np.einsum(
        "u,pku,pk->pu",
        np.asarray(st.transfer_pattern, float),
        st.transfer_bundle * st.left.normal_eps[None, :, None],
        st.left.normal_coordinates(st.left.jet.values),
    )
    vec = np.concatenate([np.zeros((len(pos_in_l), 3)), pos_in_l], axis=1)
    res = 0.0
    for q in st.points:
        dq = obs.delta[q]
        proj = dq @ np.linalg.pinv(dq)
        res = max(res, float(np.linalg.norm(vec[q] - proj @ vec[q])))
    assert res < 1e-6

    pair = ruled_extension(obs)
    report = verify_extension(pair, CFG)
    assert report["zero_section_exact"]
    assert report["metric_agreement"] < 1e-6
    assert report["equal_norms"] < 1e-8  # both cone extensions share squared norms
    # Lorentzian extensions: the tube metric gains exactly one negative direction
    tube_metric = induced_metric(pair.left)
    eigs = np.linalg.eigvalsh(tube_metric)
    assert np.all(eigs[:, 0] < 0) and np.all(eigs[:, 1:] > 0)


# -- the tube-bundle branch: a transfer bundle wider than the fibres ----------

TUBE_GRID = ChartGrid((9, 9), (0.03, 0.03), (0.2, 0.25))


def codim3_surface(xs):
    x1, x2 = xs
    return [x1, x2, x1 * x1, x1 * x2 + 0.5 * x2 * x2, x2 ** 3 + 0.3 * x1 ** 3]


def assert_tube_branch_holds(report, rank):
    assert report["tube_bundle_rank"] == report["tube_bundle_rank_expected"] == rank
    assert report["tube_bundle_rank_constant"]
    compat = report["tube_compatibility"]
    for key in ("transfer_preserves_sff", "transfer_parallel", "bundle_parallel_along_rulings"):
        assert compat[key] <= 1e-10


def twisted_normal(fund):
    """Normal-frame coordinates (P, k) of the unit normal part of e3 + x1 e4.

    The unit normal part of a constant vector v would not do: the cylinder
    over the surface along v extends it, so the obstruction kernel of that
    line holds (v^T, |v^N|) at every point.  A vector that turns with x1
    leaves the kernel zero.
    """
    x1 = fund.jet.chart.points()[:, :1]
    e = np.eye(fund.jet.m)
    coords = fund.normal_coordinates(e[2] + x1 * e[3])
    return coords / np.linalg.norm(coords, axis=1, keepdims=True)


def test_tube_branch_on_a_self_pair_without_fibres():
    # L = a twisted unit normal field, no rulings: the obstruction kernel is
    # zero, so the tube is the base and its bundle is all of L
    jet = ImmersionJet.from_function(codim3_surface, TUBE_GRID, E5)
    p = TUBE_GRID.npoints
    fund = fundamental_data(jet, CFG)
    lf = twisted_normal(fund)[:, :, None]
    data = TransferData.from_frames(fund, fundamental_data(jet, CFG), lf, lf.copy(), (1,),
                                    np.zeros((p, 2, 0)))
    obs = extension_obstruction(data, CFG)
    assert (obs.s, obs.r, data.ell) == (0, 0, 1)
    report = verify_extension(ruled_extension(obs), CFG)
    assert_tube_branch_holds(report, 1)
    assert report["kernel_identity_gap"] == 0.0


def padded_surface_transfer():
    """The surface padded with a flat sixth coordinate, and L = (its twisted
    normal, e6) on both sides: e6 is the one fibre, so the tube bundle is the
    rest of L.  Returns the left transfer frames and the transfer data."""
    def padded(xs):
        return codim3_surface(xs) + [jet3.constant(0.0, xs[0])]

    p = TUBE_GRID.npoints
    jet = ImmersionJet.from_function(padded, TUBE_GRID, ScalarProduct.euclidean(6))
    fund = fundamental_data(jet, CFG)
    lf = np.stack([twisted_normal(fund), fund.normal_coordinates(np.eye(6)[5])], axis=2)
    return lf, TransferData.from_frames(fund, fundamental_data(jet, CFG), lf, lf.copy(), (1, 1),
                                        np.zeros((p, 2, 0)))


def test_tube_branch_transports_frames_along_a_fibre():
    _, data = padded_surface_transfer()
    obs = extension_obstruction(data, CFG)
    assert (obs.s, obs.r, data.ell) == (1, 1, 2)
    pair = ruled_extension(obs)
    assert pair.left.chart.shape == (9, 9, 3)
    report = verify_extension(pair, CFG)
    assert_tube_branch_holds(report, 1)
    assert report["kernel_identity_gap"] <= 1e-8


def extended_jet_by_samples(base, fields, chart_ext, r):
    """Reference for `_extended_jet`: the jets of (x, t) -> f(x) + sum_k t_k
    field_k(x) assembled one fibre sample at a time, the zero sample a copy
    of the base values."""
    chart = base.chart
    pb, n, m = chart.npoints, base.n, base.m
    pf = int(np.prod(chart_ext.shape[n:])) if r else 1
    taxes = [chart_ext.axis(n + k) for k in range(r)]
    tgrids = np.meshgrid(*taxes, indexing="ij") if r else []
    tflat = np.stack([t.reshape(-1) for t in tgrids], axis=1) if r else np.zeros((1, 0))
    dfields = np.stack([
        np.stack([grid_derivative(fields[:, :, k], chart, i) for i in range(n)], axis=1)
        for k in range(r)
    ], axis=3) if r else np.zeros((pb, n, m, 0))
    d2fields = np.stack([
        np.stack([grid_derivative(dfields[:, i, :, :], chart, j) for j in range(n)], axis=1)
        for i in range(n)
    ], axis=1) if r else np.zeros((pb, n, n, m, 0))
    ntot, ptot = n + r, pb * pf
    values, d1, d2 = np.zeros((ptot, m)), np.zeros((ptot, ntot, m)), np.zeros((ptot, ntot, ntot, m))
    for w, tvec in enumerate(tflat):
        sl = slice(w, ptot, pf)
        if r and np.any(tvec != 0.0):
            values[sl] = base.values + np.einsum("pmk,k->pm", fields, tvec)
        else:
            values[sl] = base.values.copy()
        d1[sl, :n] = base.d1 + (np.einsum("pimk,k->pim", dfields, tvec) if r else 0.0)
        for k in range(r):
            d1[sl, n + k] = fields[:, :, k]
        d2[sl, :n, :n] = base.d2 + (np.einsum("pijmk,k->pijm", d2fields, tvec) if r else 0.0)
        for k in range(r):
            d2[sl, :n, n + k] = dfields[:, :, :, k]
            d2[sl, n + k, :n] = dfields[:, :, :, k]
    return values, d1, d2


@pytest.mark.parametrize("r", [0, 1, 2])
def test_extended_jet_equals_the_sample_loop_bit_for_bit(r):
    # the surface has no zero value on TUBE_GRID, so adding the zero fibre
    # offset cannot flip the sign of a zero that the loop's copy keeps
    base = ImmersionJet.from_function(codim3_surface, TUBE_GRID, E5)
    x = TUBE_GRID.points()
    fields = np.sin(x[:, :1, None] * np.arange(1, r + 1) + np.arange(5)[:, None] * x[:, 1:, None])
    chart_ext = TUBE_GRID.with_extra_axes((3,) * r, (0.01,) * r, (-0.01,) * r)
    got = _extended_jet(base, fields, chart_ext, r)
    want = extended_jet_by_samples(base, fields, chart_ext, r)
    assert got.chart == chart_ext
    for a, b in zip((got.values, got.d1, got.d2), want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_tube_compatibility_sees_a_scrambled_right_transfer_frame():
    # negative control: swap the two right transfer columns after the
    # extension is built, so that the identification is no longer parallel
    lf, data = padded_surface_transfer()
    pair = ruled_extension(extension_obstruction(data, CFG))
    pair.obstruction.data.transfer_bundle_right = lf[:, :, ::-1]
    compat = verify_extension(pair, CFG)["tube_compatibility"]
    assert max(v for v in compat.values() if isinstance(v, float)) > 1e-6


# -- the slice generator ------------------------------------------------------


def lorentz_slice_map(n=3, q=1):
    """Psi(x, 0) + t e2 on the (t, x) chart, into the cone over R^{n+q}."""
    model = LightConeModel(n + q)

    def fn(xs):
        t = xs[0]
        x = xs[1:]
        zero = jet3.constant(0.0, t)
        comps = [zero] * (n + q + 2)
        comps[0] = -0.5 * jet3.norm2(*x)
        comps[1] = jet3.constant(1.0, t)
        for i, xi in enumerate(x):
            comps[2 + i] = xi
        comps[2] = comps[2] + t
        return comps

    return ImmersionMap("lorentz-slice", n + 1, model.ambient, fn)


def adapted_cylinder_map(n=3):
    """A map of the (t, x) chart restricting to a cylinder on t = -2 x1."""

    def fn(xs):
        t = xs[0]
        x = xs[1:]
        comps = [jet3.cos(x[0]), jet3.sin(x[0])]
        comps.extend(x[1:])
        comps.append(t + 2.0 * x[0])
        return comps

    return ImmersionMap("adapted-cylinder", n + 1, ScalarProduct.euclidean(n + 2), fn)


def generator_chart(n=3):
    shapes = (9,) + (7,) + (5,) * (n - 1)
    spacing = (0.5,) + (0.05,) * n
    origin = (-3.0,) + (0.8,) + (-0.1,) * (n - 1)
    return ChartGrid(shapes, spacing, origin)


def test_transversality_check_flags():
    model = LightConeModel(3)
    grid = ChartGrid((5, 5), (0.05, 0.05), (0.3, -0.1))

    def inside(xs):
        x1, x2 = xs
        zero = jet3.constant(0.0, x1)
        return [-0.5 * jet3.norm2(x1, x2), jet3.constant(1.0, x1), x1, x2, zero]

    jet = ImmersionJet.from_function(inside, grid, model.ambient)
    rep = transversality_check(jet)
    assert rep["contained_in_cone"]

    def off_cone(xs):
        x1, x2 = xs
        comps = inside(xs)
        comps[2] = comps[2] + jet3.constant(0.2, x1)  # push off the cone
        return comps

    jet2 = ImmersionJet.from_function(off_cone, grid, model.ambient)
    rep2 = transversality_check(jet2)
    assert not rep2["contained_in_cone"]
    assert rep2["transversal"].all()


def test_generator_rejects_cone_contained_map():
    n = 2
    model = LightConeModel(n + 2)

    def fn(xs):
        t = xs[0]
        x = xs[1:]
        zero = jet3.constant(0.0, t)
        comps = [-0.5 * (jet3.norm2(*x) + t * t), jet3.constant(1.0, t), t]
        comps.extend(x)
        comps.append(zero)
        return comps

    inside = ImmersionMap("inside", n + 1, model.ambient, fn)
    left = adapted_cylinder_map(n)
    with pytest.raises(NotTransversal):
        generate_conformal_pair(left, inside, generator_chart(n), cfg=CFG)


def test_generator_branches_and_conformality():
    n = 3
    chart = generator_chart(n)
    left = adapted_cylinder_map(n)
    lorentz = lorentz_slice_map(n)
    # branch 0 is t = -2 x1 on this chart (x1 > 0)
    data = generate_conformal_pair(left, lorentz, chart, axis=0, branch=0, cfg=CFG)
    assert np.max(np.abs(data.roots + 2.0 * data.slice_chart.points()[:, 0])) < 1e-9
    assert np.max(np.abs(data.conformal_factor - 1.0)) < 1e-9
    assert data.diagnostics["slice_metric_gap"] < 1e-9
    assert data.diagnostics["factor_vs_null_pairing"] < 1e-9
    # the left restriction really is the cylinder
    pts = data.slice_chart.points()
    expect = np.stack(
        [np.cos(pts[:, 0]), np.sin(pts[:, 0]), pts[:, 1], pts[:, 2], np.zeros(len(pts))],
        axis=1,
    )
    assert np.max(np.abs(data.left.values - expect)) < 1e-9
    # branch 1 is t = 0; a plain graph map restricts isometrically there
    def graph_fn(xs):
        t = xs[0]
        return list(xs[1:]) + [t]

    graph = ImmersionMap("graph", n + 1, ScalarProduct.euclidean(n + 1), graph_fn)
    data0 = generate_conformal_pair(graph, lorentz, chart, axis=0, branch=1, cfg=CFG)
    assert np.max(np.abs(data0.roots)) < 1e-9
    assert np.max(np.abs(data0.conformal_factor - 1.0)) < 1e-9


def test_generator_missing_branch_raises():
    n = 2
    chart = ChartGrid((5, 5, 5), (0.1, 0.05, 0.05), (0.5, 0.8, -0.1))  # t > 0 only
    left = adapted_cylinder_map(n)
    lorentz = lorentz_slice_map(n)
    with pytest.raises(NoIntersection, match="line 0: found 0 roots, branch 0 requested"):
        generate_conformal_pair(left, lorentz, chart, axis=0, branch=0, cfg=CFG)


def brackets_by_line(s_lines, taxis, branch):
    """The slicer's bracket scan as a loop over lines and nodes: the
    reference for `_brackets`."""
    n_lines, axis_len = s_lines.shape
    lows = np.zeros(n_lines)
    highs = np.zeros(n_lines)
    for line in range(n_lines):
        sv = s_lines[line]
        brackets = []
        for k in range(axis_len - 1):
            if sv[k] == 0.0:
                brackets.append((taxis[k], taxis[k]))
            elif sv[k] * sv[k + 1] < 0:
                brackets.append((taxis[k], taxis[k + 1]))
        if sv[-1] == 0.0:
            brackets.append((taxis[-1], taxis[-1]))
        if len(brackets) <= branch:
            raise NoIntersection(
                f"line {line}: found {len(brackets)} roots, branch {branch} requested"
            )
        lows[line], highs[line] = brackets[branch]
    return lows, highs


def degenerate_pair_lines():
    """The squared norm of the gallery degenerate-pair's Lorentz map along
    the lines of its scan axis."""
    grid = MANIFESTS["degenerate-pair"]["grid"]
    chart = ChartGrid(tuple(grid["shape"]), tuple(grid["spacing"]), tuple(grid["origin"]))
    lorentz = build_immersion(MANIFESTS["degenerate-pair"]["generator"]["lorentz"])
    vals = lorentz.values(chart.points())
    s = np.einsum("pa,ab,pb->p", vals, lorentz.ambient.gram, vals)
    return np.moveaxis(s.reshape(chart.shape), 0, -1).reshape(-1, chart.shape[0]), chart.axis(0)


SLICER_LINES = {
    "degenerate-pair": degenerate_pair_lines(),
    "sign changes": (np.array([[1.0, 0.5, -0.5, -1.0, 2.0], [-3.0, 1.0, -1.0, 1.0, -1.0]]),
                     np.linspace(0.0, 1.0, 5)),
    "zeros": (np.array([[1.0, 0.0, 1.0, -1.0, 0.0], [0.0, -1.0, 0.0, 0.0, 2.0],
                        [2.0, -1.0, -3.0, -1.0, 0.0]]), np.linspace(-1.0, 1.0, 5)),
}


@pytest.mark.parametrize("branch", [0, 1])
@pytest.mark.parametrize("name", sorted(SLICER_LINES))
def test_brackets_match_the_scan_line_by_line(name, branch):
    s_lines, taxis = SLICER_LINES[name]
    if name == "degenerate-pair":
        # exact zeros at grid nodes: seven on t = 0 and one on t = -2 x1
        assert int(np.sum(s_lines == 0.0)) == 8 and s_lines.size == 7875
    lows, highs = _brackets(s_lines, taxis, branch)
    ref_lows, ref_highs = brackets_by_line(s_lines, taxis, branch)
    assert np.array_equal(lows, ref_lows) and np.array_equal(highs, ref_highs)


def test_brackets_name_the_first_line_short_of_the_branch():
    s_lines = np.array([[1.0, -1.0, 1.0], [1.0, 2.0, 0.0], [1.0, 2.0, 3.0]])
    taxis = np.array([0.0, 1.0, 2.0])
    with pytest.raises(NoIntersection, match="line 1: found 1 roots, branch 1 requested"):
        brackets_by_line(s_lines, taxis, 1)
    with pytest.raises(NoIntersection, match="line 1: found 1 roots, branch 1 requested"):
        _brackets(s_lines, taxis, 1)


def chain_rule_restriction(mapping, lorentz, data, axis):
    """The slice jets of `mapping` with the chain rule written out through the
    inclusion's jets: the reference for the slicer's Jet3 composition.  The
    implicit-function jets of the root come from the squared norm as in the
    slicer."""
    pts = np.insert(data.slice_chart.points(), axis, data.roots, axis=1)
    s = _norm_sq_jet(lorentz.evaluate(pts), lorentz.ambient.gram)
    n_plus = pts.shape[1]
    others = [i for i in range(n_plus) if i != axis]
    s_t = s.g[:, axis]
    t_u = -s.g[:, others] / s_t[:, None]
    hess = s.h
    t_uu = -(
        hess[:, others][:, :, others]
        + np.einsum("pi,pj->pij", hess[:, others][:, :, axis], t_u)
        + np.einsum("pi,pj->pij", t_u, hess[:, others][:, :, axis])
        + hess[:, axis, axis][:, None, None] * np.einsum("pi,pj->pij", t_u, t_u)
    ) / s_t[:, None, None]
    n = n_plus - 1
    incl_d1 = np.zeros((len(pts), n_plus, n))
    incl_d2 = np.zeros((len(pts), n_plus, n, n))
    for col, i in enumerate(others):
        incl_d1[:, i, col] = 1.0
    incl_d1[:, axis, :] = t_u
    incl_d2[:, axis, :, :] = t_uu
    comps = mapping.evaluate(pts)
    values = np.stack([c.v for c in comps], axis=-1)
    dfull = np.stack([c.g for c in comps], axis=-1)
    d2full = np.stack([c.h for c in comps], axis=-1)
    d1 = np.einsum("pAm,pAi->pim", dfull, incl_d1)
    d2 = np.einsum("pABm,pAi,pBj->pijm", d2full, incl_d1, incl_d1) + np.einsum(
        "pAm,pAij->pijm", dfull, incl_d2)
    return ImmersionJet(data.slice_chart, mapping.ambient, values, d1, d2, source="assembled"), t_uu


# t = x1 is cut where w = x1 - q(x2, x3) vanishes or equals -2 x2, so both
# branches of the slice are curved graphs with t_uu = Hess q (or -Hess q)
CURVED_Q = "(0.3*x2*x2 + 0.2*x2*x3 - 0.4*x3*x3)"
CURVED_LORENTZ = {"expr": ["-0.5*(x2*x2 + x3*x3)", "1", f"x2 + x1 - {CURVED_Q}", "x3"],
                  "chart_dim": 3, "ambient": {"dim": 4, "lightcone": True}}
CURVED_LEFT = {"expr": ["cos(x2)", "sin(x2)", "x3", f"x1 - {CURVED_Q} + 2*x2"], "chart_dim": 3}


@pytest.mark.parametrize("name", ["curved", "degenerate-pair", "degenerate-extension"])
def test_slice_jets_match_the_chain_rule_through_the_inclusion(name):
    if name == "curved":
        left, lorentz = build_immersion(CURVED_LEFT), build_immersion(CURVED_LORENTZ)
        chart, axis = ChartGrid((9, 5, 5), (0.5, 0.05, 0.05), (-3.0, 0.8, -0.1)), 0
    else:
        gen, grid = MANIFESTS[name]["generator"], MANIFESTS[name]["grid"]
        left, lorentz = build_immersion(gen["left"]), build_immersion(gen["lorentz"])
        chart = ChartGrid(tuple(grid["shape"]), tuple(grid["spacing"]), tuple(grid["origin"]))
        axis = gen["axis"]
    data = generate_conformal_pair(left, lorentz, chart, axis=axis, branch=0, cfg=CFG)
    want_left, t_uu = chain_rule_restriction(left, lorentz, data, axis)
    want_lift, _ = chain_rule_restriction(lorentz, lorentz, data, axis)
    if name == "curved":
        assert float(np.min(np.abs(t_uu))) > 0.1  # the zero set is curved everywhere
    for got, want in ((data.left, want_left), (data.lifted, want_lift)):
        for part in ("values", "d1", "d2"):
            a, b = getattr(got, part), getattr(want, part)
            if name == "curved":  # the two sum the chain rule's terms in other orders
                assert np.max(np.abs(a - b)) <= 2 * np.finfo(float).eps * np.max(np.abs(b)), part
            else:
                assert np.array_equal(a, b), part


def test_generated_pair_feeds_degenerate_pipeline():
    n = 3
    data = generate_conformal_pair(adapted_cylinder_map(n), lorentz_slice_map(n),
                                   generator_chart(n), axis=0, branch=0, cfg=CFG)
    from confpair.lightcone import isometric_representative

    # the slicer's lifted slice is the isometric cone lift of the projected side
    jhat, _ = isometric_representative(cone_projection(data.lifted), induced_metric(data.left),
                                       cfg=CFG)
    assert data.lifted.ambient == jhat.ambient
    assert np.max(np.abs(data.lifted.d2 - jhat.d2)) <= 1e-11 * np.max(np.abs(jhat.d2))
    analysis = analyze_pair(data.left, data.lifted, CFG)
    assert len(analysis.regions) == 1
    st = analysis.regions[0]
    assert st.branch == "degenerate"
    for name, claim in st.claims.items():
        assert claim["passed"], f"claim {name} failed: {claim}"
    assert st.ruling_dim == n - 1
    assert st.ell == 2


def test_transversality_fails_at_a_tangency_point():
    # affine Riemannian plane through the cone point Psi(0) = e1 with
    # spacelike directions: tangent to the cone exactly at the origin
    model = LightConeModel(2)
    grid = ChartGrid((5, 5), (0.1, 0.1), (-0.2, -0.2))

    def plane_fn(xs):
        u, v = xs
        zero = jet3.constant(0.0, u)
        one = jet3.constant(1.0, u)
        return [zero, one, u, v]

    jet = ImmersionJet.from_function(plane_fn, grid, model.ambient)
    rep = transversality_check(jet)
    origin = grid.center_index()
    assert rep["on_cone"][origin]
    assert not rep["transversal"][origin]
    others = np.ones(grid.npoints, dtype=bool)
    others[origin] = False
    assert rep["transversal"][others].all()


# -- the bases in hand: degenerate-extension, recorded once ------------------


def test_rulings_inside_kernel_projects_with_the_kernel_basis(degenerate_extension_run):
    # the kernel's right singular vectors span what its swept frames span
    (_, _, obs), = degenerate_extension_run["extension_obstruction"]
    _, _, (dims, kers) = degenerate_extension_run["kernel_stack"][0]
    pts = np.flatnonzero(obs.data.mask)
    assert kers.shape[0] == len(pts) and set(dims.tolist()) == {obs.s} == {4}
    basis, frames = kers[:, :, :obs.s], obs.delta[pts]
    proj = frames @ np.linalg.pinv(frames)
    assert np.max(np.abs(basis @ np.swapaxes(basis, 1, 2) - proj)) <= 1e-13
    n = obs.data.left.metric.shape[1]
    rulings = np.zeros((len(pts), frames.shape[1], obs.data.rulings.shape[2]))
    rulings[:, :n] = obs.data.rulings[pts]
    gap = np.max(np.abs(rulings - proj @ rulings))
    assert obs.residuals["rulings_inside_kernel"] == pytest.approx(gap, abs=1e-13)


def test_kernel_identity_takes_the_joint_nullity_basis_as_it_comes(degenerate_extension_run):
    # re-spanning the kernel's orthonormal columns finds the same ranks and spans
    _, _, (null, ker) = degenerate_extension_run["joint_nullity"][-1]
    ranks, respanned = by_class(lambda k: span_stack(k, CFG.rank_tol), [(null, ker)])
    assert np.array_equal(ranks, null) and set(null.tolist()) == {4}
    for (a,), idx in rank_classes(null):
        assert np.max(gap_stack(ker[idx][:, :, :a], respanned[idx][:, :, :a])) <= 1e-13


def test_tube_metric_agreement_reads_the_tube_fundamental_data(degenerate_extension_run):
    (_, _, pair), = degenerate_extension_run["ruled_extension"]
    (_, _, report), = degenerate_extension_run["verify_extension"]
    gap = float(np.max(np.abs(induced_metric(pair.left) - induced_metric(pair.right))))
    assert report["metric_agreement"] == gap


def test_degenerate_extension_takes_a_pseudo_inverse_only_to_identify(degenerate_extension_run):
    assert degenerate_extension_run["code"] == 0
    assert set(degenerate_extension_run["pinv"]) == {"_identify"}


def test_degenerate_extension_sends_no_stacked_eigen_solve_from_jets(degenerate_extension_run):
    # the Lorentzian tube's tangent frames come from the signed Cholesky
    # factor, and every immersion screen with n >= 3 from a Cholesky factor
    assert degenerate_extension_run["code"] == 0
    assert degenerate_extension_run["jets_eigen"] == []


def test_tube_bundle_rank_drop_fails_the_sweep(monkeypatch):
    # the tube bundle's columns beyond each point's rank are zeroed before the
    # sweep, so a point where the bundle loses a direction fails its rank check
    _, data = padded_surface_transfer()
    pair = ruled_extension(extension_obstruction(data, CFG))
    real = extension.kernel_stack

    def dropped(rows, tol, floor):
        null, coeffs = real(rows, tol, floor)
        if tol == extension.TUBE_TOL:  # the tube bundle's coefficient kernel
            null[7] -= 1
        return null, coeffs

    monkeypatch.setattr(extension, "kernel_stack", dropped)
    with pytest.raises(FrameAlignmentFailure,
                       match="^fiber rank 0 != 1 inside a constant-rank region at grid point 7$"):
        verify_extension(pair, CFG)

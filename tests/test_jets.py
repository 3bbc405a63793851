import json
import sys
import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confpair import conformal_calc, gallery, indefinite_linalg, jet3, jets
from confpair.cli import run_manifest
from confpair.errors import FrameAlignmentFailure, NotConformal, NotImmersion
from confpair.indefinite_linalg import DEFAULT_TOL, ScalarProduct, kernel_stack, span_stack
from confpair.jets import (
    ChartGrid,
    DistributionFrame,
    ImmersionJet,
    PipelineConfig,
    _seed_frame,
    align_frames,
    bracket_residual,
    conformal_factor_of_metrics,
    coordinate_distribution,
    fundamental_data,
    gauss_equation_residual,
    grid_derivative,
    induced_metric,
    leaf_mean_curvature,
)

E3 = ScalarProduct.euclidean(3)
E4 = ScalarProduct.euclidean(4)
CFG = PipelineConfig()
FLOOR_05, FLOOR_06 = PipelineConfig(align_floor=0.5), PipelineConfig(align_floor=0.6)


def grid2(n=9, h=0.05, origin=(-0.2, -0.2)):
    return ChartGrid((n, n), (h, h), origin)


def plane_fn(xs):
    x, y = xs
    return [x, y, jet3.constant(0.0, x)]


def sphere_fn(radius):
    def fn(xs):
        th, ph = xs
        return [
            radius * jet3.cos(th),
            radius * jet3.sin(th) * jet3.cos(ph),
            radius * jet3.sin(th) * jet3.sin(ph),
        ]

    return fn


def cylinder3_fn(xs):
    # 3-dim cylinder chart into R^4
    x1, x2, x3 = xs
    return [jet3.cos(x1), jet3.sin(x1), x2, x3]


def test_grid_derivative_is_fourth_order():
    errs = []
    for h in (0.05, 0.025):
        grid = ChartGrid((int(1.0 / h) + 1,), (h,), (0.0,))
        x = grid.points()[:, 0]
        f = np.sin(3 * x)
        df = grid_derivative(f, grid, 0)
        errs.append(np.max(np.abs(df - 3 * np.cos(3 * x))[2:-2]))
    assert errs[0] < 1e-4
    assert errs[0] / errs[1] > 12  # close to the 4th-order factor 16
    grid = ChartGrid((21,), (0.05,), (0.0,))
    x = grid.points()[:, 0]
    d2f = grid_derivative(np.sin(3 * x), grid, 0, order=2)
    err2 = np.abs(d2f + 9 * np.sin(3 * x))
    assert np.max(err2[2:-2]) < 2e-3  # interior stencils are 4th order
    assert np.max(err2) < 5e-2  # one-sided boundary stencils degrade gracefully


def test_stencil_jets_reuse_the_first_derivatives(monkeypatch):
    # two first, two pure second and one mixed derivative for n = 2; the mixed
    # one differentiates d1 again, exactly as a second stencil pass would
    grid = ChartGrid((11, 11), (0.05, 0.05), (0.1, 0.2))
    values = np.sin(grid.points() @ np.array([1.3, 0.7]))
    real = jets.grid_derivative
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(jets, "grid_derivative", counted)
    _, d2 = jets.scalar_fd_jets(values, grid)
    assert calls[0] == 5
    jet = ImmersionJet.from_values(np.stack([values, values ** 2, values ** 3], axis=1), grid, E3)
    assert calls[0] == 10
    assert np.array_equal(d2[:, 0, 1], real(real(values, grid, 0), grid, 1))
    assert np.array_equal(d2[:, 1, 0], d2[:, 0, 1])
    assert np.array_equal(jet.d2[:, 0, 1, 0], d2[:, 0, 1])


def per_component_copy(fn, chart, ambient):
    """`ImmersionJet.from_function` as a loop that copies one component at a
    time into zeroed C-ordered arrays: the reference for `from_components`."""
    xs = jet3.variables(chart.points())
    p, n, m = chart.npoints, chart.ndim, ambient.dim
    values, d1, d2 = np.zeros((p, m)), np.zeros((p, n, m)), np.zeros((p, n, n, m))
    for c, comp in enumerate(fn(xs)):
        if not isinstance(comp, jet3.Jet3):
            comp = jet3.constant(comp, xs[0])
        values[:, c], d1[:, :, c], d2[:, :, :, c] = comp.v, comp.g, comp.h
    return values, d1, d2


FUNCTIONS = {
    "sphere3": (gallery.sphere(3), ChartGrid((5, 5, 5), (0.05,) * 3, (0.7, 0.4, 0.2))),
    "pad(cylinder)": (gallery.pad(gallery.cylinder(3), extra=2), ChartGrid((5, 4, 3), (0.04,) * 3,
                                                                          (0.1, -0.1, 0.0))),
    "psi-lift(torus)": (gallery.psi_lift(gallery.torus()), ChartGrid((6, 5), (0.03, 0.03),
                                                                    (0.3, 0.2))),
    "constants": (jets.ImmersionMap("constants", 2, E3, lambda xs: [1.0, -0.0, 2.5]), grid2(4)),
}


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_from_function_matches_the_per_component_copy_byte_for_byte(name):
    imap, chart = FUNCTIONS[name]
    jet = ImmersionJet.from_function(imap.fn, chart, imap.ambient)
    for got, want in zip((jet.values, jet.d1, jet.d2), per_component_copy(imap.fn, chart,
                                                                           imap.ambient)):
        assert got.flags.c_contiguous
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_components_round_trip_through_from_components():
    jet = gallery.sphere(3).jet(ChartGrid((5, 5, 5), (0.05,) * 3, (0.7, 0.4, 0.2)))
    comps = jet.components()
    assert len(comps) == jet.m and all(np.shares_memory(c.v, jet.values) for c in comps)
    again = ImmersionJet.from_components(comps, jet.chart, jet.ambient, jet.source)
    for part in ("values", "d1", "d2"):
        assert getattr(again, part).tobytes() == getattr(jet, part).tobytes()
    with pytest.raises(ValueError, match="returned 2 components for ambient dim 4"):
        ImmersionJet.from_components(comps[:2], jet.chart, jet.ambient, jet.source)


def test_plane_has_identity_metric_and_zero_alpha():
    jet = ImmersionJet.from_function(plane_fn, grid2(), E3)
    g = induced_metric(jet)
    assert np.allclose(g, np.eye(2)[None], atol=1e-12)
    fund = fundamental_data(jet, CFG)
    assert np.max(np.abs(fund.alpha)) < 1e-12
    assert np.max(np.abs(fund.nconn)) < 1e-12


def psi_torus_fund(n_pts, h):
    """Fundamental data of psi-lift(torus) on an n_pts x n_pts grid of step h
    from (0.3, 0.2); the odd sizes share their central point, the seed."""
    grid = ChartGrid((n_pts, n_pts), (h, h), (0.3, 0.2))
    return fundamental_data(gallery.psi_lift(gallery.torus()).jet(grid), CFG)


def stencil_nconn(fund):
    """The normal connection from stencils of the aligned frames,
    eps_t <d_i xi_s, xi_t>: the reference for the 2-jet form."""
    frames, chart = fund.normal_frame, fund.jet.chart
    return np.stack([fund.normal_coordinates(np.swapaxes(grid_derivative(frames, chart, i), 1, 2))
                     for i in range(chart.ndim)], axis=1)


def test_nconn_is_pointwise_in_the_2_jet():
    # each point's connection depends on its own 2-jet and the seed frame
    # alone, so halving the step leaves it unchanged at the shared points
    coarse, fine = psi_torus_fund(11, 0.01).nconn, psi_torus_fund(21, 0.005).nconn
    shared = fine.reshape(21, 21, *fine.shape[1:])[::2, ::2].reshape(coarse.shape)
    assert coarse.shape == (121, 2, 3, 3)
    assert np.max(np.abs(coarse)) > 1e-4
    assert np.array_equal(shared, coarse)


def test_nconn_agrees_with_stencils_of_the_frames():
    gaps = []
    for n_pts, h in ((11, 0.01), (21, 0.005)):
        fund = psi_torus_fund(n_pts, h)
        gaps.append(np.max(np.abs(fund.nconn - stencil_nconn(fund))))
    assert gaps[0] < 1e-9
    assert gaps[0] / gaps[1] >= 16  # the stencils' fourth order


def test_nconn_is_empty_in_codimension_0_and_zero_on_hypersurfaces():
    grid = ChartGrid((7, 7), (0.04, 0.04), (0.9, 0.4))
    flat = ImmersionJet.from_function(lambda xs: [xs[0], xs[1] + xs[0] * xs[0]], grid,
                                      ScalarProduct.euclidean(2))
    assert fundamental_data(flat, CFG).nconn.shape == (grid.npoints, 2, 0, 0)
    sphere = fundamental_data(ImmersionJet.from_function(sphere_fn(2.0), grid, E3), CFG)
    assert sphere.nconn.shape == (grid.npoints, 2, 1, 1)
    assert not sphere.nconn.any()


def test_fundamental_data_takes_no_stencils(monkeypatch):
    calls = []
    real = jets.grid_derivative
    monkeypatch.setattr(jets, "grid_derivative", lambda *a, **k: calls.append(a) or real(*a, **k))
    fund = psi_torus_fund(11, 0.01)
    assert fund.nconn.shape == (121, 2, 3, 3)
    assert calls == []


def spy_nconn(monkeypatch) -> list:
    """Record every FundamentalData whose connection is computed."""
    real = jets.FundamentalData.__dict__["nconn"].func
    computed = []

    def counted(fund):
        computed.append(fund)
        return real(fund)

    spy = cached_property(counted)
    spy.__set_name__(jets.FundamentalData, "nconn")
    monkeypatch.setattr(jets.FundamentalData, "nconn", spy)
    return computed


def test_single_analysis_never_computes_the_connection(monkeypatch):
    computed = spy_nconn(monkeypatch)
    report, code = run_manifest(json.loads(json.dumps(gallery.MANIFESTS["psi-invariants"])))
    assert code == 0 and "metric_compatibility" not in report["results"]["diagnostics"]
    assert computed == []


@pytest.mark.parametrize("name", ["congruent-pair", "flat-extension"])
def test_each_connection_is_computed_once(monkeypatch, name):
    computed = spy_nconn(monkeypatch)
    _, code = run_manifest(json.loads(json.dumps(gallery.MANIFESTS[name])))
    assert code == 0 and computed
    assert len({id(fund) for fund in computed}) == len(computed)


def test_sphere_metric_in_spherical_coordinates():
    grid = ChartGrid((7, 7), (0.04, 0.04), (0.9, 0.4))
    jet = ImmersionJet.from_function(sphere_fn(2.0), grid, E3)
    g = induced_metric(jet)
    th = grid.points()[:, 0]
    assert np.allclose(g[:, 0, 0], 4.0, atol=1e-12)
    assert np.allclose(g[:, 1, 1], 4.0 * np.sin(th) ** 2, atol=1e-12)
    assert np.allclose(g[:, 0, 1], 0.0, atol=1e-12)


def test_unit_sphere_is_umbilic_with_outward_normal():
    grid = ChartGrid((7, 7), (0.04, 0.04), (0.9, 0.4))
    jet = ImmersionJet.from_function(sphere_fn(1.0), grid, E3)
    fund = fundamental_data(jet, CFG)
    nu = fund.normal_frame[:, :, 0]
    # align sign with the outward position direction
    sign = np.sign(np.einsum("pm,pm->p", nu, jet.values))
    nu = nu * sign[:, None]
    alpha_against_nu = np.einsum("pijm,pm->pij", fund.alpha_ambient, nu)
    g = fund.metric
    assert np.max(np.abs(alpha_against_nu + g)) < 1e-10


def test_cylinder_shape_operator_eigenvalues():
    grid = ChartGrid((7, 7, 5), (0.05, 0.05, 0.05), (0.0, -0.1, -0.1))
    jet = ImmersionJet.from_function(cylinder3_fn, grid, E4)
    fund = fundamental_data(jet, CFG)
    assert fund.normal_rank == 1
    pairing = fund.alpha[..., 0] * fund.normal_pattern[0]  # <alpha(E_a, E_b), xi_0>
    eigs = np.linalg.eigvalsh(pairing)
    eigs_sorted = np.sort(np.abs(eigs), axis=1)
    assert np.max(np.abs(eigs_sorted[:, :2])) < 1e-10
    assert np.allclose(eigs_sorted[:, 2], 1.0, atol=1e-10)


def test_fd_jets_agree_with_closed_form():
    grid = ChartGrid((11, 11), (0.02, 0.02), (0.8, 0.4))
    closed = ImmersionJet.from_function(sphere_fn(1.5), grid, E3)
    fd = ImmersionJet.from_values(closed.values, grid, E3)
    assert fd.source == "finite-difference"
    assert np.max(np.abs(fd.d1 - closed.d1)) < 1e-7
    assert np.max(np.abs(fd.d2 - closed.d2)) < 1e-4
    f_closed = fundamental_data(closed, CFG)
    f_fd = fundamental_data(fd, CFG)
    assert np.max(np.abs(f_closed.metric - f_fd.metric)) < 1e-6
    assert np.max(np.abs(np.abs(f_closed.normal_frame) - np.abs(f_fd.normal_frame))) < 1e-4


def collapse_fn(xs):
    x, y = xs
    return [x, x, jet3.constant(0.0, x)]


def fold_fn(xs):
    # d1 vanishes at the origin alone, where sigma_n / sigma_1 is 0 / 0
    x, y = xs
    return [x * x, y * y, x * y]


def test_not_immersion_raises():
    for fn, grid in ((collapse_fn, grid2()), (fold_fn, grid2(5, 0.1))):
        jet = ImmersionJet.from_function(fn, grid, E3)
        assert jet.immersion_residual() <= 1e-7  # NaN would compare False
        with pytest.raises(NotImmersion):
            induced_metric(jet)


def test_non_finite_points_lose_rank_before_the_screen(monkeypatch):
    # a 3-D chart, whose screen is the Cholesky factor of the Gram: a point
    # with a NaN differential counts as rank lost and reaches neither the
    # screen nor the SVD
    grid = ChartGrid((3, 3, 3), (0.1,) * 3, (-0.1,) * 3)
    jet = ImmersionJet.from_function(lambda xs: [xs[0] ** 2, xs[1], xs[2], xs[0]], grid, E4)
    d1 = jet.d1.copy()
    d1[5, 0, 0] = np.nan
    broken = ImmersionJet(grid, E4, jet.values, d1, jet.d2)
    seen = []
    for name in ("cholesky_stack", "eigvalsh_stack", "_svd"):
        real = getattr(jets, name)
        monkeypatch.setattr(jets, name, lambda a, *args, _real=real: seen.append(a) or _real(a, *args))
    assert broken.immersion_residual() == 0.0 < jet.immersion_residual()
    assert [len(a) for a in seen] == [27]  # the healthy jet's screen alone


def test_coordinate_distribution_brackets_vanish():
    grid = ChartGrid((7, 7, 5), (0.05, 0.05, 0.05), (0.0, -0.1, -0.1))
    jet = ImmersionJet.from_function(cylinder3_fn, grid, E4)
    fund = fundamental_data(jet, CFG)
    dist = coordinate_distribution(fund, [1, 2])
    res = bracket_residual(fund, dist)
    assert np.max(res) < 1e-8


def test_nonintegrable_contact_field_has_residual():
    # span{d_x + y d_z, d_y} in chart coordinates of a flat 3-chart in R^4
    grid = ChartGrid((7, 7, 7), (0.05, 0.05, 0.05), (-0.15, -0.15, -0.15))

    def flat3(xs):
        x, y, z = xs
        return [x, y, z, jet3.constant(0.0, x)]

    jet = ImmersionJet.from_function(flat3, grid, E4)
    fund = fundamental_data(jet, CFG)
    pts = grid.points()
    basis = np.zeros((grid.npoints, 3, 2))
    basis[:, 0, 0] = 1.0
    basis[:, 2, 0] = pts[:, 1]  # X = d_x + y d_z
    basis[:, 1, 1] = 1.0  # Y = d_y
    for q in range(grid.npoints):
        basis[q] = np.linalg.qr(basis[q])[0]
    dist = DistributionFrame(basis)
    res = bracket_residual(fund, dist)
    assert np.min(res) > 0.3  # [X, Y] = -d_z always sticks out


def test_leaf_mean_curvature_on_cylinder_rulings_vanishes():
    grid = ChartGrid((7, 7, 5), (0.05, 0.05, 0.05), (0.0, -0.1, -0.1))
    jet = ImmersionJet.from_function(cylinder3_fn, grid, E4)
    fund = fundamental_data(jet, CFG)
    rulings = coordinate_distribution(fund, [1, 2])
    eta = leaf_mean_curvature(fund, rulings)
    assert np.max(np.abs(eta)) < 1e-12


def test_leaf_mean_curvature_on_torus_tube_circles():
    grid = ChartGrid((7, 7), (0.05, 0.05), (0.3, 0.2))
    R, r = 2.0, 0.5

    def torus(xs):
        th, ph = xs
        w = R + r * jet3.cos(th)
        return [w * jet3.cos(ph), w * jet3.sin(ph), r * jet3.sin(th)]

    jet = ImmersionJet.from_function(torus, grid, E3)
    fund = fundamental_data(jet, CFG)
    circles = coordinate_distribution(fund, [0])
    eta = leaf_mean_curvature(fund, circles)  # normal-frame coords, (P, 1)
    eta_amb = fund.normal_ambient(eta)
    pts = grid.points()
    th = pts[:, 0]
    ph = pts[:, 1]
    expect = -(1.0 / r) * np.stack([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), np.sin(th)], axis=1)
    assert np.max(np.abs(eta_amb - expect)) < 1e-9


def test_conformal_factor_identity_scaling_and_inversion():
    grid = grid2(7)
    jet = ImmersionJet.from_function(plane_fn, grid, E3)
    phi, _ = conformal_factor_of_metrics(induced_metric(jet), induced_metric(jet), 1e-6)
    assert np.allclose(phi, 1.0)

    def scaled(xs):
        x, y = xs
        return [3.0 * x, 3.0 * y, jet3.constant(0.0, x)]

    jet3x = ImmersionJet.from_function(scaled, grid, E3)
    phi, _ = conformal_factor_of_metrics(induced_metric(jet), induced_metric(jet3x), 1e-6)
    assert np.allclose(phi, 3.0, atol=1e-12)

    center = np.array([0.0, 0.0, 2.0])

    def inverted(xs):
        x, y = xs
        comps = [x, y, jet3.constant(0.0, x)]
        diff = [c - float(ci) for c, ci in zip(comps, center)]
        r2 = jet3.norm2(*diff)
        return [d / r2 + float(ci) for d, ci in zip(diff, center)]

    jinv = ImmersionJet.from_function(inverted, grid, E3)
    phi, resid = conformal_factor_of_metrics(induced_metric(jet), induced_metric(jinv), 1e-6)
    pts = grid.points()
    dist2 = pts[:, 0] ** 2 + pts[:, 1] ** 2 + 4.0
    assert np.max(resid) < 1e-10
    assert np.allclose(phi, 1.0 / dist2, atol=1e-10)


def test_conformal_factor_rejects_nonconformal():
    grid = grid2(7)
    jet = ImmersionJet.from_function(plane_fn, grid, E3)

    def sheared(xs):
        x, y = xs
        return [x + 0.5 * y, y, jet3.constant(0.0, x)]

    jet_sheared = ImmersionJet.from_function(sheared, grid, E3)
    with pytest.raises(NotConformal):
        conformal_factor_of_metrics(induced_metric(jet), induced_metric(jet_sheared), 1e-6)


def test_gauss_equation_residual_flat_and_sphere():
    grid = grid2(9)
    plane = ImmersionJet.from_function(plane_fn, grid, E3)
    res = gauss_equation_residual(fundamental_data(plane, CFG))
    assert np.max(res) < 1e-10
    sgrid = ChartGrid((9, 9), (0.03, 0.03), (0.9, 0.4))
    sphere = ImmersionJet.from_function(sphere_fn(1.0), sgrid, E3)
    res = gauss_equation_residual(fundamental_data(sphere, CFG))
    assert np.max(res) < 1e-4


# ---------------------------------------------------------------------------
# seed-anchored alignment against a point-by-point fit
# ---------------------------------------------------------------------------


def _fit_one(candidate, fiber, gram, pattern, tol):
    gf = fiber.T @ gram @ fiber
    rhs = fiber.T @ gram @ candidate
    try:
        coeff = np.linalg.solve(gf, rhs)
    except np.linalg.LinAlgError as exc:
        raise FrameAlignmentFailure("degenerate fiber during sweep") from exc
    y = fiber @ coeff
    # the generalized polar fit y S^-1, S the principal square root of
    # A = J y^T G y, from the eigendecomposition A = V diag(lam) V^-1
    j = np.diag(np.asarray(pattern, dtype=float))
    vals, vecs = np.linalg.eig(j @ y.T @ gram @ y)
    with np.errstate(all="ignore"):  # a zero eigenvalue gives a non-finite frame
        frame = (y @ (vecs * vals.astype(complex) ** -0.5) @ np.linalg.inv(vecs)).real
    if not np.isfinite(frame).all() or np.max(np.abs(frame.T @ gram @ frame - j)) > tol:
        raise FrameAlignmentFailure("polar fit lost rank")
    return frame, float(np.min(vals.real))


def central_point(shape, mask):
    """The masked point nearest the mean grid index of the mask, the first on a tie."""
    points = [int(q) for q in np.flatnonzero(mask)]
    ij = {q: np.array(np.unravel_index(q, shape), dtype=float) for q in points}
    mean = sum(ij.values()) / len(points)
    return min(points, key=lambda q: (float(np.sum((ij[q] - mean) ** 2)), q))


def anchored_align(spans, gram, shape, mask=None, seed=None, tol=None, *, cfg):
    """Every masked point fitted to the seed frame on its own, in point
    order: the oracle for align_frames."""
    tol, floor = 10 * cfg.rank_tol if tol is None else tol, cfg.align_floor
    npts = spans.shape[0]
    mask = np.ones(npts, dtype=bool) if mask is None else mask
    seed = central_point(shape, mask) if seed is None else seed
    gram = np.asarray(gram)

    def gram_at(q):
        return gram[q] if gram.ndim == 3 else gram

    frame0, pattern = _seed_frame(spans[seed], gram_at(seed), tol, seed)
    k = frame0.shape[1]
    frames = np.zeros((npts, spans.shape[1], k))
    smallest = np.inf
    for point in np.flatnonzero(mask):
        count, fiber = span_stack(spans[point], tol)
        fiber = fiber[:, :count]
        if fiber.shape[1] != k:
            raise FrameAlignmentFailure(
                f"fiber rank {fiber.shape[1]} != {k} inside a constant-rank region")
        frames[point], lam = _fit_one(frame0, fiber, gram_at(point), pattern, tol)
        if not lam >= floor:
            raise FrameAlignmentFailure(f"smallest eigenvalue {lam:.3g} below floor {floor}")
        smallest = min(smallest, lam)
    return frames, pattern, smallest


def tangent_rows(jet):
    return np.einsum("pia,ab->pib", jet.d1, jet.ambient.gram)


def normal_spans(jet):
    """Unaligned normal spans: the last m - n columns of a complete QR of
    the transposed tangent rows."""
    return np.linalg.qr(tangent_rows(jet).transpose(0, 2, 1), mode="complete")[0][:, :, jet.n:]


@pytest.mark.parametrize("imap", [gallery.pad(gallery.sphere(2), extra=2),
                                  gallery.psi_lift(gallery.sphere(2))])
def test_normal_spans_project_like_the_svd_complement(imap):
    jet = imap.jet(ChartGrid((9, 8), (0.04, 0.04), (0.9, 0.4)))
    qr_spans = normal_spans(jet)
    svd_spans = np.linalg.svd(tangent_rows(jet))[2][:, jet.n:].transpose(0, 2, 1)
    assert qr_spans.shape == svd_spans.shape == (jet.chart.npoints, jet.m, jet.codim)
    gap = qr_spans @ qr_spans.transpose(0, 2, 1) - svd_spans @ svd_spans.transpose(0, 2, 1)
    assert np.max(np.abs(gap)) <= 1e-13


@pytest.mark.parametrize("imap", [gallery.pad(gallery.sphere(2), extra=2),
                                  gallery.psi_lift(gallery.torus())], ids=["pad", "psi_lift"])
def test_fundamental_data_frames_are_the_anchored_fit_of_the_normal_spaces(imap):
    # projecting the seed frame off the tangent space is the G-projection
    # onto the normal space, so fundamental_data agrees with align_frames
    # on any basis of the normal spaces, up to the gauge of the seed frame
    jet = imap.jet(ChartGrid((9, 8), (0.04, 0.04), (0.3, 0.2)))
    fund = fundamental_data(jet, CFG)
    frames, pattern, lam = align_frames(normal_spans(jet), jet.ambient.gram, jet.chart.shape,
                                        cfg=CFG)
    assert fund.normal_pattern == pattern
    j = np.diag(pattern)
    gauge = j @ fund.normal_frame.transpose(0, 2, 1) @ jet.ambient.gram @ frames
    assert np.max(np.abs(gauge[0].T @ j @ gauge[0] - j)) <= 1e-12  # one Q in O(p, q)
    assert np.max(np.abs(fund.normal_frame @ gauge[0] - frames)) <= 1e-12
    assert fund.diagnostics["frame_step"] == pytest.approx(lam, abs=1e-12)


def test_fundamental_data_seeds_its_frames_from_the_svd_complement():
    # the seed frame fixes the gauge of every frame-dependent quantity; it
    # comes from the complement that the rank module's kernel decision gives
    # at the central point of the chart
    jet = gallery.psi_lift(gallery.torus()).jet(ChartGrid((9, 8), (0.04, 0.04), (0.3, 0.2)))
    fund = fundamental_data(jet, CFG)
    seed = central_point(jet.chart.shape, np.ones(jet.chart.npoints, dtype=bool))
    assert seed == 4 * 8 + 3  # (4, 3): the first of the two points nearest (4, 3.5)
    span = kernel_stack(tangent_rows(jet)[seed][None], DEFAULT_TOL, 1.0)[1][0, :, :jet.codim]
    frame0, pattern = _seed_frame(span, jet.ambient.gram, DEFAULT_TOL, seed)
    assert fund.normal_pattern == pattern
    assert np.max(np.abs(fund.normal_frame[seed] - frame0)) <= 1e-14


@pytest.mark.parametrize("imap", [gallery.sphere(2), gallery.psi_lift(gallery.torus())],
                         ids=["sphere", "psi-torus"])
def test_fundamental_data_on_a_2d_chart_sends_lapack_no_small_matrix(monkeypatch, imap):
    # the seed span is a rank-module kernel decision, in closed form for a
    # smaller side of 2; a chart with no point below the immersion screen
    # needs no other SVD
    jet = imap.jet(ChartGrid((9, 8), (0.04, 0.04), (0.9, 0.4)))
    sides = []
    real = np.linalg.svd

    def svd(a, *args, **kwargs):
        sides.append(min(np.shape(a)[-2:]))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    fundamental_data(jet, CFG)
    assert [side for side in sides if side <= 2] == []


def assert_same_alignment(spans, gram, shape, **kw):
    frames, pattern, lam = align_frames(spans, gram, shape, **kw)
    ref_frames, ref_pattern, ref_lam = anchored_align(spans, gram, shape, **kw)
    assert pattern == ref_pattern
    assert np.max(np.abs(frames - ref_frames)) <= 1e-12
    assert lam == pytest.approx(ref_lam, abs=1e-12)
    return pattern


def test_align_frames_matches_sweep_on_definite_normal_bundle():
    chart = ChartGrid((9, 8), (0.04, 0.04), (0.9, 0.4))
    jet = gallery.pad(gallery.sphere(2), extra=2).jet(chart)
    pattern = assert_same_alignment(normal_spans(jet), jet.ambient.gram, chart.shape, cfg=CFG)
    assert pattern == (1, 1, 1)


def test_align_frames_matches_sweep_on_mixed_pattern():
    chart = ChartGrid((8, 9), (0.03, 0.03), (0.9, 0.4))
    jet = gallery.psi_lift(gallery.sphere(2)).jet(chart)
    pattern = assert_same_alignment(normal_spans(jet), jet.ambient.gram, chart.shape, cfg=CFG)
    assert -1 in pattern and 1 in pattern


def test_align_frames_matches_sweep_with_per_point_gram(monkeypatch):
    grid = ChartGrid((5, 5, 5), (0.03,) * 3, (0.2, 0.3, 0.1))

    def fn(xs):
        x1, x2, x3 = xs
        return [x1, x2, x3, 0.5 * x1 * x1 + x2 * x3, x1 * x2 + 1.5 * x3 * x3 + 0.3 * x1 ** 3]

    fund = fundamental_data(ImmersionJet.from_function(fn, grid, ScalarProduct.euclidean(5)), CFG)
    calls = []

    def recording(spans, gram, shape, **kw):
        calls.append((spans, gram, shape, kw))
        return align_frames(spans, gram, shape, **kw)

    monkeypatch.setattr(conformal_calc, "align_frames", recording)
    assert conformal_calc.conformal_sff(fund, coordinate_distribution(fund, [0]), CFG).ell == 2
    spans, gram, shape, kw = calls[0]
    per_point = np.broadcast_to(gram, (spans.shape[0],) + gram.shape)
    assert_same_alignment(spans, per_point, shape, **kw)


def disc_mask(chart, centre, radius_sq):
    ij = np.stack(np.unravel_index(np.arange(chart.npoints), chart.shape), axis=1)
    return np.sum((ij - centre) ** 2, axis=1) <= radius_sq


def test_align_frames_matches_sweep_on_masked_seeded_region():
    chart = ChartGrid((11, 10), (0.03, 0.03), (0.8, 0.3))
    jet = gallery.pad(gallery.sphere(2), extra=1).jet(chart)
    mask = disc_mask(chart, [5, 4], 16)
    seed = int(np.ravel_multi_index((6, 3), chart.shape))
    assert_same_alignment(normal_spans(jet), jet.ambient.gram, chart.shape,
                          mask=mask, seed=seed, cfg=FLOOR_06)
    frames, _, _ = align_frames(normal_spans(jet), jet.ambient.gram, chart.shape,
                                mask=mask, seed=seed, cfg=FLOOR_06)
    assert not frames[~mask].any()


@pytest.mark.parametrize("imap", [gallery.pad(gallery.sphere(2), extra=1),
                                  gallery.psi_lift(gallery.sphere(2))], ids=["pad", "psi_lift"])
def test_frames_do_not_depend_on_the_region_around_the_seed(imap):
    # with the seed fixed, a frame is a function of its own fiber: a disc and
    # two islands around the same seed see the full chart's frames
    chart = ChartGrid((11, 10), (0.03, 0.03), (0.8, 0.3))
    jet = imap.jet(chart)
    spans, gram = normal_spans(jet), jet.ambient.gram
    seed = int(np.ravel_multi_index((5, 4), chart.shape))
    full, pattern, _ = align_frames(spans, gram, chart.shape, seed=seed, cfg=CFG)
    islands = disc_mask(chart, [5, 4], 2) | disc_mask(chart, [1, 8], 1)
    for mask in (disc_mask(chart, [5, 4], 9), islands):
        part, part_pattern, _ = align_frames(spans, gram, chart.shape, mask=mask, seed=seed,
                                             cfg=CFG)
        assert part_pattern == pattern
        assert np.max(np.abs(part[mask] - full[mask])) <= 1e-13


def test_sub_mask_frames_equal_the_full_mask_frames_bit_for_bit(monkeypatch):
    # each point stops at its own convergence, so a fit over a 19 x 19 block
    # of the 10^4 normal projections of psi-lift(torus) (k = 3, five steps
    # over all points) gives the full fit's frames exactly
    chart = ChartGrid((100, 100), (0.005, 0.005), (0.3, 0.2))
    fits, polar_fit = [], jets._polar_fit

    def recording(*args):
        fits.append((args, polar_fit(*args)))
        return fits[-1][1]

    monkeypatch.setattr(jets, "_polar_fit", recording)
    fundamental_data(gallery.psi_lift(gallery.torus()).jet(chart), CFG)
    (points, y, *rest), (frames, _) = fits[0]
    assert y.shape == (10000, 5, 3)
    ij = np.stack(np.unravel_index(points, chart.shape), axis=1)
    block = np.all((ij >= 40) & (ij <= 58), axis=1)
    assert block.sum() == 361
    part, _ = polar_fit(points[block], y[block], *rest)
    assert np.array_equal(part, frames[block])


def lorentz_isometry(gram, scale, seed):
    """L = exp(G^-1 K), K antisymmetric, so L^T G L = G."""
    skew = scale * np.random.default_rng(seed).standard_normal(gram.shape)
    gen = np.linalg.solve(gram, skew - skew.T)
    iso, term = np.eye(len(gram)), np.eye(len(gram))
    for i in range(1, 40):
        term = term @ gen / i
        iso = iso + term
    return iso


def test_swept_frames_commute_with_ambient_isometries():
    chart = ChartGrid((9, 8), (0.04, 0.04), (0.9, 0.4))
    jet = gallery.psi_lift(gallery.sphere(2)).jet(chart)
    gram, spans = jet.ambient.gram, normal_spans(jet)
    iso = lorentz_isometry(gram, 0.3, 2)
    assert np.max(np.abs(iso.T @ gram @ iso - gram)) <= 1e-14
    assert 1.5 <= np.max(np.abs(iso)) <= 2.0
    frames, pattern, lam = align_frames(spans, gram, chart.shape, cfg=CFG)
    # like every caller, hand the sweep an orthonormal basis of each moved fiber
    moved_spans = span_stack(iso @ spans, 10 * CFG.rank_tol)[1]
    moved, moved_pattern, moved_lam = align_frames(moved_spans, gram, chart.shape, cfg=CFG)
    assert moved_pattern == pattern
    # the gate reads the spectrum of A, which L leaves alone
    assert moved_lam == pytest.approx(lam, abs=1e-12)
    # moved = L F Q, Q the coordinates of `moved` in the frame L F
    j = np.diag(pattern)
    gauge = j @ (iso @ frames).transpose(0, 2, 1) @ gram @ moved
    assert np.max(np.abs(gauge[0].T @ j @ gauge[0] - j)) <= 1e-12  # Q in O(p, q)
    assert np.max(np.abs(gauge - gauge[0])) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_smallest_eigenvalue_matches_eigvals(k):
    # symmetric stacks (real spectra, clusters included) and J-symmetric
    # stacks J M with M symmetric, whose spectra have complex pairs
    rng = np.random.default_rng(k)
    m = rng.standard_normal((400, k, k))
    sym = m + m.transpose(0, 2, 1)
    sym[:50] = np.eye(k) + 1e-9 * sym[:50]  # near the seed, A = I
    sym[50:100] = np.diag(np.r_[0.3, np.ones(k - 1)])
    signs = np.where(np.arange(k) % 2, 1.0, -1.0)
    for a in (sym, signs[:, None] * sym, m):
        want = np.linalg.eigvals(a).real.min(axis=1)
        assert np.max(np.abs(jets._smallest_eigenvalue(a) - want)) <= 1e-7 * np.max(np.abs(a))


E0, E1, E2 = np.eye(3)
LORENTZ = np.diag([-1.0, 1.0, 1.0])
NULL_PAIR = ScalarProduct.lightcone(1).gram  # <E0, E0> = 0: E0 has a singular fiber Gram
TURNED = np.cos(1.2) * E1 + np.sin(1.2) * E2  # 1.2 rad away from E1: cos^2 1.2 = 0.131
SPACELIKE_TURN = np.cos(1.2) * E2 + np.sin(1.2) * (E0 + E1) / np.sqrt(2.0)


@pytest.mark.parametrize("gram, spans, first", [
    # point 0 falls below the floor, point 2 loses the timelike direction
    (LORENTZ, [[E0, TURNED], [E0, E1], [E1, E2]], "smallest eigenvalue"),
    # point 0 has a singular fiber Gram, point 2 falls below the floor
    (NULL_PAIR, [[E0], [E2], [SPACELIKE_TURN]], "degenerate fiber"),
    # point 0 falls below the floor, point 2 has a singular fiber Gram
    (NULL_PAIR, [[SPACELIKE_TURN], [E2], [E0]], "smallest eigenvalue"),
    # point 0 loses the timelike direction, point 2 falls below the floor
    (LORENTZ, [[E1, E2], [E0, E1], [E0, TURNED]], "polar fit lost rank"),
])
def test_first_failing_point_of_a_level_names_the_error(gram, spans, first):
    # a 3-point line seeded in the middle: the one fit holds points 0 and 2
    spans = np.array(spans).transpose(0, 2, 1)
    with pytest.raises(FrameAlignmentFailure) as ref:
        anchored_align(spans, gram, (3,), seed=1, cfg=FLOOR_05)
    assert str(ref.value).startswith(first)
    with np.errstate(all="raise"):  # later points of the fit stay silent
        with pytest.raises(FrameAlignmentFailure, match=f"^{str(ref.value)} at grid point 0$"):
            align_frames(spans, gram, (3,), seed=1, cfg=FLOOR_05)


def test_sweep_failure_names_its_flat_grid_index():
    # a 3x3 grid seeded at its centre 4: points 3 and 7 lie 1.2 rad away from
    # the seed fiber, and the first of them is named with its eigenvalue
    spans = np.stack([TURNED if q in (3, 7) else E1 for q in range(9)])[:, :, None]
    with pytest.raises(FrameAlignmentFailure,
                       match=r"^smallest eigenvalue 0\.131 below floor 0\.5 at grid point 3$"):
        align_frames(spans, np.eye(3), (3, 3), cfg=FLOOR_05)


def test_null_one_dimensional_fiber_cannot_seed_a_frame():
    # a dot-unit null vector: its 1x1 Gram is roundoff, far below the unit
    # scale of the metric, and must not be normalised into a huge frame
    span = np.array([[np.sqrt(0.5)], [np.sqrt(0.5)], [0.0], [0.0]])[None]
    gram = np.diag([-1.0, 1.0, 1.0, 1.0])
    count, b = span_stack(span[0], DEFAULT_TOL)
    b = b[:, :count]
    assert abs((b.T @ gram @ b).item()) < 1e-15
    with pytest.raises(FrameAlignmentFailure,
                       match="^degenerate fiber: cannot seed a frame at grid point 0$"):
        align_frames(span, gram, (1,), cfg=FLOOR_05)
    # the failure names the seed's grid point
    spans = np.concatenate([np.eye(4)[:, 2:3][None]] * 2 + [span])
    with pytest.raises(FrameAlignmentFailure,
                       match="^degenerate fiber: cannot seed a frame at grid point 2$"):
        align_frames(spans, gram, (3,), seed=2, cfg=FLOOR_05)


def test_rank_zero_seed_fiber_gives_empty_frames_once_every_fiber_is_empty():
    gram = np.diag([-1.0, 1.0, 1.0])
    for spans in (np.zeros((4, 3, 0)), np.zeros((4, 3, 2))):
        frames, pattern, lam = align_frames(spans, gram, (2, 2), cfg=CFG)
        assert frames.shape == (4, 3, 0) and pattern == () and lam == 1.0
    # the seed, grid point 0 of a 2x2 grid, is empty; grid point 3 is not
    spans = np.zeros((4, 3, 1))
    spans[3, 2, 0] = 1.0
    with pytest.raises(FrameAlignmentFailure,
                       match="^fiber rank 1 != 0 inside a constant-rank region at grid point 3$"):
        align_frames(spans, gram, (2, 2), cfg=CFG)


def count_linalg_calls(monkeypatch):
    count = [0]
    for name in ("svd", "qr", "eigh", "eigvalsh", "eig", "eigvals", "solve", "inv", "pinv",
                 "lstsq", "cholesky", "det", "matrix_rank"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, **kwargs):
            count[0] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return count


def count_fits(monkeypatch):
    fits = []
    real = jets._polar_fit

    def counted(points, *args, **kwargs):
        fits.append(len(points))
        return real(points, *args, **kwargs)

    monkeypatch.setattr(jets, "_polar_fit", counted)
    return fits


@pytest.mark.parametrize("imap", [gallery.pad(gallery.plane(2, 1)),
                                  gallery.psi_lift(gallery.plane(2, 1))], ids=["pad", "psi_lift"])
def test_fundamental_data_fits_every_frame_in_one_call(monkeypatch, imap):
    chart = ChartGrid((100, 100), (0.005, 0.005), (-0.25, -0.25))
    jet = imap.jet(chart)
    count, fits = count_linalg_calls(monkeypatch), count_fits(monkeypatch)
    fundamental_data(jet, CFG)
    assert fits == [chart.npoints]
    # the fit and the projection onto the normal spaces need no linalg call,
    # so the count does not grow with the grid; the immersion gate, the
    # metric gate and the tangent frames need none on a 2-D chart, and the
    # seed takes one on the padded plane and two on the cone lift
    assert count[0] <= 7


def test_align_frames_spans_only_the_seed_fiber(monkeypatch):
    chart = ChartGrid((100, 100), (0.005, 0.005), (-0.25, -0.25))
    jet = gallery.psi_lift(gallery.plane(2, 1)).jet(chart)
    calls = []

    def counted(vectors, *args, **kwargs):
        calls.append(vectors.shape)
        return span_stack(vectors, *args, **kwargs)

    monkeypatch.setattr(jets, "span_stack", counted)
    fits = count_fits(monkeypatch)
    align_frames(normal_spans(jet), jet.ambient.gram, chart.shape, cfg=CFG)
    # the fibers come ranked: the seed frame's own span is the only call
    assert calls == [(jet.m, jet.codim)]
    assert fits == [chart.npoints]


def parent_align(spans, gram, shape, mask=None, seed=None, tol=None, *, cfg):
    """The sweep that ranks every masked fiber in one stacked `span_stack`
    and fits the seed frame's G-projection onto its bases: the reference
    for `align_frames`, which takes the caller's bases as they come."""
    mask = np.ones(spans.shape[0], dtype=bool) if mask is None else mask
    points = np.flatnonzero(mask)
    seed = central_point(shape, mask) if seed is None else seed
    tol = 10 * cfg.rank_tol if tol is None else tol
    ranks, bases = span_stack(spans[mask], tol)
    gram = np.asarray(gram)
    gram_seed, gram = (gram[seed], gram[points]) if gram.ndim == 3 else (gram, gram)
    frame0, pattern = _seed_frame(spans[seed], gram_seed, tol, seed)
    k = frame0.shape[1]
    assert (ranks == k).all()
    if k == 0:
        return np.zeros((len(mask), spans.shape[1], 0)), (), 1.0
    fiber = bases[:, :, :k]
    fiber_t_gram = fiber.transpose(0, 2, 1) @ gram
    y = fiber @ np.linalg.solve(fiber_t_gram @ fiber, fiber_t_gram @ frame0)
    frames = np.zeros((len(mask), spans.shape[1], k))
    frames[points], lam = jets._polar_fit(points, y, gram, pattern, tol, cfg.align_floor)
    return frames, pattern, lam


def test_align_frames_matches_the_stacked_span_sweep_on_caller_bases(degenerate_extension_run):
    # on the orthonormal bases that the pipeline's stages, the kernel, the
    # fiber complement and the tube bundle hand over, taking the columns as
    # given moves a frame by roundoff only, and keeps its pattern
    calls = degenerate_extension_run["pipeline_align_frames"] + degenerate_extension_run["align_frames"]
    # the shared span, matched part, transfer bundle and rulings; the kernel,
    # its fiber part and the tube's empty bundle
    assert [args[0].shape[2] for args, _, _ in calls] == [2, 2, 2, 2, 4, 2, 0]
    for args, kw, (frames, pattern, lam) in calls:
        ref_frames, ref_pattern, ref_lam = parent_align(*args, **kw)
        assert pattern == ref_pattern
        assert np.max(np.abs(frames - ref_frames), initial=0.0) <= 1e-13
        assert lam == pytest.approx(ref_lam, abs=1e-13)


@pytest.mark.parametrize("spans", [
    np.array([[[1.0], [1.0], [0.0]]]),                 # a column of norm sqrt 2
    np.array([[[1.0, 0.6], [0.0, 0.8], [0.0, 0.0]]]),  # unit columns at 53 degrees
    np.array([[[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]]),  # a zero column before a unit one
    np.array([[[0.5], [0.0], [0.0]]]),                 # neither unit nor zero
])
def test_align_frames_refuses_columns_that_are_not_orthonormal_or_zero(spans):
    with pytest.raises(ValueError, match="^align_frames needs orthonormal-or-zero columns; "
                                         "grid point 0 has others$"):
        align_frames(spans, np.eye(3), (1,), cfg=CFG)


def stacked_svd_inputs(monkeypatch):
    """The shapes of the stacked arrays that `np.linalg.svd` receives from now on."""
    shapes = []
    real = np.linalg.svd

    def recorded(a, *args, **kwargs):
        if np.ndim(a) == 3:
            shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return shapes


def test_fundamental_data_runs_no_svd_on_the_tangent_rows(monkeypatch):
    chart = ChartGrid((20, 20), (0.01, 0.01), (0.9, 0.4))
    jet = gallery.psi_lift(gallery.sphere(2)).jet(chart)
    stacked = stacked_svd_inputs(monkeypatch)
    fundamental_data(jet, CFG)
    # the immersion gate certifies every point of this chart by its Gram
    # eigenvalues, and the normal frames are projections of the seed frame
    assert stacked == []


def callers_of(monkeypatch, name):
    """Names of the functions that call `jets.<name>` from now on."""
    callers = []
    real = getattr(jets, name)

    def recorded(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)

    monkeypatch.setattr(jets, name, recorded)
    return callers


def test_immersion_residual_runs_once_per_jet(monkeypatch):
    jet = ImmersionJet.from_function(sphere_fn(1.5), grid2(h=0.04, origin=(0.9, 0.2)), E3)
    screen_calls = callers_of(monkeypatch, "_immersion_ratios")
    svd_calls = callers_of(monkeypatch, "_svd")
    induced_metric(jet)
    induced_metric(jet)
    fundamental_data(jet, CFG)
    assert screen_calls.count("immersion_residual") == 1
    assert "_immersion_ratios" not in svd_calls  # every point passes the screen


def metric_stack(pattern, lam_min, size=40, seed=5):
    """(size, n, n) metrics of the given eigenvalue signs, turned by random
    rotations; point 3 has smallest |eigenvalue| lam_min, the others at least 0.1."""
    rng = np.random.default_rng(seed)
    n = len(pattern)
    q = np.linalg.qr(rng.normal(size=(size, n, n)))[0]
    lam = rng.uniform(0.1, 2.0, size=(size, n))
    lam[3, 0] = lam_min
    lam = lam * np.asarray(pattern, dtype=float)
    return (q * lam[:, None, :]) @ q.transpose(0, 2, 1)


def eigvalsh_rule_raises(metric):
    """The metric gate as one `eigvalsh` over the chart decides it."""
    vals = np.linalg.eigvalsh(metric)
    neg = np.sum(vals[0] < 0)
    return bool(np.any(np.sum(vals < 0, axis=1) != neg) or np.any(np.abs(vals) < 1e-12))


@pytest.mark.parametrize("pattern", [(1, 1), (1, 1, 1), (1, 1, 1, 1), (-1, 1), (1, -1, 1)])
@pytest.mark.parametrize("lam_min, raises", [(5e-13, True), (5e-12, False)])
def test_metric_gate_degenerates_below_1e_12(pattern, lam_min, raises):
    metric = metric_stack(pattern, lam_min)
    assert eigvalsh_rule_raises(metric) == raises
    if raises:
        with pytest.raises(NotImmersion):
            jets._tangent_frames(metric)
    else:
        eta, frame, inverse = jets._tangent_frames(metric)
        assert sorted(eta) == sorted(pattern)
        assert np.allclose(frame.transpose(0, 2, 1) @ metric @ frame, np.diag(eta), atol=1e-9)
        assert np.allclose(frame @ inverse, np.eye(len(pattern)), atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(pattern=st.sampled_from([(1, 1), (1, 1, 1), (-1, 1), (1, -1, 1)]),
       exponent=st.floats(-13.5, -10.5), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       seed=st.integers(0, 2**32 - 1))
def test_metric_gate_decides_as_eigvalsh_near_its_threshold(pattern, exponent, scale, seed):
    metric = scale * metric_stack(pattern, 10.0 ** exponent / scale, seed=seed)
    raises = eigvalsh_rule_raises(metric)
    try:
        jets._tangent_frames(metric)
    except NotImmersion:
        assert raises
    else:
        assert not raises


def eigen_calls(monkeypatch):
    """Names of the `np.linalg` eigen solvers called from now on, and the
    number of matrices each got."""
    calls = []
    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        real = getattr(np.linalg, name)

        def recorded(a, *args, _real=real, _name=name, **kwargs):
            calls.append((_name, int(np.prod(np.shape(a)[:-2]))))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def signed_metric_stack(signs, size=40, seed=5):
    """(size, n, n) metrics R diag(signs) R^T with well-conditioned random
    lower-triangular R: every point has the signed Cholesky pattern `signs`."""
    rng = np.random.default_rng(seed)
    n = len(signs)
    r = np.tril(rng.uniform(-0.3, 0.3, size=(size, n, n)), -1) + np.eye(n)
    return (r * np.asarray(signs, dtype=float)) @ r.transpose(0, 2, 1)


def test_an_indefinite_metric_takes_its_frames_from_the_signed_factor(monkeypatch):
    # the pivots' pattern (+, -, +) is the same at every point: no eigen
    # solver runs, and the negative column comes first, as in eigh's pattern
    metric = signed_metric_stack((1, -1, 1))
    calls = eigen_calls(monkeypatch)
    eta, frame, inverse = jets._tangent_frames(metric)
    assert calls == []
    assert eta == (-1, 1, 1)
    assert np.allclose(frame.transpose(0, 2, 1) @ metric @ frame, np.diag(eta), atol=1e-12)
    assert np.allclose(inverse @ frame, np.eye(3), atol=1e-12)


def test_an_indefinite_metric_whose_pivot_pattern_varies_takes_one_eigh(monkeypatch):
    metric = signed_metric_stack((1, -1, 1))
    metric[7] = signed_metric_stack((-1, 1, 1), size=1)[0]  # the same inertia, other pivots
    calls = eigen_calls(monkeypatch)
    eta, frame, inverse = jets._tangent_frames(metric)
    assert calls == [("eigh", len(metric))]
    assert eta == (-1, 1, 1)
    assert np.allclose(frame.transpose(0, 2, 1) @ metric @ frame, np.diag(eta), atol=1e-12)
    assert np.allclose(inverse @ frame, np.eye(3), atol=1e-12)


def lorentz_metrics(corner: np.ndarray, size=12):
    """(size, 3, 3) Lorentzian metrics diag(-1, 1, 1) turned in their
    spacelike plane, whose point 3 has `corner` (2, 2) as its spacelike block
    before the turn; the pivots keep the pattern (-, +, +) wherever they
    are nonzero."""
    metric = np.broadcast_to(np.diag([-1.0, 1.0, 1.0]), (size, 3, 3)).copy()
    metric[3, 1:, 1:] = corner
    angle = np.linspace(0.1, 1.2, size)
    turn = np.broadcast_to(np.eye(3), (size, 3, 3)).copy()
    turn[:, 1, 1] = turn[:, 2, 2] = np.cos(angle)
    turn[:, 2, 1], turn[:, 1, 2] = np.sin(angle), -np.sin(angle)
    return turn @ metric @ turn.transpose(0, 2, 1)


@pytest.mark.parametrize("offset", [-0.5, 0.5])
def test_a_lorentz_metric_near_the_degenerate_threshold_takes_eigh(monkeypatch, offset):
    # an eigenvalue within the slack 2 _METRIC_ROUNDOFF ||g||_F of
    # METRIC_DEGENERATE, on either side: the factor has no margin there
    slack = 2 * jets._METRIC_ROUNDOFF * np.sqrt(3.0)
    lam = jets.METRIC_DEGENERATE + offset * slack
    metric = lorentz_metrics(np.diag([lam, 1.0]))
    raises = eigvalsh_rule_raises(metric)
    assert raises == (offset < 0)
    calls = eigen_calls(monkeypatch)
    try:
        eta = jets._tangent_frames(metric)[0]
    except NotImmersion:
        assert raises
    else:
        assert not raises
        assert eta == (-1, 1, 1)
    assert calls[0] == ("eigh", len(metric))


def test_a_zero_leading_minor_takes_eigh(monkeypatch):
    # g_00 = 0 at point 3: the unpivoted factor's first pivot vanishes
    metric = lorentz_metrics(np.eye(2))
    metric[3] = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    assert not eigvalsh_rule_raises(metric)
    calls = eigen_calls(monkeypatch)
    eta, frame, inverse = jets._tangent_frames(metric)
    assert calls == [("eigh", len(metric))]
    assert eta == (-1, 1, 1)
    assert np.allclose(frame.transpose(0, 2, 1) @ metric @ frame, np.diag(eta), atol=1e-12)
    assert np.allclose(inverse @ frame, np.eye(3), atol=1e-12)


def test_fundamental_data_of_a_definite_chart_sends_no_metric_stack_to_lapack(monkeypatch):
    chart = ChartGrid((100, 100), (0.005, 0.005), (-0.25, -0.25))
    jet = gallery.pad(gallery.plane(2, 1)).jet(chart)
    stacked = []
    for name in ("eigvalsh", "eigh", "cholesky", "inv"):
        real = getattr(np.linalg, name)

        def recorded(a, *args, _real=real, _name=name, **kwargs):
            if np.ndim(a) == 3:
                stacked.append(_name)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    fund = fundamental_data(jet, CFG)
    assert stacked == []
    assert fund.tangent_pattern == (1, 1)
    frame = fund.tangent_frame
    assert np.allclose(frame.transpose(0, 2, 1) @ fund.metric @ frame, np.eye(2), atol=1e-12)


def test_a_10k_point_graph4_chart_sends_no_stacked_eigen_solve_from_jets(monkeypatch):
    from conftest import record_jets_eigen

    doc = {"analysis": "single", "immersion": {"builtin": "graph", "params": {"n": 4}},
           "grid": {"shape": [10] * 4, "spacing": [0.02] * 4, "origin": [-0.09] * 4},
           "nullity": {"s_values": [1], "points": "center"}}
    calls = []
    record_jets_eigen(monkeypatch, calls)
    assert run_manifest(doc)[1] == 0
    assert calls == []


def test_one_column_distribution_is_lapacks_qr():
    grid = ChartGrid((7, 7, 5), (0.05, 0.05, 0.05), (0.0, -0.1, -0.1))
    fund = fundamental_data(ImmersionJet.from_function(cylinder3_fn, grid, E4), CFG)
    for axis in range(3):
        basis = coordinate_distribution(fund, [axis]).basis
        ref = np.linalg.qr(fund.tangent_frame_inv[:, :, [axis]])[0]
        assert np.max(np.abs(basis - ref)) <= 1e-15  # LAPACK's signs too


def jet_with_ratios(ratios):
    """A jet into R^3 over a (len(ratios), 1) chart whose differential at
    point q has singular values 1 and ratios[q], turned by fixed rotations."""
    rng = np.random.default_rng(3)
    left = np.linalg.qr(rng.normal(size=(2, 2)))[0]
    right = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    d1 = np.stack([left @ np.diag([1.0, r]) @ right[:2] for r in ratios])
    p = len(ratios)
    chart = ChartGrid((p, 1), (0.1, 0.1), (0.0, 0.0))
    return ImmersionJet(chart, E3, np.zeros((p, 3)), d1, np.zeros((p, 2, 2, 3)))


@pytest.mark.parametrize("ratio, immersed", [(5e-8, False), (2e-7, True), (1e-4, True)])
def test_immersion_gate_decides_near_its_tolerance(ratio, immersed):
    jet = jet_with_ratios([ratio])
    if immersed:
        jet.require_immersion()
    else:
        with pytest.raises(NotImmersion):
            jet.require_immersion()


def test_immersion_gate_runs_the_svd_only_below_its_screen(monkeypatch):
    jet = jet_with_ratios([0.5, 1e-4, 0.9])
    shapes = []
    real = jets._svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(jets, "_svd", recorded)
    residual = jet.immersion_residual()
    assert jets.IMMERSION_SCREEN == 1e-3
    assert shapes == [(1, 2, 3)]  # the one point at or below the screen
    sv = real(jet.d1[1:2])
    assert residual == sv[0, -1] / sv[0, 0]  # bit for bit
    # both carry errors of order u sigma_1: within 1e-15 relative to sigma_1 = 1
    # (5e-18 apart here), not relative to the residual sigma_2 / sigma_1 = 1e-4
    lapack = np.linalg.svd(jet.d1[1:2], compute_uv=False)
    assert abs(residual - lapack[0, -1] / lapack[0, 0]) <= 1e-15 * lapack[0, 0]


@pytest.mark.parametrize("imap", [gallery.sphere(2), gallery.graph(n=4),
                                  gallery.psi_lift(gallery.torus())],
                         ids=["sphere", "graph4", "psi-torus"])
def test_screened_immersion_ratios_bound_the_svd_ratio(monkeypatch, imap):
    jet = imap.jet(gallery.default_chart(imap))
    shapes = stacked_svd_inputs(monkeypatch)
    ratios = jets._immersion_ratios(jet.d1)
    assert shapes == []  # every point certified by the screen
    monkeypatch.undo()
    sv = np.linalg.svd(jet.d1, compute_uv=False)
    exact = sv[:, -1] / sv[:, 0]
    assert np.all(ratios > jets.IMMERSION_SCREEN)
    if jet.n == 2:  # the closed-form eigenvalue ratio, within roundoff of the SVD's
        assert np.max(np.abs(ratios - exact) / exact) <= 1e-9
    else:  # a lower bound
        assert np.all(ratios <= exact)
    residual = jet.immersion_residual()
    assert residual == np.min(ratios)
    assert (residual > jets.IMMERSION_TOL) == (np.min(exact) > jets.IMMERSION_TOL)


def jet_with_spectra(ratios, n, seed=11):
    """A jet into R^(n+1) over a (len(ratios), 1, ..., 1) chart whose
    differential at point q has singular values 1, ratios[q] and n - 2
    between them, turned by random rotations."""
    rng = np.random.default_rng(seed)
    p = len(ratios)
    sv = np.empty((p, n))
    sv[:, 0], sv[:, -1] = 1.0, ratios
    sv[:, 1:-1] = np.asarray(ratios)[:, None] ** rng.uniform(0, 1, size=(p, n - 2))
    left = np.linalg.qr(rng.normal(size=(p, n, n)))[0]
    right = np.linalg.qr(rng.normal(size=(p, n + 1, n + 1)))[0][..., :n]
    d1 = (left * sv[:, None, :]) @ right.transpose(0, 2, 1)
    chart = ChartGrid((p,) + (1,) * (n - 1), (0.1,) * n, (0.0,) * n)
    ambient = ScalarProduct.euclidean(n + 1)
    return ImmersionJet(chart, ambient, np.zeros((p, n + 1)), d1, np.zeros((p, n, n, n + 1)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_immersion_screen_decides_as_the_svd(n):
    tol, screen = jets.IMMERSION_TOL, jets.IMMERSION_SCREEN
    near = np.array([1 - 1e-6, 1 - 1e-9, 1 + 1e-9, 1 + 1e-6])
    ratios = np.concatenate([np.geomspace(1e-9, 1.0, 37), tol * near, screen * near,
                             [3e-3, 1e-2, 3e-2]])
    jet = jet_with_spectra(ratios, n)
    sv = indefinite_linalg._svd(jet.d1)  # the rank decisions' SVD: closed form for n = 2
    exact = sv[:, -1] / sv[:, 0]
    got = jets._immersion_ratios(jet.d1)
    assert np.array_equal(got > tol, exact > tol)  # each point's decision
    certified = got > screen
    if n == 2:
        assert np.max(np.abs(got - exact) / exact) <= 1e-9
    else:
        assert np.all(got[certified] <= exact[certified])
    # the points left uncertified get the SVD ratio
    assert np.array_equal(got[~certified], exact[~certified])
    for lo, hi in ((0, 37), (37, 41), (41, 45)):  # the chart's residual decides as the SVD's
        part = ImmersionJet(jet.chart, jet.ambient, jet.values, jet.d1[lo:hi], jet.d2)
        assert (part.immersion_residual() > tol) == (np.min(exact[lo:hi]) > tol)


def test_closed_form_jet_of_a_10k_point_graph_stays_small():
    # the 2-jet's d2 is 6.4 MB; 24 MB leaves room for the component jets
    # but not for a third-order tensor (25.6 MB for d3 alone)
    chart = ChartGrid((10,) * 4, (0.02,) * 4, (-0.09,) * 4)
    tracemalloc.start()
    try:
        gallery.graph(n=4).jet(chart)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24e6

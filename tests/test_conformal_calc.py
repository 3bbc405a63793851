import numpy as np
import pytest

from confpair import conformal_calc, jet3
from confpair.conformal_calc import (
    conformal_s_nullity,
    conformal_sff,
    is_conformally_ruled,
    rigidity_criterion,
    rigidity_thresholds,
    s_nullity_at,
)
from confpair.errors import HypothesisOutOfRange
from confpair.indefinite_linalg import ScalarProduct
from confpair.jets import (ChartGrid, ImmersionJet, PipelineConfig, coordinate_distribution,
                           fundamental_data)

E3 = ScalarProduct.euclidean(3)
E4 = ScalarProduct.euclidean(4)
CFG = PipelineConfig()


def cylinder3(xs):
    x1, x2, x3 = xs
    return [jet3.cos(x1), jet3.sin(x1), x2, x3]


def cylinder3_jet():
    grid = ChartGrid((7, 7, 5), (0.04, 0.04, 0.04), (0.1, -0.12, -0.08))
    return ImmersionJet.from_function(cylinder3, grid, E4)


def sphere3_jet(radius=1.0):
    grid = ChartGrid((5, 5, 5), (0.04, 0.04, 0.04), (0.9, 0.9, 0.4))

    def fn(xs):
        t1, t2, t3 = xs
        return [
            radius * jet3.cos(t1),
            radius * jet3.sin(t1) * jet3.cos(t2),
            radius * jet3.sin(t1) * jet3.sin(t2) * jet3.cos(t3),
            radius * jet3.sin(t1) * jet3.sin(t2) * jet3.sin(t3),
        ]

    return ImmersionJet.from_function(fn, grid, E4)


def graph_jet(n=3, curvatures=(1.0, 2.2, 3.7), cubic=0.3):
    grid = ChartGrid((5,) * n, (0.03,) * n, (-0.06,) * n)

    def fn(xs):
        h = jet3.constant(0.0, xs[0])
        for c, x in zip(curvatures, xs):
            h = h + 0.5 * float(c) * x * x
        h = h + float(cubic) * xs[0] * xs[0] * xs[0]
        return list(xs) + [h]

    return ImmersionJet.from_function(fn, grid, ScalarProduct.euclidean(n + 1))


def test_conformal_sff_vanishes_for_affine_and_umbilic():
    grid = ChartGrid((5, 5), (0.05, 0.05), (0.0, 0.0))

    def plane(xs):
        x, y = xs
        return [x, y, jet3.constant(0.0, x)]

    jet = ImmersionJet.from_function(plane, grid, E3)
    fund = fundamental_data(jet, CFG)
    dist = coordinate_distribution(fund, [0])
    csff = conformal_sff(fund, dist, CFG)
    assert csff.ell == 0
    assert np.max(np.abs(csff.beta)) < 1e-12

    sph = sphere3_jet(radius=2.0)
    fund = fundamental_data(sph, CFG)
    full = coordinate_distribution(fund, [0, 1, 2])
    csff = conformal_sff(fund, full, CFG)
    assert csff.ell == 0  # umbilic: alpha = <,> eta exactly
    assert np.max(np.abs(csff.beta)) < 1e-9


def test_conformal_sff_ranks_and_sweeps_at_its_config(monkeypatch):
    sweeps = []
    real = conformal_calc.align_frames

    def spy(*args, **kwargs):
        sweeps.append(kwargs)
        return real(*args, **kwargs)

    def graph(xs):
        x1, x2, x3 = xs
        return [x1, x2, x3, 0.5 * x1 * x1 + x2 * x3, x1 * x2 + 1.5 * x3 * x3 + 0.3 * x1 ** 3]

    monkeypatch.setattr(conformal_calc, "align_frames", spy)
    grid = ChartGrid((5, 5, 5), (0.03,) * 3, (0.2, 0.3, 0.1))
    fund = fundamental_data(ImmersionJet.from_function(graph, grid, ScalarProduct.euclidean(5)), CFG)
    cfg = PipelineConfig(rank_tol=2e-9, align_floor=0.6)
    assert conformal_sff(fund, coordinate_distribution(fund, [0]), cfg).ell == 2
    assert sweeps == [{"cfg": cfg}]  # ranked at 10 cfg.rank_tol and gated at its floor


def test_conformal_sff_on_cone_rulings():
    # cone over a circle: rays are rulings with eta = 0 and beta = alpha
    grid = ChartGrid((7, 7), (0.05, 0.05), (0.8, 0.2))
    rho = 0.6
    height = np.sqrt(1 - rho**2)

    def cone(xs):
        t, w = xs
        return [t * rho * jet3.cos(w), t * rho * jet3.sin(w), t * height]

    jet = ImmersionJet.from_function(cone, grid, E3)
    fund = fundamental_data(jet, CFG)
    rays = coordinate_distribution(fund, [0])
    csff = conformal_sff(fund, rays, CFG)
    # beta(Z, .) = alpha(Z, .) = 0 for radial Z
    dd = np.einsum("pau,pabt->pubt", rays.basis, csff.beta)
    assert np.max(np.abs(dd)) < 1e-10
    assert csff.ell == 0


def test_conformal_sff_containment_projects_with_the_span_basis(monkeypatch, degenerate_pair_region):
    # on the degenerate pair's left side, the span's orthonormal basis gives
    # the projector that the pseudo-inverse of its swept frames gives
    fund = degenerate_pair_region.joint.left
    spans = []
    real = conformal_calc.span_stack

    def recorded(*args):
        spans.append(real(*args))
        return spans[-1]

    monkeypatch.setattr(conformal_calc, "span_stack", recorded)
    dist = coordinate_distribution(fund, [0, 1])
    csff = conformal_sff(fund, dist, CFG)
    assert (csff.ell, fund.normal_rank) == (1, 4)
    ((_, bases),) = spans
    span = bases[:, :, :1]
    proj = csff.span_frames @ np.linalg.pinv(csff.span_frames)
    assert np.max(np.abs(span @ np.swapaxes(span, 1, 2) - proj)) <= 1e-13
    paired = np.einsum("pau,pabt->pubt", dist.basis, csff.beta)
    containment = np.max(np.abs(paired - paired @ np.swapaxes(proj, 1, 2)[:, None]))
    assert csff.nullity_containment == pytest.approx(containment, abs=1e-13)


def test_is_conformally_ruled_verdicts():
    cyl = cylinder3_jet()
    fund = fundamental_data(cyl, CFG)
    rulings = coordinate_distribution(fund, [1, 2])
    verdict = is_conformally_ruled(fund, rulings)
    assert verdict.ruled
    assert verdict.umbilic_residual < 1e-10

    sph = sphere3_jet()
    fund_s = fundamental_data(sph, CFG)
    anydist = coordinate_distribution(fund_s, [0, 1])
    assert is_conformally_ruled(fund_s, anydist).ruled  # totally umbilic

    graph = graph_jet()
    fund_g = fundamental_data(graph, CFG)
    coord = coordinate_distribution(fund_g, [0, 1])
    verdict = is_conformally_ruled(fund_g, coord)
    assert not verdict.ruled
    assert verdict.umbilic_residual > 1e-2


def test_nullity_umbilic_sphere_is_full():
    sph = sphere3_jet()
    fund = fundamental_data(sph, CFG)
    reports = conformal_s_nullity(fund, 1, points=[fund.jet.chart.center_index()], cfg=CFG)
    assert reports[0][1].value == 3


def test_nullity_cylinder_is_n_minus_one():
    cyl = cylinder3_jet()
    fund = fundamental_data(cyl, CFG)
    reports = conformal_s_nullity(fund, 1, points=[0, fund.jet.chart.center_index()], cfg=CFG)
    for _, rep in reports:
        assert rep.value == 2


def test_nullity_generic_graph_is_one():
    graph = graph_jet()
    fund = fundamental_data(graph, CFG)
    reports = conformal_s_nullity(fund, 1, points=[fund.jet.chart.center_index()], cfg=CFG)
    assert reports[0][1].value == 1


def test_nullity_certificate_reproduces_value():
    rng = np.random.default_rng(3)
    alpha = rng.normal(size=(4, 4, 2))
    alpha = alpha + alpha.transpose(1, 0, 2)
    rep = s_nullity_at(alpha, 2, seed=5)
    from confpair.conformal_calc import _kernel_dim

    assert _kernel_dim(alpha, rep.certificate_subspace, rep.certificate_vector) == rep.value


def test_nullity_s2_finds_planted_joint_eigenspace():
    # commuting diagonal pair: joint eigenvalue pair (1, 2) has multiplicity 3
    a1 = np.diag([1.0, 1.0, 1.0, -2.0, 0.5])
    a2 = np.diag([2.0, 2.0, 2.0, 1.0, -1.0])
    alpha = np.stack([a1, a2], axis=-1)
    rep = s_nullity_at(alpha, 2, seed=0)
    assert rep.value == 3


def test_rigidity_thresholds_and_extra_check():
    th = rigidity_thresholds(13, 2, 8)
    assert th["per_s"] == {1: 13 + 2 - 8 - 2 - 1, 2: 13 + 2 - 8 - 4 - 1}
    assert th["extra_nu1"] == 13 - 2 * 6 + 1  # engaged since q >= p + 5
    th2 = rigidity_thresholds(10, 2, 3)
    assert th2["extra_nu1"] is None
    with pytest.raises(HypothesisOutOfRange):
        rigidity_thresholds(10, 6, 6)
    with pytest.raises(HypothesisOutOfRange):
        rigidity_thresholds(8, 2, 7)  # q > n - p - 3


def test_rigidity_criterion_sphere_fails_graph_passes():
    # n = 6 hypersurfaces, q = 1: threshold nu_1 <= n - q - 2·1 - 1 + p = 3
    grid = ChartGrid((3,) * 6, (0.05,) * 6, (0.8,) * 6)

    def sphere6(xs):
        comps = []
        running = jet3.constant(1.0, xs[0])
        for x in xs:
            comps.append(running * jet3.cos(x))
            running = running * jet3.sin(x)
        comps.append(running)
        return comps

    jet = ImmersionJet.from_function(sphere6, grid, ScalarProduct.euclidean(7))
    rep = rigidity_criterion(fundamental_data(jet, CFG), q=1, points=[0], cfg=CFG)
    assert rep.nu_lower_bounds[1] == 6
    assert rep.conclusive_violation and not rep.satisfied

    graph = graph_jet(n=6, curvatures=(1.0, 1.7, 2.5, 3.2, 4.1, 5.3), cubic=0.2)
    rep = rigidity_criterion(fundamental_data(graph, CFG), q=1, points=[0], cfg=CFG)
    assert rep.nu_lower_bounds[1] == 1
    assert rep.satisfied and not rep.conclusive_violation


def test_random_direction_never_beats_the_sweep_for_s_equal_one():
    rng = np.random.default_rng(12)
    for trial in range(20):
        alpha = rng.normal(size=(4, 4, 2))
        alpha = alpha + alpha.transpose(1, 0, 2)
        rep = s_nullity_at(alpha, 1, seed=trial)
        from confpair.conformal_calc import _eig_multiplicity

        best_random = 0
        for _ in range(200):
            xi = rng.normal(size=2)
            xi /= np.linalg.norm(xi)
            mult, _ = _eig_multiplicity(np.einsum("ijc,c->ij", alpha, xi))
            best_random = max(best_random, mult)
        assert best_random <= rep.value

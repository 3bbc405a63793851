import json

import numpy as np
import pytest

from confpair import jet3, jets, pair_pipeline
from confpair.cli import run_manifest
from confpair.errors import HypothesisOutOfRange, NotIsometricPair, SplitFailure
from confpair.gallery import MANIFESTS
from confpair.indefinite_linalg import ScalarProduct
from confpair.jets import ChartGrid, ImmersionJet, PipelineConfig, induced_metric
from confpair.lightcone import isometric_representative
from confpair.pair_pipeline import (
    analyze_pair,
    build_joint,
    degeneracy_test,
    ruling_dimension_bound,
    verify_compatibility,
)

E3 = ScalarProduct.euclidean(3)
E4 = ScalarProduct.euclidean(4)
CFG = PipelineConfig()


def rotation4(seed=11):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    return q


def sphere2_fn(radius=2.0):
    def fn(xs):
        th, ph = xs
        return [
            radius * jet3.cos(th),
            radius * jet3.sin(th) * jet3.cos(ph),
            radius * jet3.sin(th) * jet3.sin(ph),
        ]

    return fn


def congruent_pair(n_pts=9, h=0.015):
    grid = ChartGrid((n_pts, n_pts), (h, h), (0.9, 0.4))
    jf = ImmersionJet.from_function(sphere2_fn(), grid, E3)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    shift = np.array([0.3, -1.0, 2.0])

    def moved(xs):
        comps = sphere2_fn()(xs)
        return [
            sum(float(q[r, c]) * comps[c] for c in range(3)) + float(shift[r])
            for r in range(3)
        ]

    jg = ImmersionJet.from_function(moved, grid, E3)
    return jf, jg


def flat_pair(n_pts=7, h=0.03):
    grid = ChartGrid((n_pts, n_pts, 5), (h, h, h), (0.1, -0.1, -0.06))

    def plane(xs):
        x1, x2, x3 = xs
        return [x1, x2, x3, jet3.constant(0.0, x1)]

    def cyl(xs):
        x1, x2, x3 = xs
        return [jet3.cos(x1), jet3.sin(x1), x2, x3]

    return (
        ImmersionJet.from_function(plane, grid, E4),
        ImmersionJet.from_function(cyl, grid, E4),
    )


def degenerate_reflection_pair(n_pts=7, h=0.02):
    """Cylinder vs the cone lift of a flat reflection of the same chart."""
    grid = ChartGrid((n_pts, n_pts, 5), (h, h, h), (0.3, -0.06, -0.04))

    def cyl(xs):
        x1, x2, x3 = xs
        return [jet3.cos(x1), jet3.sin(x1), x2, x3]

    jf = ImmersionJet.from_function(cyl, grid, E4)

    def reflected(xs):
        x1, x2, x3 = xs
        return [-x1, x2, x3]

    jbar = ImmersionJet.from_function(reflected, grid, E3)
    jhat, _ = isometric_representative(jbar, induced_metric(jf), cfg=CFG)
    return jf, jbar, jhat


def test_build_joint_rejects_nonisometric():
    jf, _ = flat_pair()

    def sphere_like(xs):
        x1, x2, x3 = xs
        return [2.0 * x1, x2, x3, jet3.constant(0.0, x1)]

    bad = ImmersionJet.from_function(sphere_like, jf.chart, E4)
    with pytest.raises(NotIsometricPair):
        build_joint(jf, bad, CFG)


def test_degeneracy_congruent_pair_is_nondegenerate():
    jf, jg = congruent_pair()
    joint = build_joint(jf, jg, CFG)
    deg = degeneracy_test(joint, CFG)
    assert not deg.degenerate.any()
    assert set(deg.omega_rank.tolist()) == {1}  # totally null graph of the congruence


def test_degeneracy_flat_pair_trivial_radical():
    jf, jg = flat_pair()
    deg = degeneracy_test(build_joint(jf, jg, CFG), CFG)
    assert set(deg.omega_rank.tolist()) == {0}
    assert not deg.degenerate.any()


def test_degeneracy_reflection_pair_finds_witness():
    jf, jbar, jhat = degenerate_reflection_pair()
    joint = build_joint(jf, jhat, CFG)
    deg = degeneracy_test(joint, CFG)
    assert deg.degenerate.all()
    assert set(deg.left_kernel_rank.tolist()) == {1}
    assert np.allclose(deg.witness_pairing, 1.0)
    # the rescaled witness pairs to one with the right position vector
    pos = joint.right.normal_coordinates(joint.right.jet.values)
    vals = np.einsum("pt,t,pt->p", pos, joint.right.normal_eps, deg.witness)
    assert np.max(np.abs(vals - 1.0)) < 1e-9


def test_congruent_pair_full_pipeline():
    jf, jg = congruent_pair()
    analysis = analyze_pair(jf, jg, CFG)
    assert len(analysis.regions) == 1
    st = analysis.regions[0]
    assert st.branch == "nondegenerate"
    assert st.ranks["omega"] == 1
    assert st.ranks["private_left"] == 0
    assert st.ranks["private_right"] == 0
    assert st.ranks["theta"] == 2
    assert st.ranks["shared_span"] == 1
    assert st.ranks["matched_span"] == 1
    assert st.ranks["transfer_bundle"] == 1  # full normal bundles (p = 1)
    assert st.ranks["rulings"] == 2  # D = TM
    assert st.residuals["identification_isometry"] < 1e-9
    assert st.residuals["shared_sff_match"] < 1e-9
    assert st.residuals["omega_isotropy"] < 1e-10
    compat = verify_compatibility(st)
    assert compat["transfer_preserves_sff"] < 1e-8
    assert compat["transfer_parallel"] < 1e-8
    assert compat["bundle_parallel_along_rulings"] < 1e-8


def test_flat_pair_pipeline_rulings():
    jf, jg = flat_pair()
    analysis = analyze_pair(jf, jg, CFG)
    assert len(analysis.regions) == 1
    st = analysis.regions[0]
    assert st.branch == "nondegenerate"
    assert st.ranks["omega"] == 0
    assert st.ranks["private_right"] == 1
    assert st.ranks["theta"] == 2
    assert st.ranks["transfer_bundle"] == 0
    assert st.ranks["rulings"] == 2  # the common straight rulings
    # rulings kill the first coordinate direction
    rc = np.einsum("pia,pau->piu", st.left.tangent_frame, st.rulings)
    assert np.max(np.abs(rc[:, 0, :])) < 1e-8


def test_degenerate_pipeline_claims_and_ranks():
    jf, jbar, jhat = degenerate_reflection_pair()
    analysis = analyze_pair(jf, jhat, CFG)
    assert len(analysis.regions) == 1
    st = analysis.regions[0]
    assert st.branch == "degenerate"
    assert st.left.jet.ambient.pseudo_pair  # the region runs on the lifted left map
    assert st.ranks["omega"] == 2
    assert st.ranks["private_left"] == 1
    assert st.ranks["private_right"] == 0
    assert st.ranks["theta"] == 2
    assert st.ranks["shared_span"] == 2
    assert st.ranks["matched_span"] == 2
    assert st.ranks["transfer_bundle"] == 2
    assert st.ranks["rulings"] == 2
    for name, claim in st.claims.items():
        assert claim["passed"], f"claim {name} failed: {claim}"
    assert st.claims["shared_span_lorentzian"]["signature"] == (1, 1, 0)
    assert st.claims["cone_position_sff_identity"]["residual"] < 1e-6
    compat = verify_compatibility(st)
    assert compat["transfer_preserves_sff"] < 1e-7
    assert compat["transfer_parallel"] < 1e-7
    assert compat["bundle_parallel_along_rulings"] < 1e-7


def test_corrupted_identification_blows_up_sff_residual():
    jf, jg = congruent_pair()
    analysis = analyze_pair(jf, jg, CFG)
    st = analysis.regions[0]
    base = verify_compatibility(st)["transfer_preserves_sff"]
    st.identification = -st.identification  # a sign flip on a line bundle
    corrupted = verify_compatibility(st)["transfer_preserves_sff"]
    assert corrupted > max(base, 1e-12) * 1e3


def test_ruling_dimension_bound_arithmetic():
    chk = ruling_dimension_bound("nondegenerate", n=8, p=2, q=2, a=0, b=0, ell=1, d=7, r=0)
    assert chk.rhs == 7 and chk.passed and chk.slack == 0
    chk = ruling_dimension_bound("nondegenerate", n=7, p=2, q=2, a=0, b=0, ell=0, d=3, r=0)
    assert chk.rhs == 3 and chk.passed
    chk = ruling_dimension_bound("degenerate", n=9, p=1, q=1, ell=2, d=7, r=2, a=0, b=1)
    assert chk.rhs == 9 and chk.lhs == 9 and chk.passed
    with pytest.raises(HypothesisOutOfRange):
        ruling_dimension_bound("nondegenerate", n=4, p=2, q=2, a=0, b=0, ell=0, d=1, r=0)


def test_borderline_index_shift_weakens_bound():
    chk = ruling_dimension_bound("nondegenerate", n=14, p=6, q=6, a=0, b=0, ell=0, d=1, r=0)
    assert chk.rhs == 14 - 12 - 1
    assert "weakened" in chk.notes


def test_same_jet_twice_gives_totally_null_joint_span():
    jf, _ = flat_pair()
    # use the curved member so the curvature span is nonzero
    _, jg = flat_pair()
    joint = build_joint(jg, jg, CFG)
    deg = degeneracy_test(joint, CFG)
    # the joint span is the graph of the identity: totally null radical
    assert set(deg.omega_rank.tolist()) == {1}
    assert not deg.degenerate.any()
    analysis = analyze_pair(jg, jg, CFG)
    st = analysis.regions[0]
    assert st.residuals["omega_isotropy"] < 1e-12
    assert st.ranks["rulings"] == 3  # full tangent space


def inflection_pair():
    """Cylinders over two curves with speed sqrt(1 + t^4), both with an
    inflection at t = 0: a plane cubic in R^4 and a space curve in R^5.

    The joint radical is zero everywhere, so the pair starts as one region;
    both curvature spans drop to rank 0 on the slice x1 = 0.
    """
    grid = ChartGrid((7, 5, 5), (0.05, 0.05, 0.05), (-0.15, 0.0, 0.0))

    def cubic(xs):
        x1, x2, x3 = xs
        return [x1, x1 * x1 * x1 * (1.0 / 3.0), x2, x3]

    def twisted(xs):  # t -> (t, int s^2 cos s, int s^2 sin s)
        x1, x2, x3 = xs
        s, c = jet3.sin(x1), jet3.cos(x1)
        return [x1, x1 * x1 * s + 2.0 * x1 * c - 2.0 * s,
                -(x1 * x1) * c + 2.0 * x1 * s + 2.0 * c, x2, x3]

    return (
        ImmersionJet.from_function(cubic, grid, E4),
        ImmersionJet.from_function(twisted, grid, ScalarProduct.euclidean(5)),
    )


def test_rank_jump_inside_a_region_re_splits_it():
    jf, jg = inflection_pair()
    assert set(degeneracy_test(build_joint(jf, jg, CFG), CFG).omega_rank.tolist()) == {0}
    analysis = analyze_pair(jf, jg, CFG)
    x1 = jf.chart.points()[:, 0]
    assert len(analysis.regions) == 3
    assert [sorted(set(np.round(x1[st.points], 9))) for st in analysis.regions] == [
        [-0.15, -0.1, -0.05], [0.0], [0.05, 0.1, 0.15],
    ]
    assert [st.points.size for st in analysis.regions] == [75, 25, 75]
    curved = {"omega": 0, "private_left": 1, "private_right": 1, "shared_left": 0,
              "shared_right": 0, "theta": 2, "shared_span": 0, "matched_span": 0,
              "transfer_bundle": 0, "rulings": 2, "beta_span": 1}
    flat = dict(curved, private_left=0, private_right=0, theta=3, rulings=3, beta_span=0)
    assert [st.ranks for st in analysis.regions] == [curved, flat, curved]
    for st in analysis.regions:
        assert st.notes == ["parts: ranks jump at depth 0, 3 subregions"]


def test_theta_dimension_holds_at_the_smallest_private_form_rank(monkeypatch):
    # the rank of the private-form span is the one rank the refinement does
    # not make constant; the bound dim theta >= n - rank must hold at each
    # point, so a rank lowered everywhere but at the first point must count
    real = pair_pipeline.rank

    def lowered(*args, **kwargs):
        ranks = real(*args, **kwargs)
        ranks[1:] -= 1
        return ranks

    monkeypatch.setattr(pair_pipeline, "rank", lowered)  # flat-pair's only call: the span rank
    report, _ = run_manifest(json.loads(json.dumps(MANIFESTS["flat-pair"])))
    [region] = report["results"]["regions"]
    assert region["ranks"]["beta_span"] == 0
    assert region["claims"]["theta_dimension"] == {"dim": 2, "lower_bound": 3, "passed": False}


def test_refinement_cap_raises_split_failure(monkeypatch):
    jf, jg = inflection_pair()
    monkeypatch.setattr(pair_pipeline, "MAX_REFINEMENTS", 0)
    with pytest.raises(SplitFailure) as err:
        analyze_pair(jf, jg, CFG)
    assert str(err.value) == (
        "rank maps keep jumping after maximal refinement; "
        "parts: ranks jump at depth 0, 3 subregions"
    )


def test_degenerate_pair_computes_fundamental_data_once_per_map(monkeypatch):
    jf, _, jhat = degenerate_reflection_pair()
    calls = []
    real = jets.fundamental_data

    def counted(jet, *args, **kwargs):
        calls.append(jet)
        return real(jet, *args, **kwargs)

    monkeypatch.setattr(pair_pipeline, "fundamental_data", counted)
    analysis = analyze_pair(jf, jhat, CFG)
    [st] = analysis.regions
    assert st.branch == "degenerate" and st.left.jet.ambient.pseudo_pair  # the lifted left map
    assert len(calls) == 3  # the left map, the right map and the lifted left map


def test_build_joint_passes_the_config_align_floor(monkeypatch):
    given = []
    real = jets.fundamental_data

    def spy(jet, cfg):
        given.append(cfg)
        return real(jet, cfg)

    monkeypatch.setattr(pair_pipeline, "fundamental_data", spy)
    cfg = PipelineConfig(align_floor=0.6)
    build_joint(*congruent_pair(), cfg)
    assert len(given) == 2 and all(c is cfg for c in given)


def count_pipeline_linalg(monkeypatch, jf, jg):
    """np.linalg calls of `analyze_pair`, frame fits included: each fit is
    one batched call over its points."""
    count = [0]
    for name in ("svd", "qr", "eigh", "eigvalsh", "eig", "eigvals", "solve", "inv", "pinv",
                 "lstsq", "cholesky", "det", "matrix_rank"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, **kwargs):
            count[0] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    analysis = analyze_pair(jf, jg, CFG)
    monkeypatch.undo()
    return count[0], analysis


def test_pipeline_linalg_calls_do_not_grow_with_the_grid(monkeypatch):
    small, small_analysis = count_pipeline_linalg(monkeypatch, *flat_pair(7))
    large, large_analysis = count_pipeline_linalg(monkeypatch, *flat_pair(11))
    assert [st.points.size for st in small_analysis.regions] == [245]
    assert [st.points.size for st in large_analysis.regions] == [605]
    assert 0 < large <= small


def pinv_projector(frames):
    """Dot projectors onto the spans of a (B, m, k) stack by the pseudo-inverse."""
    return frames @ np.linalg.pinv(frames)


def test_region_projectors_match_the_pseudo_inverse(degenerate_pair_region):
    # the parts stage keeps orthonormal bases, so the shared part's projector
    # is Q Q^T; the swept transfer frames project through their Gram matrix
    reg = degenerate_pair_region
    sh_l, s_frames = reg.at["shared_left"], reg.at["shared_span"]
    assert sh_l.shape[2] == s_frames.shape[2] == 2
    assert np.max(np.abs(sh_l @ np.swapaxes(sh_l, 1, 2) - pinv_projector(sh_l))) <= 1e-13
    containment = np.max(np.abs(s_frames - pinv_projector(sh_l) @ s_frames))
    assert reg.residuals["shared_span_containment"] == pytest.approx(containment, abs=1e-13)
    lf = reg.at["transfer_bundle"]
    assert lf.shape[2] == 2
    lf_t = np.swapaxes(lf, 1, 2)
    proj = pinv_projector(lf)
    assert np.max(np.abs(lf @ np.linalg.solve(lf_t @ lf, lf_t) - proj)) <= 1e-13
    pos = reg.pos_left[reg.pts]
    position = np.max(np.linalg.norm(pos - (proj @ pos[:, :, None])[:, :, 0], axis=1))
    claim = pair_pipeline._structural_checks(reg)["position_in_transfer_bundle"]
    assert claim["residual"] == pytest.approx(position, abs=1e-13)

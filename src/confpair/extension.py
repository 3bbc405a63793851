"""Ruled extensions of transfer pairs and the light-cone slice generator.

Once a pair carries a parallel transfer isometry between subbundles of its
normal bundles, the obstruction form

    (Y + xi, X)  |->  ((D_X (Y + xi)) off the transfer bundle,
                       (D_X (Y + T xi)) off its partner)

is tensorial, and its kernel cuts the directions along which both immersions
extend by straight fibers: sweeping the fiber part of the kernel through
ambient addition produces the mutually ruled extension pair.  The second
half of the module runs the construction the other way: slicing a Lorentz
embedding with the light cone manufactures conformal pairs on the slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jet3
from .errors import (
    NoIntersection,
    NotImmersionAtRadius,
    NotIsometricPair,
    NotTransversal,
    RankJump,
)
from .indefinite_linalg import (
    by_class,
    complement_stack,
    contract,
    frame_coords,
    gap_stack,
    kernel_stack,
    max_by_class,
    rank_classes,
    span_stack,
)
from .jet3 import Jet3
from .jets import (
    IMMERSION_TOL,
    ChartGrid,
    DistributionFrame,
    FundamentalData,
    ImmersionJet,
    ImmersionMap,
    PipelineConfig,
    align_frames,
    bracket_residual,
    conformal_factor_of_metrics,
    fundamental_data,
    grid_derivative,
    induced_metric,
)
from .lightcone import cone_projection
from .pair_pipeline import TransferData, _nabla, joint_nullity, verify_compatibility

__all__ = [
    "ObstructionData",
    "extension_obstruction",
    "ExtensionPair",
    "ruled_extension",
    "verify_extension",
    "SliceData",
    "generate_conformal_pair",
    "transversality_check",
]

# fiber radius: a share of the largest grid extent, halved at most MAX_SHRINK
# times; FIBER_SAMPLES points per fiber axis
FIBER_RADIUS_SHARE, MAX_SHRINK, FIBER_SAMPLES = 0.1, 6, 3
# light-cone slicer: bisection width; slice-metric gap and squared-norm
# gradient floor, both relative (`transversality_check` shares the floor)
ROOT_TOL, SLICE_ISOMETRY_TOL, TRANSVERSALITY_TOL = 1e-12, 1e-6, 1e-6
# the extension check's tube bundle: its coefficient kernel, the rank of
# its columns and the seed of their sweep
TUBE_TOL = 1e-7


# ---------------------------------------------------------------------------
# the obstruction form and its kernel
# ---------------------------------------------------------------------------


@dataclass
class ObstructionData:
    """Kernel of the obstruction form, split into rulings and fiber part."""

    data: TransferData
    delta: np.ndarray       # (P, n + ell, s) kernel frames (tangent + bundle coords)
    fibers: np.ndarray      # (P, n + ell, r) complement of the rulings inside delta
    s: int
    r: int
    residuals: dict = field(default_factory=dict)


def extension_obstruction(data: TransferData, cfg: PipelineConfig) -> ObstructionData:
    """Assemble the obstruction form on frame fields and take its kernel.

    The form is tensorial because the bundle component of the argument is
    projected away.  On each side, the normal part of the derivative of the
    tangent frame field E_a along d_i is alpha(d_i, E_a) = sum_b (C^-1)_bi
    alpha(E_b, E_a) (the Gauss formula), and that of a bundle frame is its
    normal covariant derivative (`_nabla`).  The kernel is decided at
    `cfg.fd_tol`, its meets and complements at `cfg.rank_tol`, and the
    kernel and fiber frames are aligned at the floor `cfg.align_floor`.
    """
    tol = cfg.rank_tol
    fl = data.left
    chart = fl.jet.chart
    p, n = fl.metric.shape[0], fl.metric.shape[1]
    ell = data.ell
    pat = np.asarray(data.transfer_pattern, dtype=float)

    def off_bundle(fund, frames):
        """Normal-frame coordinates (P, n, k, n + ell) of the derivatives
        along every chart axis of the argument fields, bundle part removed."""
        tangent = np.einsum("pbi,pbat->pita", fund.tangent_frame_inv, fund.alpha)
        nco = np.concatenate([tangent, _nabla(frames, fund)], axis=3)
        return nco - frames[:, None] @ frame_coords(frames[:, None], fund.normal_eps, pat, nco)

    rows_all = np.concatenate([off_bundle(fl, data.transfer_bundle),
                               off_bundle(data.right, data.transfer_bundle_right)], axis=2)
    scale = max(float(np.max(np.abs(rows_all))), 1.0)
    pts = np.flatnonzero(data.mask)
    rows = rows_all[pts].reshape(len(pts), -1, n + ell)
    dims, kers = kernel_stack(rows, cfg.fd_tol, scale)
    if int(dims.min()) != int(dims.max()):
        raise RankJump(f"obstruction kernel dimension varies: {sorted(set(dims.tolist()))}")
    s_dim = int(dims[0])
    delta_raw = np.zeros((p, n + ell, s_dim))
    delta_raw[pts] = kers[:, :, :s_dim]
    mixed_eps = np.concatenate([np.ones(n), pat])
    delta, _, _ = align_frames(delta_raw, np.diag(mixed_eps), chart.shape, mask=data.mask, cfg=cfg)

    # rulings sit inside the kernel; the fiber part is their complement
    d = data.rulings.shape[2]
    rul_emb = np.zeros((p, n + ell, d))
    rul_emb[:, :n, :] = data.rulings
    r_dim = max(s_dim - d, 0)
    dq, rq = delta[pts], rul_emb[pts]
    # the kernel's orthonormal basis spans what its aligned frames span
    kq = kers[:, :, :s_dim]
    rul_gap = float(np.max(np.abs(rq - kq @ (kq.transpose(0, 2, 1) @ rq)), initial=0.0))
    fib_ranks, fib = complement_stack(rq, dq, mixed_eps, tol)
    fiber_spans = np.zeros((p, n + ell, r_dim))
    fiber_spans[pts] = np.where(np.arange(fib.shape[2]) < fib_ranks[:, None, None], fib, 0.0)[:, :, :r_dim]
    # smooth gauge for the fiber frames: the extension differentiates them
    fibers, _, _ = align_frames(fiber_spans, np.diag(mixed_eps), chart.shape, mask=data.mask, cfg=cfg)
    residuals = {
        "rulings_inside_kernel": rul_gap,
        "rulings_integrability": float(np.max(bracket_residual(fl, DistributionFrame(data.rulings)))),
    }
    # intersection of the kernel with the tangent block must be the rulings
    null, coeffs = kernel_stack(dq[:, n:, :], tol, 1.0)  # bundle components must vanish
    tang = by_class(lambda k, c: span_stack((k @ c)[:, :n, :], tol),
                    [(np.full(len(pts), s_dim), dq), (null, coeffs)])
    rulings = data.rulings[pts]
    residuals["kernel_meets_tangent_in_rulings"] = max_by_class(
        lambda idx, t: gap_stack(t, rulings[idx]), *tang
    )
    return ObstructionData(data, delta, fibers, s_dim, r_dim, residuals)


def _normal_columns(fund: FundamentalData, columns: np.ndarray) -> np.ndarray:
    """Normal-frame coordinates (P, k, w) of ambient columns (P, m, w)."""
    return np.swapaxes(fund.normal_coordinates(np.swapaxes(columns, 1, 2)), 1, 2)


# ---------------------------------------------------------------------------
# the ruled extension itself
# ---------------------------------------------------------------------------


@dataclass
class ExtensionPair:
    left: ImmersionJet
    right: ImmersionJet
    radius: float
    obstruction: ObstructionData


def _extended_jet(base: ImmersionJet, fields: np.ndarray, chart_ext: ChartGrid, r: int) -> ImmersionJet:
    """Jets of (x, t) -> f(x) + sum_k t_k field_k(x) on the product grid."""
    chart = base.chart
    pb, n, m = chart.npoints, base.n, base.m
    pf = int(np.prod(chart_ext.shape[n:]))
    # the fiber offsets (pf, r), C-ordered: the first pf points of the product grid
    tflat = chart_ext.points()[:pf, n:]
    dfields = np.stack([grid_derivative(fields, chart, i) for i in range(n)], axis=1)  # (P, i, m, k)
    d2fields = np.stack([
        np.stack([grid_derivative(dfields[:, i], chart, j) for j in range(n)], axis=1)
        for i in range(n)
    ], axis=1)  # (P, i, j, m, k)

    # point p * pf + w is base point p at fiber offset w: fiber axes vary fastest
    ntot = n + r
    values = base.values[:, None] + np.einsum("pmk,wk->pwm", fields, tflat)
    d1 = np.zeros((pb, pf, ntot, m))
    d1[:, :, :n] = base.d1[:, None] + np.einsum("pimk,wk->pwim", dfields, tflat)
    d1[:, :, n:] = np.swapaxes(fields, 1, 2)[:, None]
    d2 = np.zeros((pb, pf, ntot, ntot, m))  # second derivatives along the fibers vanish
    d2[:, :, :n, :n] = base.d2[:, None] + np.einsum("pijmk,wk->pwijm", d2fields, tflat)
    d2[:, :, :n, n:] = dfields.transpose(0, 1, 3, 2)[:, None]
    d2[:, :, n:, :n] = dfields.transpose(0, 3, 1, 2)[:, None]
    ptot = chart_ext.npoints
    return ImmersionJet(chart_ext, base.ambient, values.reshape(ptot, m), d1.reshape(ptot, ntot, m),
                        d2.reshape(ptot, ntot, ntot, m), source="assembled")


def ruled_extension(obstruction: ObstructionData) -> ExtensionPair:
    """Extend both immersions by straight fibers along the kernel directions.

    The fiber radius starts at FIBER_RADIUS_SHARE of the largest grid extent
    and is halved until both extended maps are immersions on the tube.
    """
    data = obstruction.data
    fl, fr = data.left, data.right
    chart = fl.jet.chart
    n = fl.metric.shape[1]
    r = obstruction.r
    radius = FIBER_RADIUS_SHARE * max(chart.spacing[i] * (chart.shape[i] - 1) for i in range(chart.ndim))

    # ambient realizations of the fiber directions on both sides
    fib = obstruction.fibers
    lf_amb, lh_amb = data.ambient_frames()
    lam_l = np.einsum("pma,pau->pmu", fl.tangent_ambient, fib[:, :n, :]) + np.einsum(
        "pmt,ptu->pmu", lf_amb, fib[:, n:, :]
    )
    lam_r = np.einsum("pma,pau->pmu", fr.tangent_ambient, fib[:, :n, :]) + np.einsum(
        "pmt,ptu->pmu", lh_amb, fib[:, n:, :]
    )

    for _ in range(MAX_SHRINK + 1):
        chart_ext = chart.with_extra_axes(
            (FIBER_SAMPLES,) * r, (radius,) * r, (-radius * (FIBER_SAMPLES // 2),) * r
        )
        jl = _extended_jet(fl.jet, lam_l, chart_ext, r)
        jr = _extended_jet(fr.jet, lam_r, chart_ext, r)
        if jl.immersion_residual() > IMMERSION_TOL and jr.immersion_residual() > IMMERSION_TOL:
            return ExtensionPair(jl, jr, radius, obstruction)
        radius *= 0.5
    raise NotImmersionAtRadius("extension never becomes an immersion while shrinking the fibers")


def verify_extension(pair: ExtensionPair, cfg: PipelineConfig) -> dict:
    """Residual report for the extension: isometry, ruledness, splittings,
    the kernel identity, and the compatibility conditions on the tube.

    The lifted kernel directions are taken in chart coordinates (base ruling
    components plus the fiber axes), which matches the affine leaves exactly
    at the zero section and on all the gallery geometries.  The tube's
    fundamental data and kernel identity use `cfg`, and every frame sweep
    on the tube is gated at the floor `cfg.align_floor`.
    """
    data = pair.obstruction.data
    n = data.left.metric.shape[1]
    r = pair.obstruction.r
    pf = int(np.prod(pair.left.chart.shape[n:]))
    out: dict = {"fiber_rank": r, "radius": pair.radius}

    # isometric extension: induced metrics agree on the tube
    fund_l, fund_r = fundamental_data(pair.left, cfg), fundamental_data(pair.right, cfg)
    out["metric_agreement"] = float(np.max(np.abs(fund_l.metric - fund_r.metric)))

    # zero section and straight fibers
    zero_slice = pair.left.values[(pf - 1) // 2::pf]
    out["zero_section_exact"] = bool(np.array_equal(zero_slice, data.left.jet.values))
    out["fiber_straightness"] = max((
        float(np.max(np.abs(grid_derivative(pair.left.values, pair.left.chart, n + k, order=2))))
        for k in range(r)), default=0.0)

    gram_l = pair.left.ambient.gram
    gram_r = pair.right.ambient.gram

    # lifted kernel in tube chart coordinates
    p_ext = pair.left.chart.npoints
    d_rank = data.rulings.shape[2]
    base = np.arange(p_ext) // pf  # the base point under each tube point
    lift = np.zeros((p_ext, n + r, d_rank + r))
    lift[:, :n, :d_rank] = np.einsum("pia,pau->piu", data.left.tangent_frame, data.rulings)[base]
    lift[:, n + np.arange(r), d_rank + np.arange(r)] = 1.0

    ell = data.ell
    lf_amb, lh_amb = data.ambient_frames()
    lift_frame = fund_l.tangent_frame_inv @ lift  # (n + r, s) frame coords of the lifted kernel

    # tube transfer bundles: intersections of the base bundles with the tube
    # normal spaces, found as coefficient kernels against the tube tangents
    r_tube = max(ell - r, 0)
    out["tube_bundle_rank_expected"] = r_tube
    null, coeffs = kernel_stack(pair.left.d1 @ gram_l @ lf_amb[base], TUBE_TOL, 1.0)  # (n + r, ell)
    rank_seen = set(null.tolist())
    # the first min(null, r_tube) kernel directions at each point
    dirs = coeffs[:, :, :r_tube] * (np.arange(r_tube) < null[:, None])[:, None, :]
    amb_l, amb_r = lf_amb[base] @ dirs, lh_amb[base] @ dirs
    out["tube_bundle_rank"] = max(rank_seen)
    out["tube_bundle_rank_constant"] = len(rank_seen) == 1
    out["transferred_bundle_tangency"] = float(np.max(np.abs(pair.right.d1 @ gram_r @ amb_r),
                                                      initial=0.0))

    lf_tube = np.zeros((p_ext, fund_l.normal_rank, 0))
    lh_tube = np.zeros((p_ext, fund_r.normal_rank, 0))
    pat_tube = ()
    if out["tube_bundle_rank"] == r_tube:
        # ranked with each point's columns beyond its rank zeroed, so that
        # a rank drop fails the sweep's constant-rank check
        ranks, basis = span_stack(_normal_columns(fund_l, amb_l), TUBE_TOL)
        basis = np.where(np.arange(r_tube) < ranks[:, None, None], basis[:, :, :r_tube], 0.0)
        lf_tube, pat_tube, _ = align_frames(basis, np.diag(fund_l.normal_eps), pair.left.chart.shape,
                                            tol=TUBE_TOL, cfg=cfg)
        # transport the aligned left frames with the base identification: their
        # coordinates in the base transfer frames, realised on the right.  The
        # tube points over one base point are a run of pf consecutive points.
        amb = np.swapaxes(fund_l.normal_frame @ lf_tube, 1, 2).reshape(p_ext // pf, pf * r_tube,
                                                                        pair.left.m)
        base_nco = np.swapaxes(data.left.normal_coordinates(amb).reshape(p_ext, r_tube,
                                                                         data.left.normal_rank), 1, 2)
        base_co = frame_coords(data.transfer_bundle[base], data.left.normal_eps,
                               data.transfer_pattern, base_nco)
        lh_tube = _normal_columns(fund_r, lh_amb[base] @ base_co)
    tube = TransferData.from_frames(fund_l, fund_r, lf_tube, lh_tube, pat_tube, lift_frame)
    out["tube_compatibility"] = verify_compatibility(tube)

    # kernel identity: the lifted kernel equals the joint nullity against the
    # complements of the tube bundles, whose first `null` columns are right
    # singular vectors, orthonormal as they come
    null, ker = joint_nullity([(fund_l.alpha, fund_l.normal_eps, lf_tube),
                               (fund_r.alpha, fund_r.normal_eps, lh_tube)], cfg, 1.0)
    # compare in frame coordinates of the tube
    lift_ranks, lift_span = span_stack(lift_frame, cfg.rank_tol)
    out["kernel_identity_gap"] = max(
        float(np.max(gap_stack(ker[idx][:, :, :a], lift_span[idx][:, :, :b])))
        for (a, b), idx in rank_classes(null, lift_ranks)
    )

    # ruledness: the second fundamental forms of the tube vanish on the kernel
    out["ruled_leaves"] = max(
        float(np.max(np.abs(contract("pabt,pau,pbv->puvt", alpha, lift_frame, lift_frame)),
                      initial=0.0))
        for alpha in (fund_l.alpha, fund_r.alpha)
    )

    # cone-branch consistency: both extensions keep equal squared norms
    if pair.left.ambient.pseudo_pair and pair.right.ambient.pseudo_pair:
        out["equal_norms"] = float(np.max(np.abs(
            pair.left.ambient.norm_sq(pair.left.values)
            - pair.right.ambient.norm_sq(pair.right.values)
        )))
    return out


# ---------------------------------------------------------------------------
# the light-cone slice generator
# ---------------------------------------------------------------------------


@dataclass
class SliceData:
    """A conformal pair manufactured by slicing a Lorentz embedding."""

    slice_chart: ChartGrid
    roots: np.ndarray            # (P_slice,) root parameter per slice point
    left: ImmersionJet           # the Euclidean immersion restricted to the slice
    lifted: ImmersionJet         # the Lorentz map restricted to the slice, in the cone
    conformal_factor: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _norm_sq_jet(comps: list[Jet3], gram: np.ndarray) -> Jet3:
    terms = [comps[a] * comps[b] * float(gram[a, b]) for a, b in zip(*np.nonzero(gram))]
    return sum(terms[1:], terms[0])


def _brackets(s_lines: np.ndarray, taxis: np.ndarray, branch: int):
    """(lows, highs) of root number `branch` on each row of `s_lines`, the
    squared norm sampled at the nodes `taxis`.  Roots count in node order: a
    node where s is exactly 0 brackets itself, and a sign change brackets
    the interval to the next node."""
    zero = s_lines == 0.0
    change = np.zeros_like(zero)
    change[:, :-1] = s_lines[:, :-1] * s_lines[:, 1:] < 0
    found = np.cumsum(zero | change, axis=1)
    short = found[:, -1] <= branch
    if short.any():
        line = int(np.argmax(short))
        raise NoIntersection(
            f"line {line}: found {found[line, -1]} roots, branch {branch} requested"
        )
    k = np.argmax(found > branch, axis=1)  # the node where that root was counted
    at_zero = zero[np.arange(len(k)), k]   # always so at the last node
    return taxis[k], taxis[np.where(at_zero, k, k + 1)]


def transversality_check(jet: ImmersionJet) -> dict:
    """Per-point transversality of an immersion to the light cone.

    Uses the differential of the squared norm; a vanishing value with a
    vanishing differential flags tangency (or containment in the cone).
    """
    g = jet.ambient.gram
    s = contract("pa,ab,pb->p", jet.values, g, jet.values)
    ds = 2.0 * contract("pia,ab,pb->pi", jet.d1, g, jet.values)
    grad_norm = np.linalg.norm(ds, axis=1)
    scale = max(float(np.max(np.abs(jet.values))), 1.0)
    on_cone = np.abs(s) < TRANSVERSALITY_TOL * scale
    transversal = grad_norm > TRANSVERSALITY_TOL * scale
    return {
        "values": s,
        "gradient_norms": grad_norm,
        "on_cone": on_cone,
        "transversal": transversal,
        "contained_in_cone": bool(np.all(np.abs(s) < 1e-10 * scale)),
    }


def generate_conformal_pair(
    left_map: ImmersionMap,
    lorentz_map: ImmersionMap,
    chart: ChartGrid,
    axis: int = 0,
    branch: int = 0,
    *,
    cfg: PipelineConfig,
) -> SliceData:
    """Slice a Lorentz embedding with the light cone and read off the pair.

    `left_map` and `lorentz_map` share the (n+1)-dimensional chart; the zero
    set of the squared norm of the Lorentz map is located along grid lines of
    `axis` (bracketing, then bisection polished by Newton), the slice is
    reparametrized by the remaining axes, and the conformal pair is the
    restriction of the left map together with the cone projection of the
    restricted Lorentz map.

    The two restrictions must induce the same metric on the slice: that is
    what makes the projected pair conformal.  Full-chart isometry of the
    inputs is not required (the slice is where the construction lives), but
    the residual is reported.  The projected pair's conformality is gated
    at `cfg.conformal_tol`.  The result carries the restricted Lorentz map
    itself as `lifted`: it lies in the cone and is isometric to the left
    restriction, so it is the isometric cone lift of the projected side,
    with the slicer's exact jets and no stencil of the conformal factor.
    """
    if not lorentz_map.ambient.pseudo_pair:
        raise ValueError("the second map must take values in a Lorentz ambient")
    n_plus = chart.ndim
    gram = lorentz_map.ambient.gram

    # scan the squared norm over the full chart
    vals = lorentz_map.values(chart.points())
    s_all = contract("pa,ab,pb->p", vals, gram, vals)
    scale = max(float(np.max(np.abs(vals))), 1.0)
    if np.all(np.abs(s_all) < 1e-10 * scale):
        raise NotTransversal("the Lorentz map is contained in the cone: zero set is everything")

    # the slice chart drops the scan axis; each of its points is one grid line
    slice_chart = ChartGrid(*(tuple(v for i, v in enumerate(spec) if i != axis)
                              for spec in (chart.shape, chart.spacing, chart.origin)))
    s_lines = np.moveaxis(s_all.reshape(chart.shape), axis, -1).reshape(-1, chart.shape[axis])
    lows, highs = _brackets(s_lines, chart.axis(axis), branch)

    # vectorized bisection over all lines, then Newton polish
    slice_pts = slice_chart.points()

    def full_points(tvals: np.ndarray) -> np.ndarray:
        return np.insert(slice_pts, axis, tvals, axis=1)

    def s_of(tvals: np.ndarray, order: int = 0):
        comps = lorentz_map.evaluate(full_points(tvals), order=order)
        return _norm_sq_jet(comps, gram)

    lo, hi = lows.copy(), highs.copy()
    s_lo = s_of(lo).v
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        s_mid = s_of(mid).v
        left_mask = s_lo * s_mid <= 0
        hi = np.where(left_mask, mid, hi)
        lo = np.where(left_mask, lo, mid)
        s_lo = np.where(left_mask, s_lo, s_mid)
        if float(np.max(hi - lo)) < ROOT_TOL:
            break
    roots = 0.5 * (lo + hi)
    for _ in range(4):
        sj = s_of(roots, order=1)
        deriv = sj.g[:, axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(np.abs(deriv) > 1e-14, sj.v / deriv, 0.0)
        roots = np.clip(roots - step, lows, highs)

    # transversality along the located slice
    sj = s_of(roots, order=1)
    if float(np.max(np.abs(sj.v))) > 1e-8 * scale:
        raise NoIntersection("root polishing failed to land on the zero set")
    grad_norm = np.linalg.norm(sj.g, axis=1)
    axis_deriv = np.abs(sj.g[:, axis])
    if np.any(grad_norm < TRANSVERSALITY_TOL * scale):
        raise NotTransversal("zero set touched with vanishing gradient")
    if np.any(axis_deriv < TRANSVERSALITY_TOL * scale):
        raise NotTransversal("zero set is not a graph over the scan axis")

    # implicit jets of the root function t(u)
    sj2 = s_of(roots, order=2)
    others = [i for i in range(n_plus) if i != axis]
    s_t = sj2.g[:, axis]
    t_u = -sj2.g[:, others] / s_t[:, None]
    hess = sj2.h
    t_uu = -(
        hess[:, others][:, :, others]
        + np.einsum("pi,pj->pij", hess[:, others][:, :, axis], t_u)
        + np.einsum("pi,pj->pij", t_u, hess[:, others][:, :, axis])
        + hess[:, axis, axis][:, None, None] * np.einsum("pi,pj->pij", t_u, t_u)
    ) / s_t[:, None, None]

    # the slice's coordinate jets: the chart variables, the root function at `axis`
    xs = jet3.variables(slice_pts)
    xs.insert(axis, Jet3(roots, t_u, t_uu))

    def restrict(mapping: ImmersionMap) -> ImmersionJet:
        return ImmersionJet.from_components(mapping.fn(xs), slice_chart, mapping.ambient,
                                            "assembled")

    left_slice = restrict(left_map)
    lifted_slice = restrict(lorentz_map)
    projected = cone_projection(lifted_slice)

    # the slice metrics of the two restrictions must agree
    g_left = induced_metric(left_slice)
    g_lift = induced_metric(lifted_slice)
    slice_gap = float(np.max(np.abs(g_left - g_lift)))
    if slice_gap > SLICE_ISOMETRY_TOL * max(float(np.max(np.abs(g_left))), 1.0):
        raise NotIsometricPair(
            f"restrictions induce different slice metrics: residual {slice_gap:.3e}"
        )

    phi, conf_resid = conformal_factor_of_metrics(g_left, induced_metric(projected), cfg.conformal_tol)
    # <F, e0> is the component F^1 in the null-pair basis (G e0 = e1)
    factor_gap = float(np.max(np.abs(phi - 1.0 / lifted_slice.values[:, 1])))

    return SliceData(
        slice_chart=slice_chart,
        roots=roots,
        left=left_slice,
        lifted=lifted_slice,
        conformal_factor=phi,
        diagnostics={
            "slice_metric_gap": slice_gap,
            "conformal_residual": float(np.max(conf_resid)),
            "factor_vs_null_pairing": factor_gap,
            "min_axis_derivative": float(np.min(axis_deriv)),
            "min_gradient_norm": float(np.min(grad_norm)),
        },
    )

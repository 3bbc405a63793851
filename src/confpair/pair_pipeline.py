"""Fiberwise structure of an isometric pair of immersions.

Given two isometric immersions of one chart, the joint curvature span inside
the direct sum of the normal bundles (with the difference metric) carries a
radical whose graph structure either identifies the "shared" parts of the two
normal bundles directly (nondegenerate branch) or, when the radical leaks
into one factor through a null witness field, after augmenting the spans by
the cone position vectors (degenerate branch).  From the identification the
pipeline constructs, per grid region of constant ranks:

  * the private nullity of the non-shared curvature parts,
  * the shared curvature span and the connection-gap tensor on it,
  * the matched subbundle where both normal connections agree,
  * the transfer bundle carrying a parallel isometry between the normal
    bundles, and the common ruling distribution it cuts out,
  * residuals for the compatibility conditions (parallel transfer isometry
    preserving second fundamental forms; transfer bundle parallel along the
    rulings) and for the structural claims of the degenerate branch,
  * the ruling dimension bound with its slack.

Everything rank-valued is decided at `rank_tol` on jet-exact data and at
`fd_tol` on stencil-assembled operators; both are recorded in the reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NotIsometricPair,
    SplitFailure,
    UnsupportedDegeneracy,
)
from .errors import HypothesisOutOfRange
from .indefinite_linalg import (
    complement,
    gap,
    kernel,
    orthonormal_columns,
    project,
    radical,
    rank,
    signature,
)
from .jets import FundamentalData, ImmersionJet, align_frames, fundamental_data, grid_derivative
from .lightcone import LightConeModel
from .regions import interior_mask, label_regions, pack_profile

__all__ = [
    "PipelineConfig",
    "JointNormalSpace",
    "RegionState",
    "PairAnalysis",
    "build_joint",
    "degeneracy_test",
    "analyze_pair",
    "verify_compatibility",
    "transfer_residuals",
    "BoundCheck",
    "ruling_dimension_bound",
]


@dataclass
class PipelineConfig:
    rank_tol: float = 1e-9
    fd_tol: float = 1e-6
    align_threshold: float = 0.75
    conformal_tol: float = 1e-6
    min_region_points: int = 1
    max_refinements: int = 4
    force_branch: str | None = None
    seed: int = 0


# ---------------------------------------------------------------------------
# the joint normal space
# ---------------------------------------------------------------------------


@dataclass
class JointNormalSpace:
    """Both normal bundles with the difference metric, in aligned frames."""

    left: FundamentalData
    right: FundamentalData
    eps_left: np.ndarray
    eps_right: np.ndarray
    metric_residual: float

    @property
    def kl(self) -> int:
        return len(self.eps_left)

    @property
    def kr(self) -> int:
        return len(self.eps_right)

    @property
    def joint_eps(self) -> np.ndarray:
        return np.concatenate([self.eps_left, -self.eps_right])

    def alpha_sum(self) -> np.ndarray:
        """(P, n, n, kl + kr) joint second fundamental form in frame coords."""
        return np.concatenate([self.left.alpha, self.right.alpha], axis=-1)


def build_joint(jf, jg, cfg: PipelineConfig | None = None) -> JointNormalSpace:
    """Assemble the joint normal space of an isometric pair."""
    cfg = cfg or PipelineConfig()
    fl = jf if isinstance(jf, FundamentalData) else fundamental_data(jf, tol=cfg.rank_tol)
    fr = jg if isinstance(jg, FundamentalData) else fundamental_data(jg, tol=cfg.rank_tol)
    diff = fl.metric - fr.metric
    scale = max(float(np.max(np.abs(fl.metric))), 1e-300)
    resid = float(np.max(np.abs(diff))) / scale
    if resid > cfg.conformal_tol:
        raise NotIsometricPair(f"induced metrics disagree: relative residual {resid:.3e}")
    return JointNormalSpace(
        left=fl,
        right=fr,
        eps_left=np.asarray(fl.normal_pattern, dtype=float),
        eps_right=np.asarray(fr.normal_pattern, dtype=float),
        metric_residual=resid,
    )


# ---------------------------------------------------------------------------
# degeneracy test
# ---------------------------------------------------------------------------


@dataclass
class DegeneracyData:
    omega_rank: np.ndarray        # (P,)
    left_kernel_rank: np.ndarray  # (P,) kernel of the projection onto the left factor
    right_kernel_rank: np.ndarray
    witness: np.ndarray           # (P, kr) null field with (0, witness) in the radical
    witness_pairing: np.ndarray   # (P,) <position of right map, witness>, 1 after rescaling
    degenerate: np.ndarray        # (P,) bool


def degeneracy_test(joint: JointNormalSpace, cfg: PipelineConfig | None = None) -> DegeneracyData:
    """Radical of the joint curvature span and injectivity of its projections.

    A nonzero kernel of the projection onto the left normal bundle produces
    the null witness field of the degenerate branch, rescaled so that it
    pairs to one with the position vector of the (cone-valued) right map.
    """
    cfg = cfg or PipelineConfig()
    tol = cfg.rank_tol
    p = joint.left.metric.shape[0]
    kl, kr = joint.kl, joint.kr
    eps = joint.joint_eps
    asum = joint.alpha_sum().reshape(p, -1, kl + kr)
    scale = max(float(np.max(np.abs(asum))), 1.0)
    omega_rank = np.zeros(p, dtype=int)
    lk = np.zeros(p, dtype=int)
    rk = np.zeros(p, dtype=int)
    witness = np.zeros((p, kr))
    pairing = np.zeros(p)
    pos_right = None
    if joint.right.jet.ambient.pseudo_pair:
        pos_right = joint.right.normal_coordinates(joint.right.jet.values)
    for q in range(p):
        omega = radical(orthonormal_columns(asum[q].T, tol, scale), eps, tol)
        omega_rank[q] = omega.shape[1]
        if omega.shape[1]:
            # kernel of the left projection: radical vectors with zero left part
            knl = kernel(omega[:kl, :], tol * 10, 1.0)
            lk[q] = knl.shape[1]
            rk[q] = kernel(omega[kl:, :], tol * 10, 1.0).shape[1]
            if knl.shape[1]:
                w = omega[kl:, :] @ knl[:, 0]
                if pos_right is not None:
                    val = float(pos_right[q] @ (joint.eps_right * w))
                    if abs(val) > tol:
                        w = w / val
                        pairing[q] = 1.0
                    else:
                        pairing[q] = 0.0
                witness[q] = w
    degenerate = lk > 0
    return DegeneracyData(omega_rank, lk, rk, witness, pairing, degenerate)


# ---------------------------------------------------------------------------
# per-region construction
# ---------------------------------------------------------------------------


@dataclass
class RegionState:
    """Everything the downstream checks and the extension need, per region."""

    branch: str
    mask: np.ndarray
    points: np.ndarray
    left: FundamentalData
    right: FundamentalData
    eps_left: np.ndarray
    eps_right: np.ndarray
    pos_left: np.ndarray | None      # (P, kl) cone position in the left normal frame
    pos_right: np.ndarray | None
    e0_left: np.ndarray | None       # (P, kl) null generator coords (degenerate branch)
    witness: np.ndarray | None       # (P, kr)
    omega: np.ndarray                # (P, kl+kr, r)
    private_left: np.ndarray         # (P, kl, .)
    private_right: np.ndarray
    shared_left: np.ndarray
    shared_right: np.ndarray
    identification: np.ndarray       # (P, kr, kl)
    theta: np.ndarray                # (P, n, .)
    shared_span: np.ndarray          # (P, kl, .)
    shared_pattern: tuple[int, ...]
    matched_span: np.ndarray
    matched_pattern: tuple[int, ...]
    mismatched_span: np.ndarray
    transfer_bundle: np.ndarray      # (P, kl, ell)
    transfer_pattern: tuple[int, ...]
    transfer_bundle_right: np.ndarray  # (P, kr, ell)
    rulings: np.ndarray              # (P, n, d)
    gap_tensor: np.ndarray           # (P, n, rS, rS) coefficients of the connection gap
    ranks: dict
    residuals: dict = field(default_factory=dict)
    claims: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def ell(self) -> int:
        return self.transfer_bundle.shape[2]

    @property
    def ruling_dim(self) -> int:
        return self.rulings.shape[2]


@dataclass
class PairAnalysis:
    joint: JointNormalSpace
    degeneracy: DegeneracyData
    regions: list[RegionState]
    lifted_left: ImmersionJet | None = None


def _construct_region(
    joint: JointNormalSpace,
    mask: np.ndarray,
    branch: str,
    witness: np.ndarray | None,
    cfg: PipelineConfig,
    depth: int = 0,
) -> list[RegionState]:
    """Build the full chain of subbundles on one candidate region.

    Returns one state per constant-rank subregion (the region is re-split
    whenever a later-stage rank map jumps).
    """
    fl, fr = joint.left, joint.right
    eps_l, eps_r = joint.eps_left, joint.eps_right
    kl, kr = joint.kl, joint.kr
    p, n = fl.metric.shape[0], fl.metric.shape[1]
    tol, fd_tol = cfg.rank_tol, cfg.fd_tol
    chart = fl.jet.chart
    pts = np.flatnonzero(mask)
    eps_joint = joint.joint_eps

    degenerate = branch == "degenerate"
    pos_left = pos_right = e0_left = None
    if fl.jet.ambient.pseudo_pair:
        pos_left = fl.normal_coordinates(fl.jet.values)
        model_l = LightConeModel.for_ambient(fl.jet.ambient)
        e0_left = fl.normal_coordinates(model_l.e0)
    if fr.jet.ambient.pseudo_pair:
        pos_right = fr.normal_coordinates(fr.jet.values)
    if degenerate and (pos_left is None or pos_right is None):
        raise UnsupportedDegeneracy("degenerate branch requires cone-valued lifts on both sides")

    alpha_l = fl.alpha
    alpha_r = fr.alpha
    asum = joint.alpha_sum().reshape(p, -1, kl + kr)
    a_scale = max(float(np.max(np.abs(asum[pts]))), 1.0)

    ident = np.zeros((p, kr, kl))
    ranks = {k: np.zeros(p, dtype=int) for k in (
        "omega", "private_left", "private_right", "shared_left", "shared_right",
        "theta", "shared_span", "beta_span",
    )}
    residuals: dict[str, float] = {
        "metric_agreement": joint.metric_residual,
        "omega_isotropy": 0.0,
        "graph_gap": 0.0,
        "identification_isometry": 0.0,
        "shared_sff_match": 0.0,
        "theta_identity_gap": 0.0,
        "position_pair_orthogonal": 0.0,
        "witness_in_radical": 0.0,
    }
    notes: list[str] = []

    store: dict[int, dict] = {}
    for q in pts:
        span_plain = orthonormal_columns(asum[q].T, tol, a_scale)
        rad = radical(span_plain, eps_joint, tol)
        span_l = orthonormal_columns(alpha_l[q].reshape(-1, kl).T, tol, a_scale)
        span_r = orthonormal_columns(alpha_r[q].reshape(-1, kr).T, tol, a_scale)
        if degenerate:
            pospair = np.concatenate([pos_left[q], pos_right[q]])
            # position pair must be orthogonal to, but not contained in, the span
            pairing = span_plain.T @ (eps_joint * pospair)
            residuals["position_pair_orthogonal"] = max(
                residuals["position_pair_orthogonal"], float(np.max(np.abs(pairing))) if pairing.size else 0.0
            )
            om = orthonormal_columns(np.column_stack([pospair, rad]), tol)
            if witness is not None:
                wit_vec = np.concatenate([np.zeros(kl), witness[q]])
                proj = om @ (om.T @ wit_vec)
                residuals["witness_in_radical"] = max(
                    residuals["witness_in_radical"], float(np.linalg.norm(wit_vec - proj))
                )
            aug_l = orthonormal_columns(
                np.column_stack([pos_left[q], alpha_l[q].reshape(-1, kl).T]), tol
            )
            aug_r = orthonormal_columns(
                np.column_stack([pos_right[q], alpha_r[q].reshape(-1, kr).T]), tol
            )
        else:
            om, aug_l, aug_r = rad, span_l, span_r
        gram_om = om.T @ (om * eps_joint[:, None])
        if gram_om.size:
            residuals["omega_isotropy"] = max(residuals["omega_isotropy"], float(np.max(np.abs(gram_om))))

        # private parts: curvature span vectors orthogonal to the radical
        gamma_l = complement(om[:kl], span_l, eps_l, tol)
        gamma_r = complement(om[kl:], span_r, eps_r, tol)
        shared_l_q = complement(gamma_l, aug_l, eps_l, tol)
        shared_r_q = complement(gamma_r, aug_r, eps_r, tol)

        store[int(q)] = {
            "omega": om, "gamma_l": gamma_l, "gamma_r": gamma_r,
            "shared_l": shared_l_q, "shared_r": shared_r_q,
        }
        ranks["omega"][q] = om.shape[1]
        ranks["private_left"][q] = gamma_l.shape[1]
        ranks["private_right"][q] = gamma_r.shape[1]
        ranks["shared_left"][q] = shared_l_q.shape[1]
        ranks["shared_right"][q] = shared_r_q.shape[1]

    # re-split when early ranks jump
    cols = [ranks[k] for k in ("omega", "private_left", "private_right", "shared_left", "shared_right")]
    if _ranks_jump(cols, mask):
        return _refine(joint, mask, branch, witness, cfg, cols, depth)

    r_omega = int(ranks["omega"][pts[0]])
    r_shared = int(ranks["shared_left"][pts[0]])
    if int(ranks["shared_right"][pts[0]]) != r_shared:
        raise SplitFailure("shared parts of the two spans have different ranks")
    if r_omega != r_shared:
        raise SplitFailure(
            f"radical rank {r_omega} != shared rank {r_shared}: not a graph"
        )

    omega = np.zeros((p, kl + kr, r_omega))
    private_l = np.zeros((p, kl, int(ranks["private_left"][pts[0]])))
    private_r = np.zeros((p, kr, int(ranks["private_right"][pts[0]])))
    shared_l = np.zeros((p, kl, r_shared))
    shared_r = np.zeros((p, kr, r_shared))
    for q in pts:
        st = store[int(q)]
        om = st["omega"]
        omega[q] = om
        private_l[q] = st["gamma_l"]
        private_r[q] = st["gamma_r"]
        shared_l[q] = st["shared_l"]
        shared_r[q] = st["shared_r"]
        if r_omega:
            wl, wr = om[:kl], om[kl:]
            residuals["graph_gap"] = max(
                residuals["graph_gap"],
                gap(orthonormal_columns(wl, tol), st["shared_l"]),
            )
            j_mat = wr @ np.linalg.pinv(wl, rcond=1e-10)
            ident[q] = j_mat
            # isometry of the identification on the shared part
            sh = st["shared_l"]
            gl = sh.T @ (sh * eps_l[:, None])
            jr = j_mat @ sh
            gr = jr.T @ (jr * eps_r[:, None])
            residuals["identification_isometry"] = max(
                residuals["identification_isometry"], float(np.max(np.abs(gl - gr)))
            )

    # identification must carry the projected forms into each other
    if r_shared:
        for q in pts:
            # solve-based projections (frames are orthonormal only in the dot product)
            proj_l = project(shared_l[q], eps_l, alpha_l[q].reshape(-1, kl).T, tol)  # (kl, n*n)
            proj_r = project(shared_r[q], eps_r, alpha_r[q].reshape(-1, kr).T, tol)
            residuals["shared_sff_match"] = max(
                residuals["shared_sff_match"],
                float(np.max(np.abs(proj_r - ident[q] @ proj_l))),
            )

    # private nullity: directions killing both private projections
    for q in pts:
        rows = np.vstack([
            np.einsum("abt,t,tw->bwa", alpha_l[q], eps_l, private_l[q]).reshape(-1, n),
            np.einsum("abt,t,tw->bwa", alpha_r[q], eps_r, private_r[q]).reshape(-1, n),
        ])
        th = kernel(rows, tol, 1.0)
        ranks["theta"][q] = th.shape[1]
        store[int(q)]["theta"] = th
    if _ranks_jump([ranks["theta"]], mask):
        return _refine(joint, mask, branch, witness, cfg,
                       cols + [ranks["theta"]], depth)
    d_theta = int(ranks["theta"][pts[0]])
    theta = np.zeros((p, n, d_theta))
    for q in pts:
        theta[q] = store[int(q)]["theta"]

    # shared curvature span over the private nullity
    shared_span_raw = np.zeros((p, kl, kl))
    for q in pts:
        vals = np.einsum("au,abt->tub", theta[q], alpha_l[q]).reshape(kl, -1)
        if degenerate:
            vals = np.column_stack([pos_left[q], vals])
        sp = orthonormal_columns(vals, tol, a_scale)
        ranks["shared_span"][q] = sp.shape[1]
        shared_span_raw[q, :, : sp.shape[1]] = sp
    if _ranks_jump([ranks["shared_span"]], mask):
        return _refine(joint, mask, branch, witness, cfg,
                       cols + [ranks["theta"], ranks["shared_span"]], depth)
    r_s = int(ranks["shared_span"][pts[0]])

    s_frames, s_pattern, _ = align_frames(
        shared_span_raw[:, :, :r_s], np.diag(eps_l), chart.shape, mask=mask,
        tol=tol * 10, threshold=cfg.align_threshold,
    ) if r_s else (np.zeros((p, kl, 0)), (), 0.0)
    s_pat = np.asarray(s_pattern, dtype=float)

    # containment of the shared span in the shared part (structure check)
    gap_s = 0.0
    for q in pts:
        if r_s and r_shared:
            proj = shared_l[q] @ np.linalg.pinv(shared_l[q])
            gap_s = max(gap_s, float(np.max(np.abs(s_frames[q] - proj @ s_frames[q]))))
        elif r_s and not r_shared:
            gap_s = 1.0
    residuals["shared_span_containment"] = gap_s

    # connection gap tensor on the shared span
    gap_t = np.zeros((p, n, r_s, r_s))
    hat_frames = np.einsum("pts,psu->ptu", ident, s_frames) if r_s else np.zeros((p, kr, 0))
    if r_s:
        for i in range(n):
            dsl = grid_derivative(s_frames, chart, i) + np.einsum(
                "ptk,pts->pks", fl.nconn[:, i], s_frames
            )
            dsr = grid_derivative(hat_frames, chart, i) + np.einsum(
                "ptk,pts->pks", fr.nconn[:, i], hat_frames
            )
            # coefficients of the two covariant derivatives on the span frames:
            # gap_t[p, i, u, s] with u the frame component and s the section
            cl = np.einsum("u,pku,pks->pus", s_pat, s_frames * eps_l[None, :, None], dsl)
            cr = np.einsum("u,pku,pks->pus", s_pat, hat_frames * eps_r[None, :, None], dsr)
            gap_t[:, i] = cl - cr
    # skewness w.r.t. the span metric: <K eta, zeta> + <eta, K zeta> = 0
    if r_s:
        pairing = np.einsum("piws,w->pisw", gap_t, s_pat)  # <K(d_i) delta_s, delta_w>
        residuals["gap_skewness"] = float(np.max(np.abs(
            (pairing + np.swapaxes(pairing, 2, 3))[pts]
        )))
    else:
        residuals["gap_skewness"] = 0.0

    # matched part: common kernel of the gap tensor
    matched_raw = np.zeros((p, kl, r_s))
    r_s0 = np.zeros(p, dtype=int)
    if r_s:
        for q in pts:
            rows = gap_t[q].reshape(-1, r_s)  # rows (i, component), cols: section
            coeffs = kernel(rows, fd_tol, 1.0)
            basis = orthonormal_columns(s_frames[q] @ coeffs, tol)
            r_s0[q] = basis.shape[1]
            matched_raw[q, :, : basis.shape[1]] = basis
    ranks["matched_span"] = r_s0
    if _ranks_jump([r_s0], mask):
        return _refine(joint, mask, branch, witness, cfg,
                       cols + [ranks["theta"], ranks["shared_span"], r_s0], depth)
    n_s0 = int(r_s0[pts[0]])
    s0_frames, s0_pattern, _ = align_frames(
        matched_raw[:, :, :n_s0], np.diag(eps_l), chart.shape, mask=mask,
        tol=tol * 10, threshold=cfg.align_threshold,
    ) if n_s0 else (np.zeros((p, kl, 0)), (), 0.0)

    mism = np.zeros((p, kl, r_s - n_s0))
    for q in pts:
        mism[q] = complement(s0_frames[q], s_frames[q], eps_l, tol)[:, : r_s - n_s0]

    # transfer bundle: matched sections whose derivatives along the private
    # nullity stay inside the shared span on both sides
    ell_pt = np.zeros(p, dtype=int)
    transfer_raw = np.zeros((p, kl, n_s0))
    if n_s0:
        s0_hat = np.einsum("pts,psu->ptu", ident, s0_frames)
        dl = np.stack([
            grid_derivative(s0_frames, chart, i) + np.einsum("ptk,pts->pks", fl.nconn[:, i], s0_frames)
            for i in range(n)
        ], axis=1)  # (P, i, kl, n_s0)
        dr = np.stack([
            grid_derivative(s0_hat, chart, i) + np.einsum("ptk,pts->pks", fr.nconn[:, i], s0_hat)
            for i in range(n)
        ], axis=1)
        theta_coords = np.einsum("pia,pau->piu", fl.tangent_frame, theta)  # coordinate comps
        for q in pts:
            blocks = []
            sfq = s_frames[q]
            shq = hat_frames[q]
            for u in range(d_theta):
                yl = np.einsum("i,iks->ks", theta_coords[q, :, u], dl[q])  # (kl, n_s0)
                yr = np.einsum("i,iks->ks", theta_coords[q, :, u], dr[q])
                if r_s:
                    cl = s_pat[:, None] * ((sfq * eps_l[:, None]).T @ yl)  # (r_s, n_s0)
                    out_l = yl - sfq @ cl
                    cr = s_pat[:, None] * ((shq * eps_r[:, None]).T @ yr)
                    out_r = yr - shq @ cr
                else:
                    out_l, out_r = yl, yr
                blocks.append(out_l)
                blocks.append(out_r)
            rows = np.vstack(blocks) if blocks else np.zeros((0, n_s0))
            coeffs = kernel(rows, fd_tol, a_scale)
            basis = orthonormal_columns(s0_frames[q] @ coeffs, tol)
            ell_pt[q] = basis.shape[1]
            transfer_raw[q, :, : basis.shape[1]] = basis
    ranks["transfer_bundle"] = ell_pt
    if _ranks_jump([ell_pt], mask):
        return _refine(joint, mask, branch, witness, cfg,
                       cols + [ranks["theta"], ranks["shared_span"], r_s0, ell_pt], depth)
    ell = int(ell_pt[pts[0]])
    l_frames, l_pattern, _ = align_frames(
        transfer_raw[:, :, :ell], np.diag(eps_l), chart.shape, mask=mask,
        tol=tol * 10, threshold=cfg.align_threshold,
    ) if ell else (np.zeros((p, kl, 0)), (), 0.0)
    l_hat = np.einsum("pts,psu->ptu", ident, l_frames)

    # common rulings: joint nullity against both transfer complements
    d_pt = np.zeros(p, dtype=int)
    rul_store = {}
    full_l = np.eye(kl)
    full_r = np.eye(kr)
    for q in pts:
        lperp = complement(l_frames[q], full_l, eps_l, tol)
        lperp_hat = complement(l_hat[q], full_r, eps_r, tol)
        rows = np.vstack([
            np.einsum("abt,t,tw->bwa", alpha_l[q], eps_l, lperp).reshape(-1, n),
            np.einsum("abt,t,tw->bwa", alpha_r[q], eps_r, lperp_hat).reshape(-1, n),
        ])
        ker = kernel(rows, fd_tol, a_scale)
        d_pt[q] = ker.shape[1]
        rul_store[int(q)] = ker
    ranks["rulings"] = d_pt
    if _ranks_jump([d_pt], mask):
        return _refine(joint, mask, branch, witness, cfg,
                       cols + [ranks["theta"], ranks["shared_span"], r_s0, ell_pt, d_pt], depth)
    d_rank = int(d_pt[pts[0]])
    rulings_raw = np.zeros((p, n, d_rank))
    for q in pts:
        rulings_raw[q] = rul_store[int(q)]
    rulings, _, _ = align_frames(
        rulings_raw, np.eye(n), chart.shape, mask=mask, tol=tol * 10,
        threshold=cfg.align_threshold,
    ) if d_rank else (np.zeros((p, n, 0)), (), 0.0)

    # nullity identity for the private part: theta equals the joint nullity
    # against the shared-span complements
    gap_theta = 0.0
    for q in pts:
        sperp = complement(s_frames[q], full_l, eps_l, tol)
        sperp_hat = complement(hat_frames[q], full_r, eps_r, tol)
        rows = np.vstack([
            np.einsum("abt,t,tw->bwa", alpha_l[q], eps_l, sperp).reshape(-1, n),
            np.einsum("abt,t,tw->bwa", alpha_r[q], eps_r, sperp_hat).reshape(-1, n),
        ])
        ker = kernel(rows, fd_tol, a_scale)
        gap_theta = max(gap_theta, gap(ker, theta[q]))
    residuals["theta_identity_gap"] = gap_theta

    # beta-span rank for the dimension inequality dim theta >= n - rank
    for q in pts:
        parts = []
        if private_l.shape[2]:
            parts.append(
                np.einsum("abt,t,tw->abw", alpha_l[q], eps_l, private_l[q]).reshape(n * n, -1)
            )
        if private_r.shape[2]:
            parts.append(
                np.einsum("abt,t,tw->abw", alpha_r[q], eps_r, private_r[q]).reshape(n * n, -1)
            )
        if parts:
            coeffs = np.hstack(parts)  # one coefficient row per (a, b) pair
            ranks["beta_span"][q] = rank(coeffs.T, tol, a_scale)

    state = RegionState(
        branch=branch,
        mask=mask,
        points=pts,
        left=fl,
        right=fr,
        eps_left=eps_l,
        eps_right=eps_r,
        pos_left=pos_left,
        pos_right=pos_right,
        e0_left=e0_left,
        witness=witness,
        omega=omega,
        private_left=private_l,
        private_right=private_r,
        shared_left=shared_l,
        shared_right=shared_r,
        identification=ident,
        theta=theta,
        shared_span=s_frames,
        shared_pattern=tuple(int(x) for x in s_pattern),
        matched_span=s0_frames,
        matched_pattern=tuple(int(x) for x in s0_pattern),
        mismatched_span=mism,
        transfer_bundle=l_frames,
        transfer_pattern=tuple(int(x) for x in l_pattern),
        transfer_bundle_right=l_hat,
        rulings=rulings,
        gap_tensor=gap_t,
        ranks={k: int(v[pts[0]]) for k, v in ranks.items()},
        residuals=residuals,
        notes=notes,
    )
    _structural_checks(state, joint, cfg)
    return [state]


def _ranks_jump(columns, mask: np.ndarray) -> bool:
    pts = np.flatnonzero(mask)
    return any(int(c[pts].min()) != int(c[pts].max()) for c in columns)


def _refine(joint, mask, branch, witness, cfg, columns, depth):
    if depth >= cfg.max_refinements:
        raise SplitFailure("rank maps keep jumping after maximal refinement")
    chart = joint.left.jet.chart
    pts = np.flatnonzero(mask)
    # all points off the mask share one profile, unequal to any on it
    profile = pack_profile([mask.astype(int)] + [np.where(mask, c, 0) for c in columns])
    labels = label_regions(chart.shape, profile)
    out = []
    for lab in np.unique(labels[pts]):
        sub = (labels == lab) & mask
        if int(sub.sum()) < cfg.min_region_points:
            continue
        out.extend(_construct_region(joint, sub, branch, witness, cfg, depth + 1))
    return out


def _structural_checks(state: RegionState, joint: JointNormalSpace, cfg: PipelineConfig):
    """Degenerate-branch claims and shared invariants, as residuals."""
    pts = state.points
    fl = state.left
    n = fl.metric.shape[1]
    eps_l = state.eps_left
    claims = state.claims
    d_theta = state.theta.shape[2]

    def sig(frames):
        basis = frames[pts[0]]
        return signature(basis.T @ (basis * eps_l[:, None]), cfg.rank_tol * 10)

    # dim theta >= n - rank(private form span)
    claims["theta_dimension"] = {
        "dim": d_theta,
        "lower_bound": n - state.ranks["beta_span"],
        "passed": d_theta >= n - state.ranks["beta_span"],
    }

    if state.branch == "degenerate":
        sig_s = sig(state.shared_span)
        claims["shared_span_lorentzian"] = {
            "signature": sig_s,
            "passed": sig_s[1] == 1 and sig_s[2] == 0,
        }
        sig_s0 = sig(state.matched_span)
        claims["matched_span_lorentzian"] = {
            "signature": sig_s0,
            "passed": sig_s0[1] == 1 and sig_s0[2] == 0,
        }
        sig_s1 = sig(state.mismatched_span)
        claims["mismatched_span_riemannian"] = {
            "signature": sig_s1,
            "dim_at_most_five": state.mismatched_span.shape[2] <= 5,
            "passed": sig_s1[1] == 0 and sig_s1[2] == 0 and state.mismatched_span.shape[2] <= 5,
        }
        # gap tensor must vanish along the private nullity
        theta_coords = np.einsum("pia,pau->piu", fl.tangent_frame, state.theta)
        gz = np.einsum("piu,pivw->puvw", theta_coords, state.gap_tensor)
        claims["gap_vanishes_on_private_nullity"] = {
            "residual": float(np.max(np.abs(gz[pts]))) if gz.size else 0.0,
            "passed": bool(np.max(np.abs(gz[pts])) < cfg.fd_tol * 100) if gz.size else True,
        }
        # the mismatched part is spanned by the projected form over the nullity
        r_s1 = state.mismatched_span.shape[2]
        gamma_ranks = set()
        for q in pts:
            s1 = state.mismatched_span[q]
            if r_s1 == 0:
                gamma_ranks.add(0)
                continue
            vals = np.einsum("au,abt->ubt", state.theta[q], fl.alpha[q]).reshape(-1, len(eps_l))
            proj = project(s1, eps_l, vals.T, cfg.rank_tol)  # the values projected onto the mismatched part
            gamma_ranks.add(rank(proj, cfg.rank_tol, 1.0))
        claims["mismatched_spanned_by_nullity_form"] = {
            "ranks": sorted(gamma_ranks),
            "expected": r_s1,
            "passed": gamma_ranks == {r_s1},
        }
        sig_l = sig(state.transfer_bundle)
        claims["rulings_positive_and_transfer_lorentzian"] = {
            "ruling_dim": state.ruling_dim,
            "transfer_signature": sig_l,
            "passed": state.ruling_dim > 0 and sig_l[1] == 1 and sig_l[2] == 0,
        }
        # position vector sits inside the transfer bundle
        res_pos = 0.0
        res_th0 = 0.0
        for q in pts:
            lf = state.transfer_bundle[q]
            v = state.pos_left[q]
            proj = lf @ np.linalg.pinv(lf) @ v if lf.size else np.zeros_like(v)
            res_pos = max(res_pos, float(np.linalg.norm(v - proj)))
            # <alpha(Z, Z), position> = -|Z|^2 on the private nullity
            for u in range(d_theta):
                z = state.theta[q, :, u]
                az = np.einsum("abt,a,b->t", fl.alpha[q], z, z)
                val = float(az @ (eps_l * state.pos_left[q]))
                res_th0 = max(res_th0, abs(val + 1.0))
        claims["position_in_transfer_bundle"] = {
            "residual": res_pos,
            "passed": res_pos < cfg.fd_tol * 100,
        }
        claims["cone_position_sff_identity"] = {
            "residual": res_th0,
            "passed": res_th0 < cfg.fd_tol,
        }
        if state.witness is not None and state.e0_left is not None and state.omega.shape[2]:
            res_wit = 0.0
            for q in pts:
                vec = np.concatenate([state.e0_left[q], state.witness[q]])
                proj = state.omega[q] @ (state.omega[q].T @ vec)
                res_wit = max(res_wit, float(np.linalg.norm(vec - proj)))
            claims["generator_witness_pair_in_radical"] = {
                "residual": res_wit,
                "passed": res_wit < cfg.fd_tol * 10,
            }
    else:
        sig_s = sig(state.shared_span)
        claims["shared_span_signature"] = {
            "signature": sig_s,
            "riemannian": sig_s[1] == 0 and sig_s[2] == 0,
        }


# ---------------------------------------------------------------------------
# compatibility conditions for the transfer isometry
# ---------------------------------------------------------------------------


def transfer_residuals(
    fund_l: FundamentalData,
    fund_r: FundamentalData,
    l_frames: np.ndarray,
    l_pattern,
    lhat_frames: np.ndarray,
    identification: np.ndarray,
    rulings: np.ndarray,
    mask: np.ndarray,
    margin: int = 2,
) -> dict:
    """Core residuals shared by the pair pipeline and the extension checks."""
    chart = fund_l.jet.chart
    eps_l = np.asarray(fund_l.normal_pattern, dtype=float)
    eps_r = np.asarray(fund_r.normal_pattern, dtype=float)
    n = fund_l.metric.shape[1]
    ell = l_frames.shape[2]
    inner = interior_mask(chart.shape, mask, margin)
    if not inner.any():
        inner = mask
    ipts = np.flatnonzero(inner)
    pts = np.flatnonzero(mask)

    out = {"interior_points": int(ipts.size)}
    if ell == 0:
        out.update({
            "transfer_preserves_sff": 0.0,
            "transfer_parallel": 0.0,
            "bundle_parallel_along_rulings": 0.0,
        })
        return out

    lf, lh = l_frames, lhat_frames
    l_pat = np.asarray(l_pattern, dtype=float)

    def proj_onto(frames, eps, vecs):
        # frames pseudo-orthonormal w.r.t. diag(eps) with pattern l_pat
        co = np.einsum("u,pku,pk...->pu...", l_pat, frames * eps[None, :, None], vecs)
        return np.einsum("pku,pu...->pk...", frames, co)

    # preserves second fundamental forms
    al = fund_l.alpha.reshape(len(fund_l.alpha), n * n, -1).transpose(0, 2, 1)
    ar = fund_r.alpha.reshape(len(fund_r.alpha), n * n, -1).transpose(0, 2, 1)
    pl = proj_onto(lf, eps_l, al)
    pr = proj_onto(lh, eps_r, ar)
    moved = np.einsum("pts,ps...->pt...", identification, pl)
    out["transfer_preserves_sff"] = float(np.max(np.abs((pr - moved)[pts])))

    # parallel transfer: compare covariant derivatives of matched sections
    res_par = 0.0
    rul_coords = np.einsum("pia,pau->piu", fund_l.tangent_frame, rulings)
    out_l_axes = []
    out_r_axes = []
    for i in range(n):
        d_l = grid_derivative(lf, chart, i) + np.einsum("ptk,pts->pks", fund_l.nconn[:, i], lf)
        d_r = grid_derivative(lh, chart, i) + np.einsum("ptk,pts->pks", fund_r.nconn[:, i], lh)
        lhs = proj_onto(lh, eps_r, d_r)
        rhs = np.einsum("pts,psu->ptu", identification, proj_onto(lf, eps_l, d_l))
        res_par = max(res_par, float(np.max(np.abs((lhs - rhs)[ipts]))))
        out_l_axes.append(d_l - proj_onto(lf, eps_l, d_l))
        out_r_axes.append(d_r - proj_onto(lh, eps_r, d_r))
    out["transfer_parallel"] = res_par

    # parallel along rulings: the derivative along each ruling field must
    # stay inside the bundle, so contract the per-axis leftovers with the
    # ruling coordinates before taking norms
    res_rul = 0.0
    if rulings.shape[2]:
        stack_l = np.stack(out_l_axes, axis=1)  # (P, i, kl, ell)
        stack_r = np.stack(out_r_axes, axis=1)
        acc_l = np.einsum("pid,piku->pkud", rul_coords, stack_l)
        acc_r = np.einsum("pid,piku->pkud", rul_coords, stack_r)
        res_rul = max(
            float(np.max(np.abs(acc_l[ipts]))), float(np.max(np.abs(acc_r[ipts])))
        )
    out["bundle_parallel_along_rulings"] = res_rul
    return out


def verify_compatibility(state: RegionState, margin: int = 2) -> dict:
    """Residuals of the two structural conditions for the transfer pair.

    (i) the transfer isometry is parallel and preserves second fundamental
    forms; (ii) the transfer bundles are parallel along the rulings.
    Derivative-based residuals are evaluated on the region interior.
    """
    return transfer_residuals(
        state.left,
        state.right,
        state.transfer_bundle,
        state.transfer_pattern,
        state.transfer_bundle_right,
        state.identification,
        state.rulings,
        state.mask,
        margin=margin,
    )


# ---------------------------------------------------------------------------
# dimension bounds
# ---------------------------------------------------------------------------


@dataclass
class BoundCheck:
    name: str
    lhs: int
    rhs: int
    slack: int
    passed: bool
    hypotheses_ok: bool
    notes: str = ""


def ruling_dimension_bound(
    branch: str,
    n: int,
    p: int,
    q: int,
    a: int,
    b: int,
    ell: int,
    d: int,
    r: int,
) -> BoundCheck:
    """The lower bound for the ruled-extension dimension, with slack.

    Nondegenerate branch: d + r >= n - p - q + 3 ell, weakening by one when
    the index-shifted codimension minimum equals six with ell = 0; requires
    p + q <= n - 1 and min(p + b - a, q + a - b) <= 6.  Degenerate branch:
    d + r >= n - p - q + 3 ell - 4 with 2 <= r <= ell, under
    p + q <= n - 1 and min(p, q) <= 5.
    """
    if branch == "nondegenerate":
        mixed = min(p + b - a, q + a - b)
        hyp = (p + q <= n - 1) and (mixed <= 6)
        if not hyp:
            raise HypothesisOutOfRange(
                f"bound hypotheses fail: p+q={p + q} vs n-1={n - 1}, index-shifted min {mixed}"
            )
        rhs = n - p - q + 3 * ell
        note = ""
        if mixed == 6 and ell == 0:
            rhs -= 1
            note = "borderline index-shifted codimension: bound weakened by one"
        lhs = d + r
        return BoundCheck("ruled_extension_bound", lhs, rhs, lhs - rhs, lhs >= rhs, True, note)
    if branch == "degenerate":
        hyp = (p + q <= n - 1) and (min(p, q) <= 5)
        if not hyp:
            raise HypothesisOutOfRange(
                f"bound hypotheses fail: p+q={p + q} vs n-1={n - 1}, min codim {min(p, q)}"
            )
        rhs = n - p - q + 3 * ell - 4
        lhs = d + r
        note = "" if 2 <= r <= ell else f"fiber rank r={r} outside [2, {ell}]"
        return BoundCheck(
            "conical_extension_bound", lhs, rhs, lhs - rhs, lhs >= rhs and not note, True, note
        )
    raise ValueError(f"unknown branch {branch!r}")


# ---------------------------------------------------------------------------
# the full analysis
# ---------------------------------------------------------------------------


def analyze_pair(jf: ImmersionJet, jhat: ImmersionJet, cfg: PipelineConfig | None = None) -> PairAnalysis:
    """Run the fiberwise construction for an isometric pair on all regions.

    `jhat` may be Euclidean-valued or a cone-valued lift.  Degenerate regions
    are re-run on the pair of cone lifts as the construction requires.
    """
    cfg = cfg or PipelineConfig()
    joint = build_joint(jf, jhat, cfg)
    deg = degeneracy_test(joint, cfg)
    p = joint.left.metric.shape[0]
    if cfg.force_branch == "degenerate":
        deg_flags = np.ones(p, dtype=bool)
    elif cfg.force_branch == "nondegenerate":
        deg_flags = np.zeros(p, dtype=bool)
    else:
        deg_flags = deg.degenerate
    if np.any(deg.right_kernel_rank > 0) and not np.any(deg_flags):
        raise UnsupportedDegeneracy(
            "radical projects non-injectively onto the right factor only"
        )

    profile = pack_profile([deg_flags.astype(int), deg.omega_rank, deg.left_kernel_rank])
    labels = label_regions(joint.left.jet.chart.shape, profile)
    regions: list[RegionState] = []
    lifted = None
    joint_deg = None
    for lab in np.unique(labels):
        mask = labels == lab
        if int(mask.sum()) < cfg.min_region_points:
            continue
        seed_pt = int(np.flatnonzero(mask)[0])
        if deg_flags[seed_pt]:
            if lifted is None:
                model = LightConeModel(jf.ambient.dim)
                lifted = model.lift_jet(jf)
                joint_deg = build_joint(lifted, jhat, cfg)
            if float(np.min(deg.witness_pairing[mask])) < 0.5:
                raise UnsupportedDegeneracy(
                    "witness does not pair with the right position vector"
                )
            regions.extend(
                _construct_region(joint_deg, mask, "degenerate", deg.witness, cfg)
            )
        else:
            regions.extend(_construct_region(joint, mask, "nondegenerate", None, cfg))
    return PairAnalysis(joint=joint, degeneracy=deg, regions=regions, lifted_left=lifted)

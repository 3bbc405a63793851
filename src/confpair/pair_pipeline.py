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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    HypothesisOutOfRange,
    NotIsometricPair,
    SplitFailure,
    UnsupportedDegeneracy,
)
from .indefinite_linalg import (
    by_class,
    complement_stack,
    contract,
    frame_coords,
    gap_stack,
    image_stack,
    kernel_stack,
    max_by_class,
    project_stack,
    radical_stack,
    rank,
    rank_classes,
    signature,
    span_stack,
)
from .jets import (FundamentalData, ImmersionJet, PipelineConfig, align_frames, fundamental_data,
                   grid_derivative)
from .lightcone import LightConeModel
from .regions import interior_mask, label_regions, pack_profile

__all__ = [
    "JointNormalSpace",
    "TransferData",
    "RegionState",
    "PairAnalysis",
    "build_joint",
    "degeneracy_test",
    "analyze_pair",
    "verify_compatibility",
    "BoundCheck",
    "ruling_dimension_bound",
]


MAX_REFINEMENTS = 4  # re-splits of one candidate region before SplitFailure
INTERIOR_MARGIN = 2  # grid steps between the mask's edge and derivative-based residuals


# ---------------------------------------------------------------------------
# the joint normal space
# ---------------------------------------------------------------------------


@dataclass
class JointNormalSpace:
    """Both normal bundles with the difference metric, in aligned frames."""

    left: FundamentalData
    right: FundamentalData
    metric_residual: float

    @property
    def joint_eps(self) -> np.ndarray:
        return np.concatenate([self.left.normal_eps, -self.right.normal_eps])

    def alpha_sum(self) -> np.ndarray:
        """(P, n, n, kl + kr) joint second fundamental form in frame coords."""
        return np.concatenate([self.left.alpha, self.right.alpha], axis=-1)


def build_joint(jf, jg, cfg: PipelineConfig) -> JointNormalSpace:
    """Assemble the joint normal space of an isometric pair."""
    fl, fr = (j if isinstance(j, FundamentalData) else fundamental_data(j, cfg) for j in (jf, jg))
    diff = fl.metric - fr.metric
    scale = max(float(np.max(np.abs(fl.metric))), 1e-300)
    resid = float(np.max(np.abs(diff))) / scale
    if resid > cfg.conformal_tol:
        raise NotIsometricPair(f"induced metrics disagree: relative residual {resid:.3e}")
    return JointNormalSpace(left=fl, right=fr, metric_residual=resid)


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


def _t(stack: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a stack."""
    return np.swapaxes(stack, -1, -2)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products (B,) of the rows of two (B, m) stacks."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _norm(u: np.ndarray) -> np.ndarray:
    """Euclidean norms (B,) of the rows of a (B, m) stack."""
    return np.sqrt(_dot(u, u))


def _nabla(frames: np.ndarray, fund: FundamentalData) -> np.ndarray:
    """Normal covariant derivatives (P, n, k, s) along every chart axis of
    frames (P, k, s) of the normal bundle of `fund`: stencils of the frame
    coordinates plus the normal connection acting on them."""
    chart = fund.jet.chart
    return (np.stack([grid_derivative(frames, chart, i) for i in range(chart.ndim)], axis=1)
            + np.einsum("pitk,pts->piks", fund.nconn, frames))


def _pairing_rows(sides) -> np.ndarray:
    """Rows (B, ., n): each form (B, n, n, k) of `sides` paired with the
    frames (B, k, w) of its normal bundle; sides hold (form, eps, frames)."""
    return np.concatenate([
        contract("pabt,t,ptw->pbwa", alpha, eps, frames)
        .reshape(len(frames), -1, alpha.shape[1])
        for alpha, eps, frames in sides
    ], axis=1)


def joint_nullity(sides, cfg: PipelineConfig, floor: float):
    """Directions killing each form of `sides` on the diag(eps)-complement
    of its frames: (nullities (B,), padded bases (B, n, n)).

    The complements are decided at `cfg.rank_tol`, the kernel at
    `cfg.fd_tol` and `floor`.
    """
    b, n = len(sides[0][2]), sides[0][0].shape[1]
    perps = [complement_stack(frames, np.tile(np.eye(len(eps)), (b, 1, 1)), eps, cfg.rank_tol)
             for _, eps, frames in sides]
    null, basis = np.zeros(b, dtype=int), np.zeros((b, n, n))
    for widths, idx in rank_classes(*(ranks for ranks, _ in perps)):
        rows = _pairing_rows([(alpha[idx], eps, perp[idx][:, :, :w])
                              for (alpha, eps, _), (_, perp), w in zip(sides, perps, widths)])
        null[idx], basis[idx] = kernel_stack(rows, cfg.fd_tol, floor)
    return null, basis


def degeneracy_test(joint: JointNormalSpace, cfg: PipelineConfig) -> DegeneracyData:
    """Radical of the joint curvature span and injectivity of its projections.

    A nonzero kernel of the projection onto the left normal bundle produces
    the null witness field of the degenerate branch, rescaled so that it
    pairs to one with the position vector of the (cone-valued) right map.
    """
    tol = cfg.rank_tol
    p = joint.left.metric.shape[0]
    kl, kr = joint.left.normal_rank, joint.right.normal_rank
    asum = joint.alpha_sum().reshape(p, -1, kl + kr)
    scale = max(float(np.max(np.abs(asum))), 1.0)
    omega_rank, omega = by_class(
        lambda s: radical_stack(s, joint.joint_eps, tol), [span_stack(_t(asum), tol, scale)]
    )
    lk = np.zeros(p, dtype=int)
    rk = np.zeros(p, dtype=int)
    witness = np.zeros((p, kr))
    pairing = np.zeros(p)
    pos_right = None
    if joint.right.jet.ambient.pseudo_pair:
        pos_right = joint.right.normal_coordinates(joint.right.jet.values)
    for (r,), idx in rank_classes(omega_rank):
        if not r:
            continue
        om = omega[idx][:, :, :r]
        # kernel of the left projection: radical vectors with zero left part
        lk[idx], knl = kernel_stack(om[:, :kl], tol * 10, 1.0)
        rk[idx] = kernel_stack(om[:, kl:], tol * 10, 1.0)[0]
        found = lk[idx] > 0
        w = (om[:, kl:] @ knl[:, :, :1])[:, :, 0]
        if pos_right is not None:
            val = _dot(pos_right[idx], joint.right.normal_eps * w)
            paired = np.abs(val) > tol
            w = np.divide(w, val[:, None], out=w.copy(), where=paired[:, None])
            pairing[idx[found]] = paired[found]
        witness[idx[found]] = w[found]
    degenerate = lk > 0
    return DegeneracyData(omega_rank, lk, rk, witness, pairing, degenerate)


# ---------------------------------------------------------------------------
# per-region construction
# ---------------------------------------------------------------------------


@dataclass
class TransferData:
    """A transfer pair: a parallel isometry between subbundles of the two
    normal bundles, with the rulings it cuts out.

    Holds both immersions' fundamental data, aligned frames of the transfer
    bundles, the identification matrix between the normal bundles, and the
    ruling distribution.  The extension construction consumes it, and
    `verify_compatibility` checks it.
    """

    left: FundamentalData
    right: FundamentalData
    transfer_bundle: np.ndarray        # (P, kl, ell)
    transfer_pattern: tuple[int, ...]
    transfer_bundle_right: np.ndarray  # (P, kr, ell)
    identification: np.ndarray         # (P, kr, kl)
    rulings: np.ndarray                # (P, n, d)
    mask: np.ndarray

    @staticmethod
    def from_frames(
        fund_l: FundamentalData,
        fund_r: FundamentalData,
        l_frames: np.ndarray,
        lhat_frames: np.ndarray,
        pattern: tuple[int, ...],
        rulings: np.ndarray,
    ) -> "TransferData":
        """Build the identification from matched pseudo-orthonormal frames:
        left normal coordinates -> coordinates in `l_frames` -> `lhat_frames`."""
        ident = lhat_frames @ frame_coords(l_frames, fund_l.normal_eps, pattern,
                                           np.eye(fund_l.normal_rank))
        p = fund_l.metric.shape[0]
        return TransferData(
            fund_l, fund_r, l_frames, tuple(int(x) for x in pattern),
            lhat_frames, ident, rulings, np.ones(p, dtype=bool),
        )

    @property
    def ell(self) -> int:
        return self.transfer_bundle.shape[2]

    def ambient_frames(self) -> tuple[np.ndarray, np.ndarray]:
        """Ambient vectors (P, m, ell) of the transfer-bundle frames, left
        and right.  Computed on each call: the fields may be replaced."""
        return (np.einsum("pmt,ptu->pmu", self.left.normal_frame, self.transfer_bundle),
                np.einsum("pmt,ptu->pmu", self.right.normal_frame, self.transfer_bundle_right))


@dataclass
class RegionState(TransferData):
    """The transfer pair of one region, with its ranks and verdicts."""

    branch: str
    points: np.ndarray
    ranks: dict
    residuals: dict
    claims: dict
    notes: list  # one line per re-split that led here

    @property
    def ruling_dim(self) -> int:
        return self.rulings.shape[2]


@dataclass
class PairAnalysis:
    degeneracy: DegeneracyData
    regions: list[RegionState]


class _Region:
    """One candidate region: (B, ...) stacks over its points, and the
    products of the stages run so far."""

    def __init__(self, joint, mask, branch, witness, cfg):
        fl, fr = joint.left, joint.right
        self.joint, self.mask, self.branch, self.witness, self.cfg = joint, mask, branch, witness, cfg
        self.pts = np.flatnonzero(mask)
        self.p, self.n = fl.metric.shape[:2]
        self.kl, self.kr = fl.normal_rank, fr.normal_rank
        self.eps_l, self.eps_r = fl.normal_eps, fr.normal_eps
        self.degenerate = branch == "degenerate"
        self.pos_left = self.pos_right = self.e0_left = None
        if fl.jet.ambient.pseudo_pair:
            self.pos_left = fl.normal_coordinates(fl.jet.values)
            self.e0_left = fl.normal_coordinates(LightConeModel.for_ambient(fl.jet.ambient).e0)
        if fr.jet.ambient.pseudo_pair:
            self.pos_right = fr.normal_coordinates(fr.jet.values)
        if self.degenerate and (self.pos_left is None or self.pos_right is None):
            raise UnsupportedDegeneracy("degenerate branch requires cone-valued lifts on both sides")
        self.asum = joint.alpha_sum().reshape(self.p, -1, self.kl + self.kr)[self.pts]
        self.a_scale = max(float(np.max(np.abs(self.asum))), 1.0)
        self.al, self.ar = fl.alpha[self.pts], fr.alpha[self.pts]
        self.ranks: dict[str, np.ndarray] = {}     # product -> (B,) ranks
        self.arrays: dict[str, np.ndarray] = {}    # product -> (P, ...), zero off the region
        self.at: dict[str, np.ndarray] = {}        # product -> (B, m, rank) on the region
        self.patterns: dict[str, tuple] = {}
        self.residuals: dict[str, float] = {
            "metric_agreement": joint.metric_residual,
            "graph_gap": 0.0,
            "identification_isometry": 0.0,
            "shared_sff_match": 0.0,
            "position_pair_orthogonal": 0.0,
        }

    def take(self, product: str, ranks: np.ndarray, padded: np.ndarray, align: str | None):
        """Keep a product of constant rank, swept by `align_frames` when asked."""
        k = int(ranks[0])
        full = np.zeros((self.p, padded.shape[1], k))
        full[self.pts] = padded[:, :, :k]
        pattern = ()
        if align:
            gram = np.diag(self.eps_l) if align == "normal" else np.eye(self.n)
            full, pattern, _ = align_frames(full, gram, self.joint.left.jet.chart.shape,
                                            mask=self.mask, cfg=self.cfg)
        self.ranks[product] = ranks
        self.arrays[product] = full
        self.at[product] = full[self.pts]
        self.patterns[product] = tuple(int(x) for x in pattern)

    def sides(self, frames_l: np.ndarray, frames_r: np.ndarray):
        return [(self.al, self.eps_l, frames_l), (self.ar, self.eps_r, frames_r)]

    def state(self, notes: list[str]) -> RegionState:
        """The region's transfer pair with its ranks, residuals and claims.
        Every rank but `beta_span`'s is constant on the region; that one is
        reported at its smallest value."""
        arr = self.arrays
        return RegionState(
            left=self.joint.left, right=self.joint.right,
            transfer_bundle=arr["transfer_bundle"], transfer_pattern=self.patterns["transfer_bundle"],
            transfer_bundle_right=arr["transfer_bundle_right"],
            identification=arr["identification"], rulings=arr["rulings"], mask=self.mask,
            branch=self.branch, points=self.pts,
            ranks={k: int(v.min()) for k, v in self.ranks.items()},
            residuals=self.residuals, claims=_structural_checks(self), notes=notes,
        )


# The stages.  `build` returns {product: (ranks (B,), padded bases)}; once the
# ranks are constant on the region `_construct_region` keeps each product
# (swept by `align_frames` when `align` names the metric) and runs `settle`,
# which works on frames of one width.


def _parts(reg: _Region) -> dict:
    """Stage 1: radical of the joint curvature span, private and shared parts."""
    tol, eps = reg.cfg.rank_tol, reg.joint.joint_eps
    kl, kr, b = reg.kl, reg.kr, len(reg.pts)
    res = reg.residuals
    cols_l = _t(reg.al.reshape(b, -1, kl))
    cols_r = _t(reg.ar.reshape(b, -1, kr))
    plain = span_stack(_t(reg.asum), tol, reg.a_scale)
    rad = by_class(lambda s: radical_stack(s, eps, tol), [plain])
    span_l = span_stack(cols_l, tol, reg.a_scale)
    span_r = span_stack(cols_r, tol, reg.a_scale)
    if reg.degenerate:
        pos_l, pos_r = reg.pos_left[reg.pts][:, :, None], reg.pos_right[reg.pts][:, :, None]
        pospair = np.concatenate([pos_l, pos_r], axis=1)
        # position pair must be orthogonal to, but not contained in, the span
        res["position_pair_orthogonal"] = max_by_class(
            lambda idx, s: np.abs(_t(s) @ (eps[:, None] * pospair[idx])), *plain
        )
        om = by_class(lambda pp, s: span_stack(np.concatenate([pp, s], axis=2), tol),
                      [(np.ones(b, dtype=int), pospair), rad])
        aug_l = span_stack(np.concatenate([pos_l, cols_l], axis=2), tol)
        aug_r = span_stack(np.concatenate([pos_r, cols_r], axis=2), tol)
    else:
        om, aug_l, aug_r = rad, span_l, span_r
    res["omega_isotropy"] = max_by_class(lambda idx, o: np.abs(_t(o) @ (o * eps[:, None])), *om)

    # private parts: curvature span vectors orthogonal to the radical
    gamma_l = by_class(lambda o, s: complement_stack(o[:, :kl], s, reg.eps_l, tol), [om, span_l])
    gamma_r = by_class(lambda o, s: complement_stack(o[:, kl:], s, reg.eps_r, tol), [om, span_r])
    return {
        "omega": om,
        "private_left": gamma_l,
        "private_right": gamma_r,
        "shared_left": by_class(lambda g, a: complement_stack(g, a, reg.eps_l, tol), [gamma_l, aug_l]),
        "shared_right": by_class(lambda g, a: complement_stack(g, a, reg.eps_r, tol), [gamma_r, aug_r]),
    }


def _identify(reg: _Region):
    """The radical as a graph: identification of the shared parts, and its residuals."""
    tol, kl, kr, b = reg.cfg.rank_tol, reg.kl, reg.kr, len(reg.pts)
    res = reg.residuals
    om, sh_l, sh_r = reg.at["omega"], reg.at["shared_left"], reg.at["shared_right"]
    ident = reg.arrays["identification"] = np.zeros((reg.p, kr, kl))
    wl, wr = om[:, :kl], om[:, kl:]
    res["graph_gap"] = max_by_class(lambda idx, w: gap_stack(w, sh_l[idx]), *span_stack(wl, tol))
    j_mat = wr @ np.linalg.pinv(wl, rcond=1e-10)
    ident[reg.pts] = j_mat
    # isometry of the identification on the shared part
    gl = _t(sh_l) @ (sh_l * reg.eps_l[:, None])
    jr = j_mat @ sh_l
    gr = _t(jr) @ (jr * reg.eps_r[:, None])
    res["identification_isometry"] = float(np.max(np.abs(gl - gr), initial=0.0))
    # identification must carry the projected forms into each other
    proj_l = project_stack(sh_l, reg.eps_l, _t(reg.al.reshape(b, -1, kl)), tol)
    proj_r = project_stack(sh_r, reg.eps_r, _t(reg.ar.reshape(b, -1, kr)), tol)
    res["shared_sff_match"] = float(np.max(np.abs(proj_r - ident[reg.pts] @ proj_l)))


def _theta(reg: _Region) -> dict:
    """Stage 2: the private nullity, directions killing both private projections."""
    rows = _pairing_rows(reg.sides(reg.at["private_left"], reg.at["private_right"]))
    return {"theta": kernel_stack(rows, reg.cfg.rank_tol, 1.0)}


def _shared_span(reg: _Region) -> dict:
    """Stage 3: the shared curvature span over the private nullity."""
    b, kl = len(reg.pts), reg.kl
    vals = np.einsum("pau,pabt->ptub", reg.at["theta"], reg.al).reshape(b, kl, -1)
    if reg.degenerate:
        vals = np.concatenate([reg.pos_left[reg.pts][:, :, None], vals], axis=2)
    return {"shared_span": span_stack(vals, reg.cfg.rank_tol, reg.a_scale)}


def _containment(reg: _Region):
    """Containment of the shared span in the shared part (structure check)."""
    s_frames, sh_l = reg.at["shared_span"], reg.at["shared_left"]
    gap_s = 0.0
    if s_frames.shape[2] and sh_l.shape[2]:
        # the parts stage does not align: sh_l is orthonormal, its projector sh_l sh_l^T
        gap_s = float(np.max(np.abs(s_frames - sh_l @ (_t(sh_l) @ s_frames))))
    elif s_frames.shape[2]:
        gap_s = 1.0
    reg.residuals["shared_span_containment"] = gap_s


def _matched(reg: _Region) -> dict:
    """Stage 4: the connection-gap tensor on the shared span and its common
    kernel, the matched part."""
    fl, fr = reg.joint.left, reg.joint.right
    n, b = reg.n, len(reg.pts)
    s_frames = reg.arrays["shared_span"]
    r_s = s_frames.shape[2]
    s_pat = np.asarray(reg.patterns["shared_span"], dtype=float)
    hat_frames = np.einsum("pts,psu->ptu", reg.arrays["identification"], s_frames)
    # coefficients of the two covariant derivatives on the span frames:
    # gap_t[p, i, u, s] with u the frame component and s the section
    gap_t = (frame_coords(s_frames[:, None], reg.eps_l, s_pat, _nabla(s_frames, fl))
             - frame_coords(hat_frames[:, None], reg.eps_r, s_pat, _nabla(hat_frames, fr)))
    reg.hat_frames, reg.arrays["gap_tensor"] = hat_frames, gap_t
    # skewness w.r.t. the span metric: <K eta, zeta> + <eta, K zeta> = 0
    pairing = np.einsum("piws,w->pisw", gap_t, s_pat)  # <K(d_i) delta_s, delta_w>
    reg.residuals["gap_skewness"] = float(np.max(np.abs(
        (pairing + np.swapaxes(pairing, 2, 3))[reg.pts]
    ), initial=0.0))
    # matched part: common kernel of the gap tensor
    null, coeffs = kernel_stack(gap_t[reg.pts].reshape(b, n * r_s, r_s), reg.cfg.fd_tol, 1.0)
    return {"matched_span": image_stack(reg.at["shared_span"], null, coeffs, reg.cfg.rank_tol)}


def _mismatched(reg: _Region):
    """The complement of the matched part inside the shared span."""
    r_s, n_s0 = reg.at["shared_span"].shape[2], reg.at["matched_span"].shape[2]
    _, basis = complement_stack(reg.at["matched_span"], reg.at["shared_span"], reg.eps_l, reg.cfg.rank_tol)
    mism = reg.arrays["mismatched_span"] = np.zeros((reg.p, reg.kl, r_s - n_s0))
    mism[reg.pts] = basis[:, :, : r_s - n_s0]


def _transfer(reg: _Region) -> dict:
    """Stage 5: the transfer bundle, matched sections whose derivatives along
    the private nullity stay inside the shared span on both sides."""
    fl, fr = reg.joint.left, reg.joint.right
    b = len(reg.pts)
    s0_frames = reg.arrays["matched_span"]
    s0_hat = np.einsum("pts,psu->ptu", reg.arrays["identification"], s0_frames)
    dl = _nabla(s0_frames, fl)[reg.pts]  # (B, i, kl, n_s0)
    dr = _nabla(s0_hat, fr)[reg.pts]
    theta_coords = np.einsum("pia,pau->piu", fl.tangent_frame, reg.arrays["theta"])[reg.pts]
    sf, sh = reg.at["shared_span"][:, None], reg.hat_frames[reg.pts][:, None]
    s_pat = reg.patterns["shared_span"]
    # the derivatives along each nullity direction u, off the shared span:
    # rows ordered by u, the left block of each u before its right block
    yl = np.einsum("piu,piks->puks", theta_coords, dl)  # (B, u, kl, n_s0)
    yr = np.einsum("piu,piks->puks", theta_coords, dr)
    off = np.concatenate([yl - sf @ frame_coords(sf, reg.eps_l, s_pat, yl),
                          yr - sh @ frame_coords(sh, reg.eps_r, s_pat, yr)], axis=2)
    rows = off.reshape(b, theta_coords.shape[2] * (reg.kl + reg.kr), s0_frames.shape[2])
    null, coeffs = kernel_stack(rows, reg.cfg.fd_tol, reg.a_scale)
    return {"transfer_bundle": image_stack(reg.at["matched_span"], null, coeffs, reg.cfg.rank_tol)}


def _rulings(reg: _Region) -> dict:
    """Stage 6: common rulings, the joint nullity against both transfer complements."""
    reg.arrays["transfer_bundle_right"] = np.einsum(
        "pts,psu->ptu", reg.arrays["identification"], reg.arrays["transfer_bundle"]
    )
    sides = reg.sides(reg.at["transfer_bundle"], reg.arrays["transfer_bundle_right"][reg.pts])
    return {"rulings": joint_nullity(sides, reg.cfg, reg.a_scale)}


def _tails(reg: _Region):
    """The nullity identity for the private part, and the rank of the span
    of the private forms for the bound dim theta >= n - rank."""
    sides = reg.sides(reg.at["shared_span"], reg.hat_frames[reg.pts])
    null, ker = joint_nullity(sides, reg.cfg, reg.a_scale)
    theta = reg.at["theta"]
    reg.residuals["theta_identity_gap"] = max_by_class(lambda idx, k: gap_stack(k, theta[idx]), null, ker)
    b, n = len(reg.pts), reg.n
    parts = [
        contract("pabt,t,ptw->pabw", alpha, eps, private).reshape(b, n * n, private.shape[2])
        for alpha, eps, private in ((reg.al, reg.eps_l, reg.at["private_left"]),
                                    (reg.ar, reg.eps_r, reg.at["private_right"]))
    ]
    reg.ranks["beta_span"] = rank(_t(np.concatenate(parts, axis=2)), reg.cfg.rank_tol, reg.a_scale)


@dataclass(frozen=True)
class _Stage:
    name: str
    build: Callable
    align: str | None = None   # "normal" (left normal metric) or "tangent" (identity)
    equal: tuple = ()          # (product, product, message): ranks that must agree
    settle: Callable | None = None


_STAGES = (
    _Stage("parts", _parts, equal=(
        ("shared_right", "shared_left", "shared parts of the two spans have different ranks"),
        ("omega", "shared_left", "radical rank {} != shared rank {}: not a graph"),
    ), settle=_identify),
    _Stage("theta", _theta),
    _Stage("shared_span", _shared_span, align="normal", settle=_containment),
    _Stage("matched_span", _matched, align="normal", settle=_mismatched),
    _Stage("transfer_bundle", _transfer, align="normal"),
    _Stage("rulings", _rulings, align="tangent", settle=_tails),
)


def _construct_region(
    joint: JointNormalSpace,
    mask: np.ndarray,
    branch: str,
    witness: np.ndarray | None,
    cfg: PipelineConfig,
    depth: int = 0,
    notes: tuple[str, ...] = (),
) -> list[RegionState]:
    """Build the full chain of subbundles on one candidate region.

    The stages run in order over the region's points.  When a rank map of a
    stage is not constant, the region is re-split by every rank map so far
    and each part starts over.  Returns one state per constant-rank
    subregion.
    """
    reg = _Region(joint, mask, branch, witness, cfg)
    columns: list[np.ndarray] = []
    for stage in _STAGES:
        found = stage.build(reg)
        columns += [ranks for ranks, _ in found.values()]
        if any(ranks.min() != ranks.max() for ranks, _ in found.values()):
            return _refine(reg, columns, depth, stage.name, notes)
        for product, (ranks, padded) in found.items():
            reg.take(product, ranks, padded, stage.align)
        for a, b, message in stage.equal:
            if reg.ranks[a][0] != reg.ranks[b][0]:
                raise SplitFailure(message.format(reg.ranks[a][0], reg.ranks[b][0]))
        if stage.settle:
            stage.settle(reg)
    return [reg.state(list(notes))]


def _refine(reg: _Region, columns, depth: int, stage: str, notes: tuple[str, ...]):
    """Re-split a region by its rank maps and construct each part."""
    full = np.zeros((len(columns), reg.p), dtype=int)
    full[:, reg.pts] = columns
    # all points off the mask share one profile, unequal to any on it
    labels = label_regions(reg.joint.left.jet.chart.shape, pack_profile([reg.mask.astype(int), *full]))
    parts = np.unique(labels[reg.pts])
    line = f"{stage}: ranks jump at depth {depth}, {len(parts)} subregions"
    if depth >= MAX_REFINEMENTS:
        raise SplitFailure("; ".join(
            ["rank maps keep jumping after maximal refinement", *notes, line]
        ))
    out = []
    for lab in parts:
        sub = (labels == lab) & reg.mask
        out.extend(_construct_region(reg.joint, sub, reg.branch, reg.witness, reg.cfg,
                                     depth + 1, notes + (line,)))
    return out


def _structural_checks(reg: _Region) -> dict:
    """Degenerate-branch claims and shared invariants of a built region."""
    pts, cfg, arr = reg.pts, reg.cfg, reg.arrays
    n, eps_l = reg.n, reg.eps_l
    claims = {}
    d_theta = arr["theta"].shape[2]
    ruling_dim = arr["rulings"].shape[2]

    def sig(frames):
        basis = frames[pts[0]]
        return signature(basis.T @ (basis * eps_l[:, None]), cfg.rank_tol * 10)

    # dim theta >= n - rank(private form span) at every point; the
    # refinement does not make that rank constant, so take its smallest value
    bound = n - int(reg.ranks["beta_span"].min())
    claims["theta_dimension"] = {"dim": d_theta, "lower_bound": bound, "passed": d_theta >= bound}

    if reg.degenerate:
        for name in ("shared_span", "matched_span"):
            s = sig(arr[name])
            claims[f"{name}_lorentzian"] = {"signature": s, "passed": s[1] == 1 and s[2] == 0}
        mism = arr["mismatched_span"]
        r_s1 = mism.shape[2]
        sig_s1 = sig(mism)
        claims["mismatched_span_riemannian"] = {
            "signature": sig_s1,
            "dim_at_most_five": r_s1 <= 5,
            "passed": sig_s1[1] == 0 and sig_s1[2] == 0 and r_s1 <= 5,
        }
        # gap tensor must vanish along the private nullity
        theta_coords = np.einsum("pia,pau->piu", reg.joint.left.tangent_frame, arr["theta"])
        gz = np.einsum("piu,pivw->puvw", theta_coords, arr["gap_tensor"])
        res_gz = float(np.max(np.abs(gz[pts]), initial=0.0))
        claims["gap_vanishes_on_private_nullity"] = {
            "residual": res_gz,
            "passed": res_gz < cfg.fd_tol * 100,
        }
        # the mismatched part is spanned by the projected form over the nullity
        theta, alpha = arr["theta"][pts], reg.al
        vals = np.einsum("pau,pabt->pubt", theta, alpha).reshape(len(pts), d_theta * n, len(eps_l))
        # the values projected onto the mismatched part
        proj = project_stack(mism[pts], eps_l, _t(vals), cfg.rank_tol)
        gamma_ranks = set(rank(proj, cfg.rank_tol, 1.0).tolist())
        claims["mismatched_spanned_by_nullity_form"] = {
            "ranks": sorted(gamma_ranks),
            "expected": r_s1,
            "passed": gamma_ranks == {r_s1},
        }
        sig_l = sig(arr["transfer_bundle"])
        claims["rulings_positive_and_transfer_lorentzian"] = {
            "ruling_dim": ruling_dim,
            "transfer_signature": sig_l,
            "passed": ruling_dim > 0 and sig_l[1] == 1 and sig_l[2] == 0,
        }
        # position vector sits inside the transfer bundle
        lf, pos = arr["transfer_bundle"][pts], reg.pos_left[pts]
        proj = (lf @ np.linalg.solve(_t(lf) @ lf, _t(lf) @ pos[:, :, None]))[:, :, 0]
        res_pos = float(np.max(_norm(pos - proj)))
        # <alpha(Z, Z), position> = -|Z|^2 on the private nullity
        res_th0 = 0.0
        for u in range(d_theta):
            z = theta[:, :, u]
            az = contract("pabt,pa,pb->pt", alpha, z, z)
            res_th0 = max(res_th0, float(np.max(np.abs(_dot(az, eps_l * pos) + 1.0))))
        claims["position_in_transfer_bundle"] = {
            "residual": res_pos,
            "passed": res_pos < cfg.fd_tol * 100,
        }
        claims["cone_position_sff_identity"] = {
            "residual": res_th0,
            "passed": res_th0 < cfg.fd_tol,
        }
        if reg.witness is not None and reg.e0_left is not None and arr["omega"].shape[2]:
            vec = np.concatenate([reg.e0_left[pts], reg.witness[pts]], axis=1)[:, :, None]
            om = arr["omega"][pts]
            res_wit = float(np.max(_norm((vec - om @ (_t(om) @ vec))[:, :, 0])))
            claims["generator_witness_pair_in_radical"] = {
                "residual": res_wit,
                "passed": res_wit < cfg.fd_tol * 10,
            }
    else:
        sig_s = sig(arr["shared_span"])
        claims["shared_span_signature"] = {
            "signature": sig_s,
            "riemannian": sig_s[1] == 0 and sig_s[2] == 0,
        }
    return claims


# ---------------------------------------------------------------------------
# compatibility conditions for the transfer isometry
# ---------------------------------------------------------------------------


def verify_compatibility(data: TransferData) -> dict:
    """Residuals of the two structural conditions for a transfer pair.

    (i) the transfer isometry is parallel and preserves second fundamental
    forms; (ii) the transfer bundles are parallel along the rulings.  Also
    `transfer_isometry`, max |lh^T diag(eps_r) lh - lf^T diag(eps_l) lf| over
    the mask: both frames must carry the same metric, reported, not gated.
    Derivative-based residuals are evaluated on the interior of the mask.
    The pair pipeline's regions and the ruled extension's tube both go
    through this check.
    """
    fund_l, fund_r = data.left, data.right
    chart = fund_l.jet.chart
    eps_l, eps_r = fund_l.normal_eps, fund_r.normal_eps
    n = fund_l.metric.shape[1]
    inner = interior_mask(chart.shape, data.mask, INTERIOR_MARGIN)
    if not inner.any():
        inner = data.mask
    ipts = np.flatnonzero(inner)
    pts = np.flatnonzero(data.mask)

    out = {"interior_points": int(ipts.size)}
    lf, lh = data.transfer_bundle, data.transfer_bundle_right
    gap = _t(lh) @ (lh * eps_r[:, None]) - _t(lf) @ (lf * eps_l[:, None])
    out["transfer_isometry"] = float(np.max(np.abs(gap[pts]), initial=0.0))
    identification, rulings = data.identification, data.rulings

    def proj_onto(frames, eps, vecs):
        return frames @ frame_coords(frames, eps, data.transfer_pattern, vecs)

    # preserves second fundamental forms
    al = fund_l.alpha.reshape(len(fund_l.alpha), n * n, -1).transpose(0, 2, 1)
    ar = fund_r.alpha.reshape(len(fund_r.alpha), n * n, -1).transpose(0, 2, 1)
    pl = proj_onto(lf, eps_l, al)
    pr = proj_onto(lh, eps_r, ar)
    moved = np.einsum("pts,ps...->pt...", identification, pl)
    out["transfer_preserves_sff"] = float(np.max(np.abs((pr - moved)[pts]), initial=0.0))

    # parallel transfer: compare covariant derivatives of matched sections
    d_l, d_r = _nabla(lf, fund_l), _nabla(lh, fund_r)  # (P, n, k, ell)
    in_l, in_r = proj_onto(lf[:, None], eps_l, d_l), proj_onto(lh[:, None], eps_r, d_r)
    rhs = np.einsum("pts,pisu->pitu", identification, in_l)
    out["transfer_parallel"] = float(np.max(np.abs((in_r - rhs)[ipts]), initial=0.0))

    # parallel along rulings: the derivative along each ruling field must
    # stay inside the bundle, so contract the per-axis leftovers with the
    # ruling coordinates before taking norms
    rul_coords = np.einsum("pia,pau->piu", fund_l.tangent_frame, rulings)
    acc = [np.einsum("pid,piku->pkud", rul_coords, d - d_in)  # (P, k, ell, d)
           for d, d_in in ((d_l, in_l), (d_r, in_r))]
    out["bundle_parallel_along_rulings"] = max(float(np.max(np.abs(a[ipts]), initial=0.0))
                                               for a in acc)
    return out


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


def analyze_pair(jf: ImmersionJet, jhat: ImmersionJet, cfg: PipelineConfig) -> PairAnalysis:
    """Run the fiberwise construction for an isometric pair on all regions.

    `jhat` may be Euclidean-valued or a cone-valued lift.  Degenerate regions
    are re-run on the pair of cone lifts as the construction requires.
    """
    joint = build_joint(jf, jhat, cfg)
    deg = degeneracy_test(joint, cfg)
    if np.any(deg.right_kernel_rank > 0) and not np.any(deg.degenerate):
        raise UnsupportedDegeneracy(
            "radical projects non-injectively onto the right factor only"
        )

    profile = pack_profile([deg.degenerate.astype(int), deg.omega_rank, deg.left_kernel_rank])
    labels = label_regions(joint.left.jet.chart.shape, profile)
    regions: list[RegionState] = []
    joint_deg = None  # the pair of cone lifts, built for the first degenerate region
    for lab in np.unique(labels):
        mask = labels == lab
        if deg.degenerate[np.flatnonzero(mask)[0]]:
            if joint_deg is None:
                joint_deg = build_joint(LightConeModel(jf.ambient.dim).lift_jet(jf), joint.right, cfg)
            if float(np.min(deg.witness_pairing[mask])) < 0.5:
                raise UnsupportedDegeneracy(
                    "witness does not pair with the right position vector"
                )
            regions.extend(
                _construct_region(joint_deg, mask, "degenerate", deg.witness, cfg)
            )
        else:
            regions.extend(_construct_region(joint, mask, "nondegenerate", None, cfg))
    return PairAnalysis(degeneracy=deg, regions=regions)

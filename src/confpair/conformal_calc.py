"""Conformal invariants of a single immersion.

Covers the umbilic-corrected second fundamental form along a ruling
candidate, the subbundle it spans, verification that a distribution is
conformally ruled (umbilic leaves plus integrability), the conformal
s-nullity search, and the composition/rigidity criterion built on it.

The s-nullity of a point is a maximum over s-dimensional normal subspaces
and vectors inside them.  For s = 1 the search is exact up to an eigenvalue
clustering tolerance; for s >= 2 we report a certified lower bound: the
certificate subspace and vector are returned and re-evaluating the kernel
dimension at the certificate reproduces the reported value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisOutOfRange, RankJump
from .indefinite_linalg import rank, span_stack
from .jets import (
    DistributionFrame,
    FundamentalData,
    PipelineConfig,
    align_frames,
    bracket_residual,
    leaf_mean_curvature,
    umbilic_residual,
)

__all__ = [
    "ConformalSFF",
    "conformal_sff",
    "RuledVerdict",
    "is_conformally_ruled",
    "NullityReport",
    "s_nullity_at",
    "conformal_s_nullity",
    "rigidity_thresholds",
    "RigidityReport",
    "rigidity_criterion",
]

# conformally ruled: leaf umbilic and bracket residuals up to these; s-nullity
# search: relative eigenvalue cluster width, random s-planes tried for s >= 2
UMBILIC_TOL, BRACKET_TOL, CLUSTER_TOL, RESTARTS = 1e-6, 1e-4, 1e-6, 8


# ---------------------------------------------------------------------------
# the umbilic-corrected form and the subbundle it spans
# ---------------------------------------------------------------------------


@dataclass
class ConformalSFF:
    """alpha with the leaf-umbilic part removed, and the span it generates."""

    dist: DistributionFrame
    eta: np.ndarray            # (P, k) leaf mean curvature, normal-frame coords
    beta: np.ndarray           # (P, n, n, k) corrected form, tangent-frame coords
    span_frames: np.ndarray    # (P, k, ell) aligned frames of span{beta(Z, X)}
    ell: int
    nullity_containment: float  # residual of D inside the corrected-form nullity


def conformal_sff(fund: FundamentalData, dist: DistributionFrame, cfg: PipelineConfig) -> ConformalSFF:
    """Corrected form beta = alpha - <,> eta and the subbundle spanned by
    beta(Z, X) with Z along the distribution, ranked at 10 `cfg.rank_tol`
    and aligned at the floor `cfg.align_floor`."""
    p, n = fund.metric.shape[0], fund.metric.shape[1]
    k = fund.normal_rank
    eta = leaf_mean_curvature(fund, dist)
    beta = fund.alpha - np.eye(n)[None, :, :, None] * eta[:, None, None, :]
    # spans of beta(Z_u, E_b) per point
    bz = np.einsum("pau,pabt->ptub", dist.basis, beta).reshape(p, k, -1)
    scale = max(float(np.max(np.abs(fund.alpha))), 1.0)
    ranks, bases = span_stack(bz, 10 * cfg.rank_tol, scale)
    if ranks.min() != ranks.max():
        raise RankJump(f"corrected-form span rank varies on the grid: {set(ranks.tolist())}")
    ell = int(ranks[0])
    # the span's bases, so that the sweep sees the rank decided at `scale`
    frames, _, _ = align_frames(bases[:, :, :ell], np.diag(fund.normal_eps), fund.jet.chart.shape,
                                cfg=cfg)
    # containment: values beta(Z, X) must lie in the span (D inside the
    # nullity of the corrected form projected off the span)
    paired = np.einsum("pau,pabt->pubt", dist.basis, beta)  # (P, d, n, k)
    resid = 0.0
    if ell < k:
        span = bases[:, :, :ell]  # orthonormal, with the span of `frames`
        proj = span @ np.swapaxes(span, 1, 2)  # (P, k, k)
        resid = float(np.max(np.abs(paired - paired @ np.swapaxes(proj, 1, 2)[:, None]), initial=0.0))
    return ConformalSFF(dist, eta, beta, frames, ell, resid)


# ---------------------------------------------------------------------------
# conformally ruled verification
# ---------------------------------------------------------------------------


@dataclass
class RuledVerdict:
    ruled: bool
    umbilic_residual: float
    bracket_residual_max: float


def is_conformally_ruled(fund: FundamentalData, dist: DistributionFrame) -> RuledVerdict:
    """Leaves mapped into affine subspaces or round spheres: umbilic in the
    ambient along an integrable distribution."""
    umb = umbilic_residual(fund, dist)
    br = float(np.max(bracket_residual(fund, dist)))
    return RuledVerdict(
        ruled=bool(umb <= UMBILIC_TOL and br <= BRACKET_TOL),
        umbilic_residual=umb,
        bracket_residual_max=br,
    )


# ---------------------------------------------------------------------------
# conformal s-nullity
# ---------------------------------------------------------------------------


@dataclass
class NullityReport:
    s: int
    value: int
    certificate_subspace: np.ndarray  # (k, s) orthonormal columns
    certificate_vector: np.ndarray    # (k,) vector inside the subspace
    exact: bool


def _kernel_dim(alpha: np.ndarray, v: np.ndarray, zeta: np.ndarray) -> int:
    """dim of {X : <alpha(X, Y) - <X,Y> zeta, v_t> = 0 for all Y, t}."""
    n = alpha.shape[0]
    paired = np.einsum("ijc,ct->ijt", alpha, v)
    zv = zeta @ v  # (s,)
    rows = paired - np.eye(n)[:, :, None] * zv[None, None, :]
    floor = max(float(np.max(np.abs(alpha), initial=0.0)), 1e-12)
    return n - rank(rows.reshape(n, -1).T, CLUSTER_TOL, floor)


def _eig_multiplicity(sym: np.ndarray) -> tuple[int, float]:
    """Largest cluster of eigenvalues within the tolerance; returns (count, center)."""
    vals = np.linalg.eigvalsh(sym)
    scale = max(float(np.max(np.abs(vals))), 1.0)
    best, center = 1, float(vals[0])
    i = 0
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and vals[j + 1] - vals[i] <= CLUSTER_TOL * scale:
            j += 1
        if j - i + 1 > best:
            best = j - i + 1
            center = float(np.mean(vals[i : j + 1]))
        i += 1
    return best, center


def _unit_sphere_samples(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0]])
    pts = rng.normal(size=(count, dim))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def s_nullity_at(
    alpha: np.ndarray,
    s: int,
    seed: int = 0,
    restarts: int = RESTARTS,
    samples: int = 128,
) -> NullityReport:
    """Conformal s-nullity of a single point from alpha in orthonormal frames.

    alpha: (n, n, p) with orthonormal tangent and normal frames (Riemannian).
    For s = 1 the eigenvalue-multiplicity sweep is exact up to clustering;
    for s >= 2 the result is a lower bound with a certificate.
    """
    n, _, p = alpha.shape
    if not 1 <= s <= p:
        raise HypothesisOutOfRange(f"s={s} outside 1..{p}")
    rng = np.random.default_rng(seed)
    if s == 1:
        best = (-1, None, None)
        if p == 1:
            candidates = np.array([[1.0]])
        else:
            candidates = _unit_sphere_samples(p, samples, rng)
            candidates = np.vstack([candidates, np.eye(p)])
        for xi in candidates:
            a_xi = np.einsum("ijc,c->ij", alpha, xi)
            mult, center = _eig_multiplicity(a_xi)
            if mult > best[0]:
                best = (mult, xi.copy(), center)
        # local refinement around the best direction (coordinate ascent)
        if p > 1:
            xi = best[1].copy()
            step = 0.2
            for _ in range(60):
                improved = False
                for d in range(p):
                    for sgn in (1.0, -1.0):
                        trial = xi + sgn * step * np.eye(p)[d]
                        trial /= np.linalg.norm(trial)
                        mult, center = _eig_multiplicity(np.einsum("ijc,c->ij", alpha, trial))
                        if mult > best[0]:
                            best = (mult, trial.copy(), center)
                            xi = trial
                            improved = True
                if not improved:
                    step *= 0.5
                    if step < 1e-3:
                        break
        mult, xi, center = best
        v = xi[:, None]
        zeta = center * xi
        value = _kernel_dim(alpha, v, zeta)
        return NullityReport(1, value, v, zeta, exact=True)

    # s >= 2: randomized multi-start over s-planes, candidate vectors from
    # the geometry (zeta = projection of alpha(X, X) for unit tangents X)
    def evaluate_plane(v: np.ndarray):
        nonlocal best
        # candidate zetas from tangent directions
        cands = [np.zeros(p)]
        for x in tangent_candidates:
            ax = x @ (x @ alpha)  # alpha(x, x)
            cands.append(v @ (v.T @ ax))
        for zeta in cands:
            val = _kernel_dim(alpha, v, zeta)
            if val > best[0]:
                best = (val, v.copy(), zeta.copy())

    tangent_candidates = list(np.eye(n))
    for xi in _unit_sphere_samples(p, 8, rng):
        a_xi = np.einsum("ijc,c->ij", alpha, xi)
        _, vecs = np.linalg.eigh(a_xi)
        tangent_candidates.extend(vecs.T)
    tangent_candidates.extend(_unit_sphere_samples(n, 16, rng))

    best = (-1, None, None)
    if s == p:
        planes = [np.eye(p)]
    else:
        planes = []
        if p <= 3:
            for x in _unit_sphere_samples(p, samples, rng):
                q, _ = np.linalg.qr(np.column_stack([x] + [rng.normal(size=p) for _ in range(s - 1)]))
                planes.append(q[:, :s])
        for _ in range(restarts):
            q, _ = np.linalg.qr(rng.normal(size=(p, s)))
            planes.append(q[:, :s])
    for v in planes:
        evaluate_plane(v)
    value, v, zeta = best
    # certificate re-evaluation must reproduce the value
    check = _kernel_dim(alpha, v, zeta)
    return NullityReport(s, int(check), v, zeta, exact=False)


def conformal_s_nullity(fund: FundamentalData, s: int, points=None, *,
                        cfg: PipelineConfig) -> list[tuple[int, NullityReport]]:
    """Per-point s-nullity reports; `points` defaults to all grid points for
    s = 1 and the chart center otherwise.  Each point's search draws from
    the run's `cfg.seed`."""
    if any(e != 1 for e in fund.normal_pattern) or any(e != 1 for e in fund.tangent_pattern):
        raise HypothesisOutOfRange("s-nullity search expects Riemannian data")
    npts = fund.metric.shape[0]
    if points is None:
        points = range(npts) if s == 1 else [fund.jet.chart.center_index()]
    return [(int(q), s_nullity_at(fund.alpha[q], s, seed=cfg.seed * 1_000_003 + int(q)))
            for q in points]


# ---------------------------------------------------------------------------
# the composition criterion
# ---------------------------------------------------------------------------


def rigidity_thresholds(n: int, p: int, q: int) -> dict:
    """Bounds the s-nullities must satisfy for the composition criterion.

    Raises HypothesisOutOfRange unless p <= 5 and p <= q <= n - p - 3.
    """
    if not (1 <= p <= 5):
        raise HypothesisOutOfRange(f"codimension p={p} must be between 1 and 5")
    if not (p <= q <= n - p - 3):
        raise HypothesisOutOfRange(f"target codimension q={q} outside [{p}, {n - p - 3}]")
    thresholds = {s: n + p - q - 2 * s - 1 for s in range(1, p + 1)}
    extra = n - 2 * (q - p) + 1 if q >= p + 5 else None
    return {"per_s": thresholds, "extra_nu1": extra}


@dataclass
class RigidityReport:
    n: int
    p: int
    q: int
    thresholds: dict
    nu_lower_bounds: dict          # s -> max over evaluated points
    satisfied: bool                # all bounds hold (up to search confidence)
    conclusive_violation: bool     # some lower bound already exceeds its threshold


def rigidity_criterion(fund: FundamentalData, q: int, points=None, *,
                       cfg: PipelineConfig) -> RigidityReport:
    """Evaluate the nullity hypotheses of the composition criterion.

    Lower bounds are used, so a violated inequality is conclusive while a
    satisfied one holds up to search confidence.
    """
    n = fund.metric.shape[1]
    p = fund.normal_rank
    th = rigidity_thresholds(n, p, q)
    nu = {s: max(rep.value for _, rep in conformal_s_nullity(fund, s, points=points, cfg=cfg))
          for s in range(1, p + 1)}
    ok = all(nu[s] <= th["per_s"][s] for s in nu)
    if th["extra_nu1"] is not None:
        ok = ok and nu[1] <= th["extra_nu1"]
    violated = any(nu[s] > th["per_s"][s] for s in nu) or (
        th["extra_nu1"] is not None and nu[1] > th["extra_nu1"]
    )
    return RigidityReport(
        n=n, p=p, q=q, thresholds=th, nu_lower_bounds=nu,
        satisfied=ok, conclusive_violation=violated,
    )

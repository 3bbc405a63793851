"""The Lorentzian light-cone model of conformal geometry.

Euclidean space R^N sits isometrically inside the light cone of the
(N+2)-dimensional Lorentz space through the quadratic chart

    x  |->  -|x|^2/2 e0 + e1 + sum_i x_i e_{i+1},

written in a pseudo-orthonormal basis with <e0,e0> = <e1,e1> = 0 and
<e0,e1> = 1.  Rescaling a conformal immersion by the inverse conformal
factor turns it into an isometric immersion into the cone; projecting a
cone-valued immersion back recovers a Euclidean representative of its
conformal class.  This module implements those maps on whole 2-jets, plus
the residual checks that tie the second fundamental forms of the two
pictures together.

Every jet-level map is `Jet3` arithmetic on the components of the jet
(`ImmersionJet.components`): the lift applies `LightConeModel.chart`, the
one spelling of the cone chart, the rescaling multiplies each component by
the factor's jet, and the projection divides by the component <F, e0>.  The
Leibniz and chain rules live in `jet3` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jet3
from .errors import NotConformal, NotConformallyRuled, OnExceptionalRay
from .indefinite_linalg import ScalarProduct, contract, inverse_stack
from .jet3 import Jet3
from .jets import (
    ChartGrid,
    FundamentalData,
    ImmersionJet,
    PipelineConfig,
    christoffel,
    conformal_factor_of_metrics,
    coordinate_distribution,
    fundamental_data,
    induced_metric,
    leaf_mean_curvature,
    scalar_fd_jets,
    umbilic_residual,
)

__all__ = [
    "LightConeModel",
    "scalar_jet",
    "isometric_representative",
    "cone_projection",
    "position_identities",
    "SffTransferData",
    "sff_transfer_check",
]

# a cone-valued map pairs with the null generator above RAY_TOL; the lift of
# a transfer check has umbilic leaves up to LIFT_UMBILIC_TOL
RAY_TOL, LIFT_UMBILIC_TOL = 1e-9, 1e-4


@dataclass(frozen=True)
class LightConeModel:
    """Bookkeeping for the cone over R^n_euclidean."""

    n_euclidean: int

    @property
    def ambient(self) -> ScalarProduct:
        return ScalarProduct.lightcone(self.n_euclidean)

    @property
    def dim(self) -> int:
        return self.n_euclidean + 2

    @property
    def e0(self) -> np.ndarray:
        v = np.zeros(self.dim)
        v[0] = 1.0
        return v

    @staticmethod
    def for_ambient(ambient: ScalarProduct) -> "LightConeModel":
        if not ambient.pseudo_pair:
            raise ValueError("ambient does not carry the null-pair convention")
        return LightConeModel(ambient.dim - 2)

    # -- pointwise maps -------------------------------------------------

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Isometric chart of R^N inside the cone; x has shape (..., N)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.dim,))
        out[..., 0] = -0.5 * np.sum(x * x, axis=-1)
        out[..., 1] = 1.0
        out[..., 2:] = x
        return out

    def embed_differential(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        out = np.zeros(np.broadcast(x, v).shape[:-1] + (self.dim,))
        out[..., 0] = -np.sum(x * v, axis=-1)
        out[..., 2:] = v
        return out

    # -- jet-level maps -------------------------------------------------

    @staticmethod
    def chart(xs: list) -> list:
        """Components of the cone chart at the components `xs` of a point of R^N,
        Jet3s or numbers."""
        return [-0.5 * jet3.norm2(*xs), 1.0, *xs]

    def lift_jet(self, jet: ImmersionJet) -> ImmersionJet:
        """Compose an R^N-valued jet with the cone chart, exactly."""
        if jet.ambient.dim != self.n_euclidean or jet.ambient.index != 0:
            raise ValueError("jet must map into the Euclidean base of this model")
        return ImmersionJet.from_components(self.chart(jet.components()), jet.chart,
                                            self.ambient, jet.source)


# ---------------------------------------------------------------------------
# scalar-jet helpers
# ---------------------------------------------------------------------------


def scalar_jet(values: np.ndarray, chart: ChartGrid) -> Jet3:
    """Jets of a sampled scalar field, derivatives by grid stencils."""
    d1, d2 = scalar_fd_jets(np.asarray(values, dtype=float), chart)
    return Jet3(np.asarray(values, dtype=float), d1, d2, nvars=chart.ndim)


# ---------------------------------------------------------------------------
# the conformal <-> isometric dictionary
# ---------------------------------------------------------------------------


def isometric_representative(
    jet: ImmersionJet,
    base_metric: np.ndarray,
    factor: Jet3 | None = None,
    *,
    cfg: PipelineConfig,
):
    """Rescaled cone lift of a conformal immersion, isometric for `base_metric`.

    Returns (lifted jet, factor jets).  The conformal factor relating the
    immersion's metric to the base is computed pointwise, and checked at
    `cfg.conformal_tol`; its derivatives come from grid stencils unless
    closed-form `factor` jets are supplied.
    """
    tol = cfg.conformal_tol
    phi, _ = conformal_factor_of_metrics(base_metric, induced_metric(jet), tol)
    if factor is None:
        factor = scalar_jet(phi, jet.chart)
    else:
        if float(np.max(np.abs(factor.v - phi))) > tol * float(np.max(np.abs(phi))):
            raise NotConformal("supplied factor jets disagree with the metric ratio")
    model = LightConeModel(jet.ambient.dim)
    mu = factor.reciprocal()
    comps = [mu * c for c in model.chart(jet.components())]
    return ImmersionJet.from_components(comps, jet.chart, model.ambient, "assembled"), factor


def cone_projection(jet: ImmersionJet) -> ImmersionJet:
    """Euclidean representative of a cone-valued immersion.

    The rescaling <g,e0>^{-1} g lands on the isometric copy of R^N inside
    the cone; reading off the orthonormal components gives the projection.
    In the null-pair basis G e0 = e1, so <g,e0> is the component g^1.
    """
    model = LightConeModel.for_ambient(jet.ambient)
    comps = jet.components()
    if np.any(comps[1].v <= RAY_TOL):
        raise OnExceptionalRay("pairing with the null generator is not positive on the grid")
    inv = comps[1].reciprocal()
    return ImmersionJet.from_components([inv * c for c in comps[2:]], jet.chart,
                                        ScalarProduct.euclidean(model.n_euclidean), "assembled")


def position_identities(fund: FundamentalData) -> dict:
    """Residuals of the cone-position shape-operator identities of `fund.jet`.

    For an isometric immersion into the cone, the position vector is a
    normal field whose shape operator is -I, and the null generator has
    vanishing shape operator.
    """
    jet = fund.jet
    model = LightConeModel.for_ambient(jet.ambient)
    g_amb = jet.ambient.gram
    n = jet.n

    def shape_vs(vfield: np.ndarray) -> np.ndarray:
        # <alpha(E_a, E_b), v> via the ambient-coordinate form
        paired = contract("pijm,mn,p...n->pij", fund.alpha_ambient, g_amb,
                          np.broadcast_to(vfield, (jet.chart.npoints, jet.m)))
        return contract("pia,pjb,pij->pab", fund.tangent_frame, fund.tangent_frame, paired)

    def tangency(vfield: np.ndarray) -> float:
        comp = contract("pma,mn,p...n->pa", fund.tangent_ambient, g_amb,
                        np.broadcast_to(vfield, (jet.chart.npoints, jet.m)))
        return float(np.max(np.abs(comp)))

    on_cone = float(np.max(np.abs(jet.ambient.norm_sq(jet.values))))
    a_pos = shape_vs(jet.values)
    res_pos = float(np.max(np.abs(a_pos + np.eye(n)[None])))
    res_field = float(np.max(np.abs(shape_vs(model.e0))))
    return {
        "on_cone": on_cone,
        "position_is_normal": tangency(jet.values),
        "field_is_normal": tangency(model.e0),
        "shape_of_position_plus_identity": res_pos,
        "shape_of_field": res_field,
    }


# ---------------------------------------------------------------------------
# second-fundamental-form transfer
# ---------------------------------------------------------------------------


@dataclass
class SffTransferData:
    """Both sides of the conformal/isometric curvature dictionary."""

    phi: np.ndarray                 # (P,)
    xi: np.ndarray                  # (P, N+2)
    residuals: dict = field(default_factory=dict)


def sff_transfer_check(
    fund: FundamentalData,
    base: ImmersionJet,
    ruling_axes: list[int],
    factor: Jet3 | None = None,
    *,
    cfg: PipelineConfig,
) -> SffTransferData:
    """Compare the cone lift's second fundamental form with its prediction.

    The left side uses only jets of the rescaled lift; the right side uses
    jets of the conformal immersion `fund.jet`, its fundamental data `fund`,
    plus the Hessian of the factor in the metric of the isometric partner
    jet `base`.  `ruling_axes` selects chart axes spanning the ruling
    distribution.  The lift is built, and its fundamental data swept, at
    the run's `cfg`.
    """
    jet = fund.jet
    base_metric = induced_metric(base)
    gamma = christoffel(base, base_metric)
    lift, factor = isometric_representative(jet, base_metric, factor, cfg=cfg)
    model = LightConeModel(jet.ambient.dim)
    fund_lift = fundamental_data(lift, cfg)

    dist_conformal = coordinate_distribution(fund, ruling_axes)
    dist_lift = coordinate_distribution(fund_lift, ruling_axes)

    # conformally-ruled precondition for the lift: umbilic leaves
    umb = umbilic_residual(fund_lift, dist_lift)
    if umb > LIFT_UMBILIC_TOL:
        raise NotConformallyRuled(f"lift is not umbilic along the rulings: residual {umb:.3e}")

    # The dictionary is written for the factor relating the conformal metric
    # to the lift metric the other way around: metric(lift) = phi^2 metric(f).
    if factor.h is None:
        raise ValueError("factor jets must carry second derivatives")
    psi = factor.reciprocal()
    dpsi = psi.g
    hess = psi.h - np.einsum("pkij,pk->pij", gamma, dpsi)
    ginv = inverse_stack(base_metric)
    grad = np.einsum("pij,pj->pi", ginv, dpsi)

    phi = psi.v
    inv_phi = 1.0 / phi
    f_vals = jet.values
    # xi = phi^{-1} e0 - dPsi(df(grad phi))
    df_grad = np.einsum("pim,pi->pm", jet.d1, grad)
    xi = inv_phi[:, None] * model.e0[None, :] - model.embed_differential(f_vals, df_grad)

    # left side: second fundamental form of the lift, ambient coordinates
    lhs = fund_lift.alpha_ambient  # (P, n, n, N+2)
    # right side: dPsi(phi alpha_f) - g'_ij xi + phi^{-1} Hess_ij f'
    alpha_f = fund.alpha_ambient  # (P, n, n, n+p)
    rhs = model.embed_differential(
        f_vals[:, None, None, :], phi[:, None, None, None] * alpha_f
    )
    rhs -= base_metric[:, :, :, None] * xi[:, None, None, :]
    rhs += (inv_phi[:, None, None] * hess)[:, :, :, None] * lift.values[:, None, None, :]
    res_sff = float(np.max(np.abs(lhs - rhs)))

    # proportionality scalar on the rulings: Hess phi = lam <,>' there
    span_coord = np.einsum("pia,pau->piu", fund_lift.tangent_frame, dist_lift.basis)
    h_dd = contract("piu,pjv,pij->puv", span_coord, span_coord, hess)
    g_dd = contract("piu,pjv,pij->puv", span_coord, span_coord, base_metric)
    lam = np.einsum("puv,puv->p", h_dd, g_dd) / np.einsum("puv,puv->p", g_dd, g_dd)
    lam_residual = float(np.max(np.abs(h_dd - lam[:, None, None] * g_dd)))

    # mean-curvature dictionary along the rulings
    eta_amb = fund.normal_ambient(leaf_mean_curvature(fund, dist_conformal))
    eta_lift_amb = fund_lift.normal_ambient(leaf_mean_curvature(fund_lift, dist_lift))
    predicted = inv_phi[:, None] * (
        model.embed_differential(f_vals, eta_amb)
        - phi[:, None] * xi
        + lam[:, None] * lift.values
    )
    res_eta = float(np.max(np.abs(eta_lift_amb - predicted)))

    # umbilic-corrected forms on both sides
    beta_f = alpha_f - fund.metric[:, :, :, None] * eta_amb[:, None, None, :]
    beta_lift = fund_lift.alpha_ambient - base_metric[:, :, :, None] * eta_lift_amb[:, None, None, :]
    corr = hess - lam[:, None, None] * base_metric
    beta_rhs = model.embed_differential(f_vals[:, None, None, :], phi[:, None, None, None] * beta_f)
    beta_rhs += (inv_phi[:, None, None] * corr)[:, :, :, None] * lift.values[:, None, None, :]
    res_beta = float(np.max(np.abs(beta_lift - beta_rhs)))

    return SffTransferData(
        phi=phi,
        xi=xi,
        residuals={
            "umbilic": umb,
            "sff_dictionary": res_sff,
            "mean_curvature_dictionary": res_eta,
            "corrected_sff_dictionary": res_beta,
            "hess_proportionality": lam_residual,
        },
    )

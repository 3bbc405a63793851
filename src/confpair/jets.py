"""Sampled 2-jets of immersions on chart grids and the calculus built on them.

An immersion enters as per-point position, first and second partial
derivatives on a rectangular chart grid.  From these we compute the
induced metric, orthonormal tangent frames, aligned normal frames, second
fundamental forms, shape operators and normal connection coefficients.
Normal frames are anchored at one seed point: every fiber takes the
G-projection of the seed frame, and one generalized polar fit over all points,
for every signature, turns the projections into frames.  A frame is then a
smooth function of its fiber, which realizes the smooth-subbundle hypotheses
numerically, and the fit commutes with ambient isometries and with changes of
gauge in O(p, q).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import jet3
from .errors import FrameAlignmentFailure, NotConformal, NotImmersion
from .indefinite_linalg import (
    DEFAULT_TOL,
    ScalarProduct,
    _svd,
    cholesky_stack,
    contract,
    eigvalsh_stack,
    inverse_stack,
    kernel_stack,
    signed_cholesky_stack,
    span_stack,
)

__all__ = [
    "PipelineConfig",
    "ChartGrid",
    "ImmersionJet",
    "ImmersionMap",
    "FundamentalData",
    "DistributionFrame",
    "grid_derivative",
    "scalar_fd_jets",
    "induced_metric",
    "metric_derivative",
    "christoffel",
    "fundamental_data",
    "coordinate_distribution",
    "align_frames",
    "bracket_residual",
    "leaf_mean_curvature",
    "umbilic_residual",
    "gauss_equation_residual",
]


@dataclass(frozen=True)
class PipelineConfig:
    """The run-level numbers, which every layer takes and reports record.

    `align_floor` bounds the smallest eigenvalue of A = J y^T G y in every
    frame fit (`_polar_fit`) from below.  The fit's sensitivity to its
    fiber grows like 1/lambda_min, so the floor 0.1 allows one decade of
    amplification.  The smallest value over every gallery manifest and
    benchmark operation is 0.706 (a 10^4-point graph chart, seeded at its
    central point; 0.275 when seeded at its first point).
    """
    rank_tol: float = DEFAULT_TOL
    fd_tol: float = 1e-6
    align_floor: float = 0.1
    conformal_tol: float = 1e-6
    seed: int = 0


# ---------------------------------------------------------------------------
# chart grids and finite differences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChartGrid:
    """Uniform tensor-product grid over a box in chart coordinates."""

    shape: tuple[int, ...]
    spacing: tuple[float, ...]
    origin: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.shape) == len(self.spacing) == len(self.origin)):
            raise ValueError("shape, spacing and origin must have equal length")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def npoints(self) -> int:
        return int(np.prod(self.shape))

    def axis(self, i: int) -> np.ndarray:
        return self.origin[i] + self.spacing[i] * np.arange(self.shape[i])

    def points(self) -> np.ndarray:
        """All grid points, C-ordered, shape (npoints, ndim)."""
        mesh = np.meshgrid(*(self.axis(i) for i in range(self.ndim)), indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.ndim)

    def center_index(self) -> int:
        return int(np.ravel_multi_index(tuple(s // 2 for s in self.shape), self.shape))

    def with_extra_axes(self, counts, spacings, origins) -> "ChartGrid":
        return ChartGrid(
            self.shape + tuple(counts),
            self.spacing + tuple(spacings),
            self.origin + tuple(origins),
        )


def _fornberg(nodes: np.ndarray, x0: float, order: int) -> np.ndarray:
    """Finite-difference weights of B. Fornberg for derivative `order` at x0."""
    n = len(nodes)
    c = np.zeros((n, order + 1))
    c1 = 1.0
    c4 = nodes[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


@lru_cache(maxsize=None)
def _derivative_matrix(npts: int, h: float, order: int) -> np.ndarray:
    """Dense one-axis differentiation matrix from 5-point Fornberg stencils."""
    width = min(5, npts)
    if npts <= order:
        raise ValueError(f"axis with {npts} points cannot support order-{order} derivative")
    mat = np.zeros((npts, npts))
    xs = h * np.arange(npts)
    for i in range(npts):
        start = min(max(i - width // 2, 0), npts - width)
        w = _fornberg(xs[start : start + width], xs[i], order)
        mat[i, start : start + width] = w
    return mat


def grid_derivative(values: np.ndarray, grid: ChartGrid, axis: int, order: int = 1) -> np.ndarray:
    """Partial derivative of a sampled field (P, ...) along a chart axis."""
    mat = _derivative_matrix(grid.shape[axis], grid.spacing[axis], order)
    rest = values.shape[1:]
    arr = values.reshape(grid.shape + rest)
    arr = np.moveaxis(arr, axis, 0)
    out = np.tensordot(mat, arr, axes=([1], [0]))
    out = np.moveaxis(out, 0, axis)
    return out.reshape((grid.npoints,) + rest)


def scalar_fd_jets(values: np.ndarray, grid: ChartGrid):
    """(d1 (P, n, ...), d2 (P, n, n, ...)) of a sampled field (P, ...) by
    nested stencils; the mixed partials differentiate d1 again."""
    n = grid.ndim
    d1 = np.stack([grid_derivative(values, grid, i) for i in range(n)], axis=1)
    d2 = np.zeros((grid.npoints, n, n) + values.shape[1:])
    for i in range(n):
        d2[:, i, i] = grid_derivative(values, grid, i, order=2)
        for j in range(i + 1, n):
            d2[:, i, j] = d2[:, j, i] = grid_derivative(d1[:, i], grid, j)
    return d1, d2


# ---------------------------------------------------------------------------
# immersion jets
# ---------------------------------------------------------------------------


# an immersion keeps its residual (sigma_n / sigma_1) above IMMERSION_TOL;
# points that the Gram of d1 certifies above IMMERSION_SCREEN skip the SVD of
# the residual, see `_immersion_ratios`
IMMERSION_TOL, IMMERSION_SCREEN = 1e-7, 1e-3


def _immersion_ratios(d1: np.ndarray) -> np.ndarray:
    """Per point of a finite (P, n, m) differential: sigma_n / sigma_1, or a
    lower bound of it that exceeds IMMERSION_SCREEN; 0 where sigma_1 = 0.

    The Euclidean Gram A = d1 d1^T screens the points.  On 2-D charts its
    eigenvalues come in closed form (`eigvalsh_stack`), within c u sigma_1^2
    of sigma_i^2 (Weyl's inequality plus the backward stability of the
    product and of the eigensolver; u is the unit roundoff and c a small
    multiple of m n), so a ratio sqrt(lam_min / lam_max) above
    IMMERSION_SCREEN = 1e-3 certifies sigma_2 / sigma_1 > 1e-3 sqrt(1 -
    1e6 c u), above 1e-3 (1 - 1e-6) even for c u = 1e-12, and that ratio is
    the point's value.

    For n >= 3, `cholesky_stack` of A gives a bound instead.  Let t = tr A
    as computed and s = 2 _METRIC_ROUNDOFF t.  The computed Gram is A + F
    with ||F||_2 <= gamma_m t, and the factor has L L^T = A + F + E with
    ||E||_2 <= gamma_{n+1} ||L||_F^2, about gamma_{n+1} t (Higham, ch. 10),
    so lambda_min(A) >= 1 / ||L^-1||_2^2 - s/2 >= 1 / ||L^-1||_F^2 - s/2.
    The computed L^-1 errs by about n u cond(L) relative (Higham, ch. 14),
    and cond(L)^2 <= t ||L^-1||_2^2, so 1 / ||L^-1||_F^2 moves by at most
    about 2 sqrt(n) u t, which the other half of s covers.  With
    lambda_max(A) <= tr A (t to within gamma_m),
    sqrt((1 / ||L^-1||_F^2 - s) / t) is a lower bound of
    sqrt(lambda_min / lambda_max) = sigma_n / sigma_1; for n >= 3,
    tr(A) tr(A^-1) >= cond(A) + 3 keeps it below by a relative 1 / cond(A)
    or more, so the rounding of its last steps cannot lift it above.  Where
    the bound exceeds IMMERSION_SCREEN it is the point's value: not the
    ratio itself, but above the screen, and so above IMMERSION_TOL exactly
    where the ratio is.

    Every other point (at or below the screen, lam_max <= 0, or a pivot
    that is not positive) gets its exact SVD ratio from `_svd`.
    """
    n = d1.shape[1]
    gram = d1 @ d1.transpose(0, 2, 1)
    with np.errstate(all="ignore"):
        if n <= 2:
            lam = eigvalsh_stack(gram)  # ascending
            ratio = np.sqrt(lam[:, 0] / lam[:, -1])
            screened = lam[:, -1] > 0
        else:
            _, inv, screened = cholesky_stack(gram)
            trace = np.trace(gram, axis1=1, axis2=2)
            lower = 1.0 / np.sum(inv * inv, axis=(1, 2)) - 2 * _METRIC_ROUNDOFF * trace
            ratio = np.sqrt(lower / trace)
    screened &= ratio > IMMERSION_SCREEN  # NaN compares False
    if not screened.all():
        sv = _svd(d1[~screened])  # (., n)
        ratio[~screened] = np.divide(sv[:, -1], sv[:, 0], out=np.zeros(len(sv)),
                                     where=sv[:, 0] > 0)
    return ratio


@dataclass
class ImmersionJet:
    """2-jet of an immersion of a chart grid into a flat inner-product space.

    values: (P, m); d1: (P, n, m); d2: (P, n, n, m).
    """

    chart: ChartGrid
    ambient: ScalarProduct
    values: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    source: str = "closed-form"
    # jets are never written in place, so the SVD behind the residual runs once
    _residual: float | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.chart.ndim

    @property
    def m(self) -> int:
        return self.ambient.dim

    @property
    def codim(self) -> int:
        return self.m - self.n

    @staticmethod
    def from_function(fn, chart: ChartGrid, ambient: ScalarProduct) -> "ImmersionJet":
        """Evaluate a Jet3-valued component function on the whole grid."""
        return ImmersionJet.from_components(fn(jet3.variables(chart.points())), chart, ambient,
                                            "closed-form")

    @staticmethod
    def from_components(comps, chart: ChartGrid, ambient: ScalarProduct,
                        source: str) -> "ImmersionJet":
        """The jet whose components are `comps`: Jet3s in the chart variables,
        or numbers, which become constants."""
        p, n, m = chart.npoints, chart.ndim, ambient.dim
        if len(comps) != m:
            raise ValueError(f"function returned {len(comps)} components for ambient dim {m}")
        zero_g, zero_h = np.zeros((p, n)), np.zeros((p, n, n))
        comps = [c if isinstance(c, jet3.Jet3) else
                 jet3.Jet3(np.broadcast_to(np.asarray(c, dtype=float), (p,)), zero_g, zero_h)
                 for c in comps]
        # into C-ordered arrays: stacking views of point-last rows would keep their strides
        values, d1, d2 = (np.stack([getattr(c, part) for c in comps], axis=-1,
                                   out=np.empty(shape + (m,)))
                          for part, shape in (("v", (p,)), ("g", (p, n)), ("h", (p, n, n))))
        return ImmersionJet(chart, ambient, values, d1, d2, source=source)

    @staticmethod
    def from_values(values: np.ndarray, chart: ChartGrid, ambient: ScalarProduct) -> "ImmersionJet":
        """Build the jet from sampled positions alone, by finite differences."""
        values = np.asarray(values, dtype=float).reshape(chart.npoints, ambient.dim)
        d1, d2 = scalar_fd_jets(values, chart)
        return ImmersionJet(chart, ambient, values, d1, d2, source="finite-difference")

    def components(self) -> list[jet3.Jet3]:
        """The components as Jet3s, views of this jet's arrays."""
        return [jet3.Jet3(self.values[:, c], self.d1[:, :, c], self.d2[:, :, :, c])
                for c in range(self.m)]

    def immersion_residual(self) -> float:
        """min over points of (n-th singular value / first), or a certified
        lower bound of it above IMMERSION_SCREEN (`_immersion_ratios`); small
        means rank drop.

        A point whose differential vanishes (first singular value 0) or is
        not finite has lost rank and counts as 0.  The residual is compared
        only with IMMERSION_TOL = 1e-7, four decades below the screen, so each
        decision is the one the SVD ratios of all points give.
        """
        if self._residual is None and not np.isfinite(self.d1).all():
            self._residual = 0.0  # kept from LAPACK, which fails on non-finite points
        if self._residual is None:
            self._residual = float(np.min(_immersion_ratios(self.d1)))
        return self._residual

    def require_immersion(self):
        if self.immersion_residual() <= IMMERSION_TOL:
            raise NotImmersion("differential drops rank on the chart grid")


@dataclass
class ImmersionMap:
    """A closed-form immersion given by a Jet3-valued component function.

    Root finding and slice reparametrization need evaluation at arbitrary
    points, which sampled jets cannot provide; gallery immersions therefore
    carry their defining function around.
    """

    name: str
    chart_dim: int
    ambient: ScalarProduct
    fn: object  # Callable[[list[Jet3]], list[Jet3]]
    factor_fn: object | None = None  # closed-form conformal factor vs its base

    def evaluate(self, points: np.ndarray, order: int = 2):
        """Component jets at a batch of points, (list of Jet3)."""
        xs = jet3.variables(np.asarray(points, dtype=float), order=order)
        return [c if isinstance(c, jet3.Jet3) else jet3.constant(c, xs[0]) for c in self.fn(xs)]

    def values(self, points: np.ndarray) -> np.ndarray:
        comps = self.evaluate(points, order=0)
        return np.stack([c.v for c in comps], axis=-1)

    def jet(self, chart: ChartGrid) -> ImmersionJet:
        return ImmersionJet.from_function(self.fn, chart, self.ambient)

    def jet_fd(self, chart: ChartGrid) -> ImmersionJet:
        return ImmersionJet.from_values(self.values(chart.points()), chart, self.ambient)

    def factor_jets(self, points: np.ndarray):
        if self.factor_fn is None:
            return None
        xs = jet3.variables(np.asarray(points, dtype=float))
        return self.factor_fn(xs)


def induced_metric(jet: ImmersionJet) -> np.ndarray:
    """Per-point Gram matrices of the first partials, (P, n, n)."""
    jet.require_immersion()
    return contract("pia,ab,pjb->pij", jet.d1, jet.ambient.gram, jet.d1)


def metric_derivative(jet: ImmersionJet) -> np.ndarray:
    """Exact coordinate derivative dg[p, k, i, j] = d_k g_ij from the 2-jet."""
    g = jet.ambient.gram
    t1 = contract("pkia,ab,pjb->pkij", jet.d2, g, jet.d1)
    return t1 + np.transpose(t1, (0, 1, 3, 2))


def christoffel(jet: ImmersionJet, metric: np.ndarray | None = None) -> np.ndarray:
    """Christoffel symbols Gamma[p, k, i, j] = Gamma^k_ij of the induced metric."""
    if metric is None:
        metric = induced_metric(jet)
    dg = metric_derivative(jet)  # dg[p, a, b, c] = d_a g_bc
    ginv = inverse_stack(metric)
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    sym = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)  # sym[p, i, j, l]
    return 0.5 * np.einsum("pkl,pijl->pkij", ginv, sym)


# ---------------------------------------------------------------------------
# frame alignment machinery
# ---------------------------------------------------------------------------


# each point of `_polar_fit`'s Newton-Schulz iteration stops after the step taken at its
# own max |I - Z Y| <= _ROOT_STOP (each step squares it; at once where it is NaN) or after
# _ROOT_STEPS, so its frame does not depend on the other points of the fit
_ROOT_STOP, _ROOT_STEPS = 1e-8, 60
# `align_frames` takes a fiber's columns as orthonormal-or-zero when max |B^T B - I_r (+) 0| is
# at most this; an SVD or QR basis meets it to roundoff, a raw vector almost never
_ORTHONORMAL_TOL = 1e-10


def _seed_frame(span: np.ndarray, gram: np.ndarray, tol: float, seed: int):
    """Pseudo-orthonormal basis of the span at grid point `seed`,
    negative-norm vectors first."""
    count, b = span_stack(span, tol)
    b = b[:, :count]
    g = b.T @ gram @ b
    vals, vecs = np.linalg.eigh(0.5 * (g + g.T))
    # the one rank rule with the floor 1.0 of Gram matrices of dot-orthonormal
    # bases under a unit metric, so a one-dimensional null fiber fails too
    scale = float(np.max(np.abs(vals), initial=1.0))
    if vals.size and np.min(np.abs(vals)) <= tol * scale:
        raise FrameAlignmentFailure(f"degenerate fiber: cannot seed a frame at grid point {seed}")
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    frame = b @ (vecs / np.sqrt(np.abs(vals)))
    pattern = tuple(int(np.sign(v)) for v in vals)
    return frame, pattern


def _central_point(shape: tuple[int, ...], points: np.ndarray) -> int:
    """The point of `points` (flat indices) nearest the mean of their grid
    indices, the first of them on a tie: the default seed of a sweep."""
    ij = np.stack(np.unravel_index(points, shape), axis=1)
    return int(points[np.argmin(np.sum((ij - ij.mean(axis=0)) ** 2, axis=1))])


def _smallest_eigenvalue(a: np.ndarray) -> np.ndarray:
    """Smallest real part of the spectrum of each matrix of a stack (L, k, k).

    Closed forms for k <= 3: the root formula for k = 2, and for k = 3 the
    depressed cubic t^3 + c t + d of b = a - tr(a)/3 (c = -tr(b^2)/2,
    d = -det b), solved by its trigonometric form when its three roots are
    real and by Cardano's formula when two are complex.  Larger k takes one
    stacked `eigvals`.  NaN where `a` is not finite.
    """
    k = a.shape[-1]
    if k == 1:
        return a[:, 0, 0].copy()
    if k == 2:
        half = 0.5 * (a[:, 0, 0] + a[:, 1, 1])
        disc = (0.5 * (a[:, 0, 0] - a[:, 1, 1])) ** 2 + a[:, 0, 1] * a[:, 1, 0]
        return half - np.sqrt(np.maximum(disc, 0.0))  # a complex pair's real part is half
    if k > 3:
        return np.linalg.eigvals(a).real.min(axis=1)
    shift = np.trace(a, axis1=1, axis2=2) / 3
    b = a - shift[:, None, None] * np.eye(3)
    c = -0.5 * np.einsum("pij,pji->p", b, b)
    d = -(b[:, 0, 0] * (b[:, 1, 1] * b[:, 2, 2] - b[:, 1, 2] * b[:, 2, 1])
          - b[:, 0, 1] * (b[:, 1, 0] * b[:, 2, 2] - b[:, 1, 2] * b[:, 2, 0])
          + b[:, 0, 2] * (b[:, 1, 0] * b[:, 2, 1] - b[:, 1, 1] * b[:, 2, 0]))
    disc = (0.5 * d) ** 2 + (c / 3) ** 3
    with np.errstate(divide="ignore", invalid="ignore"):
        # three real roots: t = r cos(phi/3 - 2 pi j/3), the smallest at j = 2
        r = 2 * np.sqrt(np.maximum(-c / 3, 0.0))
        cos_phi = np.clip(np.where(r > 0, -4 * d / r ** 3, 0.0), -1.0, 1.0)
        real3 = r * np.cos((np.arccos(cos_phi) + 2 * np.pi) / 3)
        # one real root t1, and a complex pair of real part -t1/2
        root = np.sqrt(np.maximum(disc, 0.0))
        t1 = np.cbrt(-0.5 * d + root) + np.cbrt(-0.5 * d - root)
    return shift + np.where(disc > 0, np.minimum(t1, -0.5 * t1), real3)


def _polar_fit(points: np.ndarray, y: np.ndarray, gram: np.ndarray, pattern: tuple[int, ...],
               tol: float, floor: float, checks=()):
    """Pseudo-orthonormal frames W = y S^-1 of the projected seed frames y
    (L, m, k) of the grid points `points` (L,), all at once.

    S is the principal root of A = J y^T G y (gram G (m, m) or (L, m, m),
    J = diag(pattern)); Newton-Schulz on A over its row-sum norm gives S^-1
    when the spectrum of A lies in the right half-plane.  Each point stops
    after its own converged step (`_ROOT_STOP`), so a frame depends on its
    fiber and the seed alone, bit for bit, whichever points share the fit.
    An ambient isometry leaves that spectrum alone: for a definite fiber its
    eigenvalues are the cos^2 of the principal angles between the fiber and
    the seed fiber.  Checks, in order: the caller's (mask, message)
    `checks`, the polar fit (W finite, max |W^T G W - J| <= tol), and the
    floor on the smallest real part of the spectrum; the first failing point
    raises, naming its grid index.  Returns (frames (L, m, k), that smallest
    real part over the points).
    """
    k = y.shape[2]
    signs = np.asarray(pattern, dtype=float)
    a = signs[:, None] * (y.transpose(0, 2, 1) @ gram @ y)
    lam = _smallest_eigenvalue(a)
    scale = np.sum(np.abs(a), axis=2).max(axis=1)[:, None, None]  # bounds the spectrum of a
    # Y -> (a/scale)^1/2 and Z -> its inverse on point-last (k, k, L') stacks of
    # the L' points still running; each point's Z goes to `inv_root` after its last step
    eye = np.eye(k)[:, :, None]
    root = np.ascontiguousarray((a / scale).transpose(1, 2, 0))
    z = np.repeat(eye, len(a), axis=2)
    inv_root, running = np.empty_like(a), np.arange(len(a))
    for step in range(1, _ROOT_STEPS + 1):
        resid = eye - np.einsum("ijp,jkp->ikp", z, root)
        t = eye + 0.5 * resid
        root, z = np.einsum("ijp,jkp->ikp", root, t), np.einsum("ijp,jkp->ikp", t, z)
        keep = np.fmax.reduce(np.abs(resid), axis=(0, 1), initial=0.0) > _ROOT_STOP  # NaN stops
        keep &= step < _ROOT_STEPS
        inv_root[running[~keep]] = z[:, :, ~keep].transpose(2, 0, 1)
        if not keep.any():
            break
        running, root, z = running[keep], np.compress(keep, root, axis=2), np.compress(keep, z, axis=2)
    frames = y @ inv_root / np.sqrt(scale)
    gram_w = frames.transpose(0, 2, 1) @ gram @ frames
    defect = np.max(np.abs(gram_w - np.diag(signs)), axis=(1, 2))
    _raise_first(points, [
        *checks,
        (~(defect <= tol), lambda i: "polar fit lost rank"),  # NaN where W is not finite
        (~(lam >= floor), lambda i: f"smallest eigenvalue {lam[i]:.3g} below floor {floor}"),
    ])
    return frames, float(np.min(lam))


def _raise_first(points: np.ndarray, checks):
    """Raise FrameAlignmentFailure at the first of `points` that fails one of
    the (mask, message) `checks`, with the message of the first it fails."""
    failed = np.logical_or.reduce([bad for bad, _ in checks])
    if failed.any():
        i = int(np.argmax(failed))
        message = next(msg(i) for bad, msg in checks if bad[i])
        raise FrameAlignmentFailure(f"{message} at grid point {points[i]}")


def align_frames(
    spans: np.ndarray,
    gram,
    shape: tuple[int, ...],
    mask: np.ndarray | None = None,
    seed: int | None = None,
    tol: float | None = None,
    *,
    cfg: PipelineConfig,
):
    """Seed-anchored pseudo-orthonormal frames of a pointwise subbundle.

    spans: (P, m, s) bases per point, orthonormal-or-zero: at each masked
    point the first columns are dot-orthonormal and the rest are zero, so
    the caller's rank decision is the count of unit columns.  The bases of
    `span_stack`, `kernel_stack`, `complement_stack` and `image_stack`, cut
    to their width and zeroed beyond each point's rank, are such; raw
    vectors are not.  One stacked B^T B checks the contract at every
    masked point (`_ORTHONORMAL_TOL`) and raises ValueError where it fails.
    gram: (m, m) or (P, m, m) ambient Gram.
    The seed (default: the masked point nearest the mask's centre) gets the
    `_seed_frame` of its own span at `tol` (default 10 `cfg.rank_tol`),
    which fixes the gauge of every frame.  Every masked fiber then takes the
    G-projection of the seed frame, which does not depend on the basis of
    the fiber, and one `_polar_fit` over all points turns it into a frame,
    gated at `cfg.align_floor`.  So each frame depends on its fiber and the
    seed alone.  A seed fiber of rank 0 gives zero-width frames and the
    pattern (), once every fiber has rank 0.
    Returns (frames (P, m, k), pattern, smallest eigenvalue of the fit, 1.0
    for rank 0) with frames zero off-mask.
    """
    if mask is None:
        mask = np.ones(spans.shape[0], dtype=bool)
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    points = np.flatnonzero(mask)
    if points.size == 0:
        raise ValueError("empty mask")
    seed = _central_point(shape, points) if seed is None else int(seed)
    if not mask[seed]:
        raise ValueError(f"seed {seed} lies outside the mask")
    tol = 10 * cfg.rank_tol if tol is None else tol
    bases = spans[mask]
    cross = bases.transpose(0, 2, 1) @ bases
    ranks = (np.diagonal(cross, axis1=1, axis2=2) > 0.5).sum(axis=1)
    leading = np.arange(bases.shape[2]) < ranks[:, None]  # B^T B = I_r (+) 0
    broken = np.max(np.abs(cross - leading[:, None] * np.eye(bases.shape[2])), axis=(1, 2),
                    initial=0.0) > _ORTHONORMAL_TOL
    if broken.any():
        raise ValueError(f"align_frames needs orthonormal-or-zero columns; grid point "
                         f"{points[np.argmax(broken)]} has others")
    gram = np.asarray(gram)
    if gram.ndim == 3:
        gram_seed, gram = gram[seed], gram[points]
    else:
        gram_seed = gram
    frame0, pattern = _seed_frame(spans[seed], gram_seed, tol, seed)
    k = frame0.shape[1]
    same_rank = (ranks != k, lambda i: f"fiber rank {ranks[i]} != {k} inside a constant-rank region")
    if k == 0:
        _raise_first(points, [same_rank])
        return np.zeros((len(mask), spans.shape[1], 0)), (), 1.0
    fiber = bases[:, :, :k]
    fiber_t_gram = fiber.transpose(0, 2, 1) @ gram
    gf, rhs = fiber_t_gram @ fiber, fiber_t_gram @ frame0
    gf[ranks < k] = np.eye(k)  # zero columns: the rank check reports these points first
    singular = np.zeros(len(points), dtype=bool)
    try:
        coeff = np.linalg.solve(gf, rhs)
    except np.linalg.LinAlgError:  # find the singular fibers one by one
        coeff = np.full_like(rhs, np.nan)
        for i in range(len(gf)):
            try:
                coeff[i] = np.linalg.solve(gf[i], rhs[i])
            except np.linalg.LinAlgError:
                singular[i] = True
    frames = np.zeros((len(mask), spans.shape[1], k))
    with np.errstate(all="ignore"):  # a failing point is reported, not warned about
        frames[points], lam = _polar_fit(points, fiber @ coeff, gram, pattern, tol, cfg.align_floor, [
            same_rank, (singular, lambda i: "degenerate fiber during sweep"),
        ])
    return frames, pattern, lam


# ---------------------------------------------------------------------------
# fundamental data
# ---------------------------------------------------------------------------


def _normal_coords(vectors: np.ndarray, gram: np.ndarray, normal_frame: np.ndarray,
                   eps: np.ndarray) -> np.ndarray:
    """c_t = eps_t <v, xi_t> of ambient vectors v, one (m,) or per point
    (P, ..., m), in the normal frames xi (P, m, k) under the full ambient
    Gram (m, m), which is not diagonal on the light cone."""
    subscripts = "a,ab,pbt->pt" if vectors.ndim == 1 else "p...a,ab,pbt->p...t"
    return contract(subscripts, vectors, gram, normal_frame) * eps


@dataclass
class FundamentalData:
    """First/second order invariants of an immersion in aligned frames.

    alpha is stored in the orthonormal tangent frame with normal-frame
    components: alpha[p, a, b, t] so that alpha(E_a, E_b) = sum_t alpha[...t] xi_t.
    nconn[p, i, s, t] = eps_t <d_i xi_s, xi_t> is the normal connection
    along the coordinate field d_i, computed from the 2-jet when first read.
    """

    jet: ImmersionJet
    metric: np.ndarray                 # (P, n, n)
    tangent_pattern: tuple[int, ...]
    tangent_frame: np.ndarray          # (P, n, n) coords->frame matrix C, E_a = sum_i C[i,a] d_i
    tangent_frame_inv: np.ndarray      # (P, n, n) inverse of C
    tangent_ambient: np.ndarray        # (P, m, n) ambient vectors of E_a
    normal_frame: np.ndarray           # (P, m, k)
    normal_pattern: tuple[int, ...]
    alpha: np.ndarray                  # (P, n, n, k) tangent-frame coords
    alpha_ambient: np.ndarray          # (P, n, n, m) coordinate tangent indices
    diagnostics: dict = field(default_factory=dict)

    @property
    def normal_rank(self) -> int:
        return self.normal_frame.shape[2]

    @property
    def normal_eps(self) -> np.ndarray:
        """The normal pattern as floats, the diagonal of the normal metric."""
        return np.asarray(self.normal_pattern, dtype=float)

    @cached_property
    def nconn(self) -> np.ndarray:
        """The normal connection (P, n, k, k) from the 2-jet.

        xi = y S^-1 with y the G-projection of the seed frame F0 (xi at the
        seed, where S = I); y - F0 is tangent, so S = J y^T G xi = J F0^T G xi.
        The Gauss formula gives the normal part of d_i y as
        -sum_a eta_a <E_a, F0> alpha(d_i, E_a), where alpha(d_i, E_a) =
        sum_b (C^-1)_bi alpha(E_b, E_a); that fixes B_i = xi^T G d_i y.
        M_i = xi^T G d_i xi is skew and J d_i S symmetric, so B_i = M_i S + J d_i S
        makes M_i the skew solution of S^T M + M S = B_i - B_i^T: one stacked
        `solve` over its k(k-1)/2 entries above the diagonal.  nconn[:, i] = M_i^T J.
        """
        gram, xi, eps = self.jet.ambient.gram, self.normal_frame, self.normal_eps
        frame0 = xi[_central_point(self.jet.chart.shape, np.arange(len(xi)))]
        s = eps[:, None] * contract("mu,mb,pbv->puv", frame0, gram, xi)
        f0_on_e = contract("pma,mb,bu->pau", self.tangent_ambient, gram, frame0)
        eta = np.asarray(self.tangent_pattern, dtype=float)
        b = -contract("pci,pcas,a,pau,s->pisu", self.tangent_frame_inv, self.alpha, eta, f0_on_e, eps)
        eye = np.eye(xi.shape[2])
        u, v = np.triu_indices(len(eye), 1)
        basis = eye[u][:, :, None] * eye[v][:, None, :]
        basis -= np.swapaxes(basis, 1, 2)  # E_c = e_u e_v^T - e_v e_u^T
        images = (np.swapaxes(s, 1, 2)[:, None] @ basis + basis @ s[:, None])[:, :, u, v]
        rhs = (b - np.swapaxes(b, 2, 3))[:, :, u, v]  # (P, n, c)
        x = np.linalg.solve(np.swapaxes(images, 1, 2), np.swapaxes(rhs, 1, 2))  # (P, c, n)
        return np.einsum("pci,ctu->piut", x, basis) * eps

    def normal_coordinates(self, vectors: np.ndarray) -> np.ndarray:
        """Frame coordinates of ambient vectors lying in the normal space.

        `vectors` is either a single ambient vector or a per-point array
        (P, ..., m); the result carries frame components on the last axis.
        """
        return _normal_coords(vectors, self.jet.ambient.gram, self.normal_frame, self.normal_eps)

    def normal_ambient(self, coords: np.ndarray) -> np.ndarray:
        """Ambient vectors of per-point normal frame coordinates (..., k)."""
        return np.einsum("pat,p...t->p...a", self.normal_frame, coords)


# the induced metric degenerates at a point where some eigenvalue (by
# `eigvalsh`) has modulus below METRIC_DEGENERATE.  _METRIC_ROUNDOFF ||R||_F^2
# bounds the backward error of the unpivoted signed Cholesky factor
# R diag(signs) R^T of g (gamma_{n+1} || |R| |R^T| ||_2, Higham, ch. 10-11),
# and _METRIC_ROUNDOFF ||g||_F the error of each eigenvalue that `eigvalsh` or
# `eigh` computes (a small multiple of n u ||g||_2), for n up to about 10:
# generous for the n <= 5 of any chart.
METRIC_DEGENERATE, _METRIC_ROUNDOFF = 1e-12, 1e3 * np.finfo(float).eps


def _tangent_frames(metric: np.ndarray):
    """(pattern, frames C (P, n, n), inverses C^-1) of the induced metric g:
    C^T g C = diag(pattern), negative entries first.  Raises NotImmersion
    where `eigvalsh` finds the signature changing over the chart or some
    |lambda| below METRIC_DEGENERATE, and only there.

    A chart takes C = R^-T P and C^-1 = P^T R^T from `signed_cholesky_stack`
    (g = R S R^T, S = diag(signs)), with P the permutation that puts the
    negative signs first, where every pivot is nonzero, S is the same at
    every point and this certificate holds.  Let s = 2 _METRIC_ROUNDOFF
    ||R||_F^2.  The factor is exact for g + E with ||E||_2 <= s/2, and every
    eigenvalue of R S R^T has modulus at least sigma_min(R)^2 = 1 /
    ||R^-1||_2^2 >= 1 / ||R^-1||_F^2.  By Weyl's inequality every
    eigenvalue of g lies within s/2 of one of R S R^T, so where
    1 / ||R^-1||_F^2 > s/2 none crosses 0 between g + E and g, and g has
    the inertia of S (Sylvester); ||g||_2 <= ||R||_F^2 + s/2, so `eigvalsh`
    lands within about s/2 of each eigenvalue of g.  So where
    1 / ||R^-1||_F^2 >= 2 (METRIC_DEGENERATE + s), `eigvalsh` finds no
    |lambda| below METRIC_DEGENERATE and the signs of S; the factor 2 covers
    the error of the computed R^-1, which is below 1e-8 relative there
    (c n u cond(R), with cond(R)^2 <= ||R||_F^2 ||R^-1||_F^2 < 1 / (4
    _METRIC_ROUNDOFF)).  The pattern is then eigh's, whose ascending
    eigenvalues put the negative ones first too.

    A definite factor is the Cholesky factor L, and ||L||_F^2 = tr g bounds
    its backward error whatever the margin, so points of a definite chart
    without the margin are decided by `eigvalsh` itself.  An indefinite
    factor's growth ||R||_F^2 / ||g||_2 has no bound, so there a point
    without the margin sends the chart to `eigh`, as does a failed pivot or
    a pattern S that varies: its frames are the eigenvectors over
    sqrt|lambda| (signs fixed by their largest component), and the points
    with an eigenvalue within 2 _METRIC_ROUNDOFF ||g||_F of 0 or of
    +-METRIC_DEGENERATE are decided again by `eigvalsh`.
    """
    chol, chol_inv, signs, ok = signed_cholesky_stack(metric)
    if ok.all() and np.all(signs == signs[:1]):
        with np.errstate(divide="ignore"):
            lower = 1.0 / np.sum(chol_inv * chol_inv, axis=(1, 2))
        growth = 2 * _METRIC_ROUNDOFF * np.sum(chol * chol, axis=(1, 2))
        unsure = ~(lower >= 2 * (METRIC_DEGENERATE + growth))
        definite = bool(np.all(signs > 0))
        if not unsure.any() or (definite and np.all(np.linalg.eigvalsh(metric[unsure])
                                                    >= METRIC_DEGENERATE)):
            frame, inverse = chol_inv.transpose(0, 2, 1), chol.transpose(0, 2, 1)
            if not definite:  # negative signs first
                order = np.argsort(signs[0], kind="stable")
                frame, inverse = frame[:, :, order], inverse[:, order, :]
            return tuple(int(v) for v in np.sort(signs[0])), frame, inverse
    slack = 2 * _METRIC_ROUNDOFF * np.sqrt(np.sum(metric * metric, axis=(1, 2)))
    lams, frames = np.linalg.eigh(metric)  # ascending eigenvalues
    vals = lams.copy()
    near = np.any((np.abs(lams) <= slack[:, None])
                  | (np.abs(np.abs(lams) - METRIC_DEGENERATE) <= slack[:, None]), axis=1)
    if near.any():
        vals[near] = np.linalg.eigvalsh(metric[near])
    neg = int(np.sum(vals[0] < 0))
    if np.any(np.sum(vals < 0, axis=1) != neg) or np.any(np.abs(vals) < METRIC_DEGENERATE):
        raise NotImmersion("induced metric changes signature or degenerates on the chart")
    # deterministic signs: largest-magnitude component of each vector positive
    lead = np.argmax(np.abs(frames), axis=1)
    signs = np.sign(np.take_along_axis(frames, lead[:, None, :], axis=1))[:, 0, :]
    frames = frames * np.where(signs == 0, 1.0, signs)[:, None, :]
    root = np.sqrt(np.abs(lams))[:, None, :]
    tangent_pattern = tuple(int(np.sign(v)) for v in lams[0])
    return tangent_pattern, frames / root, (frames * root).transpose(0, 2, 1)


def fundamental_data(jet: ImmersionJet, cfg: PipelineConfig) -> FundamentalData:
    """Metric, frames and second fundamental form of a jet, which fix `nconn`;
    the normal frames are fitted at `cfg.rank_tol` and gated at `cfg.align_floor`."""
    g_amb = jet.ambient.gram
    metric = induced_metric(jet)
    p, n, m = jet.chart.npoints, jet.n, jet.m

    tangent_pattern, tangent_frame, tangent_frame_inv = _tangent_frames(metric)
    tangent_ambient = np.swapaxes(jet.d1, 1, 2) @ tangent_frame

    # normal frames: the normal space is the G-complement of the tangent
    # space, so the G-projection of the seed frame onto it is the seed frame
    # minus its tangent part, sum_a eta_a <F0, E_a> E_a; one polar fit of
    # those projections gives every frame.
    eta = np.asarray(tangent_pattern, dtype=float)
    k = m - n
    if k == 0:
        normal_frame = np.zeros((p, m, 0))
        normal_pattern = ()
        lam = 1.0
    else:
        points = np.arange(p)
        seed = _central_point(jet.chart.shape, points)
        # the gauge of the frames: the kernel of the seed's tangent rows
        seed_span = kernel_stack((jet.d1[seed] @ g_amb)[None], cfg.rank_tol, 1.0)[1][0, :, :k]
        frame0, normal_pattern = _seed_frame(seed_span, g_amb, cfg.rank_tol, seed)
        tangent_part = tangent_ambient @ (eta[:, None] * (tangent_ambient.transpose(0, 2, 1)
                                                          @ (g_amb @ frame0)))
        with np.errstate(all="ignore"):  # a failing point is reported, not warned about
            normal_frame, lam = _polar_fit(points, frame0 - tangent_part, g_amb, normal_pattern,
                                           cfg.rank_tol, cfg.align_floor)

    # second fundamental form: normal component of the coordinate second
    # partials, d2 minus its tangent part (d2 G E eta) E^T, formed in the
    # buffer that becomes alpha_ambient, so no other (P, n, n, m) array lives
    d2_dot_e = jet.d2.reshape(p, n * n, m) @ (g_amb @ tangent_ambient)
    d2_dot_e *= eta  # exact, eta is +-1
    alpha_ambient = np.empty_like(jet.d2)
    np.matmul(d2_dot_e, tangent_ambient.transpose(0, 2, 1), out=alpha_ambient.reshape(p, n * n, m))
    del d2_dot_e
    np.subtract(jet.d2, alpha_ambient, out=alpha_ambient)
    eps = np.asarray(normal_pattern, dtype=float)
    alpha_coord_comp = _normal_coords(alpha_ambient, g_amb, normal_frame, eps)
    alpha = contract("pia,pjb,pijt->pabt", tangent_frame, tangent_frame, alpha_coord_comp)

    diagnostics = {
        "alpha_symmetry": float(np.max(np.abs(alpha - np.swapaxes(alpha, 1, 2)), initial=0.0)),
        "frame_step": lam,
    }

    return FundamentalData(
        jet=jet,
        metric=metric,
        tangent_pattern=tangent_pattern,
        tangent_frame=tangent_frame,
        tangent_frame_inv=tangent_frame_inv,
        tangent_ambient=tangent_ambient,
        normal_frame=normal_frame,
        normal_pattern=normal_pattern,
        alpha=alpha,
        alpha_ambient=alpha_ambient,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# tangent distributions
# ---------------------------------------------------------------------------


@dataclass
class DistributionFrame:
    """Aligned per-point basis of a tangent distribution, in tangent-frame coords."""

    basis: np.ndarray  # (P, n, d)

    @property
    def dim(self) -> int:
        return self.basis.shape[2]

    def coordinate_components(self, fund: FundamentalData) -> np.ndarray:
        """Components w.r.t. the coordinate fields d_i, (P, n, d)."""
        return np.einsum("pia,pau->piu", fund.tangent_frame, self.basis)


def coordinate_distribution(fund: FundamentalData, axes: list[int]) -> DistributionFrame:
    """Distribution spanned by chosen coordinate fields, orthonormalized by QR."""
    # column i of the inverse frame matrix: the frame coordinates of d_i
    cols = fund.tangent_frame_inv[:, :, list(axes)]
    if cols.shape[2] != 1:
        return DistributionFrame(np.linalg.qr(cols)[0])
    # one column: LAPACK's Householder Q, x / beta with beta = -sign(x_0) |x|,
    # or x_0 when x has no other nonzero entry (the reflection is then I)
    x = cols[:, :, 0]
    rest = np.sum(x[:, 1:] ** 2, axis=1)
    norm = np.sqrt(x[:, 0] ** 2 + rest)
    beta = np.where(rest == 0, x[:, 0], np.where(x[:, 0] < 0, norm, -norm))
    return DistributionFrame(cols / beta[:, None, None])


def bracket_residual(fund: FundamentalData, dist: DistributionFrame) -> np.ndarray:
    """Per-point norm of Lie brackets of the frame outside the distribution."""
    grid = fund.jet.chart
    xc = dist.coordinate_components(fund)  # (P, n, d)
    p, n, d = xc.shape
    res = np.zeros(p)
    for u in range(d):
        for v in range(u + 1, d):
            bracket = np.zeros((p, n))
            for j in range(n):
                dxv = grid_derivative(xc[:, :, v], grid, j)  # (P, n)
                dxu = grid_derivative(xc[:, :, u], grid, j)
                bracket += xc[:, j, u][:, None] * dxv - xc[:, j, v][:, None] * dxu
            bframe = np.einsum("pai,pi->pa", fund.tangent_frame_inv, bracket)
            inside = np.einsum("pau,pu->pa", dist.basis, np.einsum("pau,pa->pu", dist.basis, bframe))
            res = np.maximum(res, np.linalg.norm(bframe - inside, axis=1))
    return res


def leaf_mean_curvature(fund: FundamentalData, dist: DistributionFrame) -> np.ndarray:
    """Normal part of the leaf mean curvature: trace of alpha over the leaves.

    Returns normal-frame coordinates, (P, k).
    """
    d = dist.dim
    if d == 0:
        return np.zeros((fund.metric.shape[0], fund.normal_rank))
    eta = np.asarray(fund.tangent_pattern, dtype=float)
    signs = contract("pau,a,pau->pu", dist.basis, eta, dist.basis)  # +-1 per leg
    traced = contract("pau,pbu,pabt->put", dist.basis, dist.basis, fund.alpha)
    return np.einsum("pu,put->pt", signs, traced) / d


def umbilic_residual(fund: FundamentalData, dist: DistributionFrame) -> float:
    """Largest entry of alpha - <,> eta on the leaves, eta their mean
    curvature: zero when the leaves are umbilic in the ambient."""
    eta = leaf_mean_curvature(fund, dist)
    alpha_dd = contract("pau,pbv,pabt->puvt", dist.basis, dist.basis, fund.alpha)
    umb = alpha_dd - np.eye(dist.dim)[None, :, :, None] * eta[:, None, None, :]
    return float(np.max(np.abs(umb), initial=0.0))


def conformal_factor_of_metrics(gf: np.ndarray, gg: np.ndarray, tol: float):
    num = np.einsum("pij,pij->p", gg, gf)
    den = np.einsum("pij,pij->p", gf, gf)
    phi2 = num / den
    if np.any(phi2 <= 0):
        raise NotConformal("proportionality factor is not positive")
    resid = gg - phi2[:, None, None] * gf
    scale = np.linalg.norm(gg.reshape(len(gg), -1), axis=1)
    rel = np.linalg.norm(resid.reshape(len(resid), -1), axis=1) / np.maximum(scale, 1e-300)
    if float(np.max(rel)) > tol:
        raise NotConformal(f"metrics are not proportional: residual {float(np.max(rel)):.3e}")
    return np.sqrt(phi2), rel


def gauss_equation_residual(fund: FundamentalData) -> np.ndarray:
    """Per-point residual of the trace of extrinsic vs intrinsic curvature.

    Compares <R(d_i, d_j) d_k, d_l> from the metric against the product of
    second fundamental forms; finite differences of the Christoffel field are
    the only inexact ingredient on closed-form jets.
    """
    jet = fund.jet
    grid = jet.chart
    metric = fund.metric
    gam = christoffel(jet, metric)  # (P, k, i, j)
    p, n = metric.shape[0], metric.shape[1]
    dgam = np.stack([grid_derivative(gam, grid, i) for i in range(n)], axis=1)  # (P, i, l, j, k)
    # R^l_{ijk} = d_i Gam^l_{jk} - d_j Gam^l_{ik} + Gam^l_{im} Gam^m_{jk} - Gam^l_{jm} Gam^m_{ik}
    r = np.zeros((p, n, n, n, n))  # r[p, l, i, j, k]
    for i in range(n):
        for j in range(n):
            r[:, :, i, j, :] = (
                dgam[:, i, :, j, :]
                - dgam[:, j, :, i, :]
                + np.einsum("plm,pmk->plk", gam[:, :, i, :], gam[:, :, j, :])
                - np.einsum("plm,pmk->plk", gam[:, :, j, :], gam[:, :, i, :])
            )
    lhs = np.einsum("pwl,plijk->pijkw", metric, r)
    g_amb = jet.ambient.gram
    # <R(X_i, X_j) X_k, X_w> = <alpha(i, w), alpha(j, k)> - <alpha(j, w), alpha(i, k)>
    aa = fund.alpha_ambient
    rhs = (contract("piwa,ab,pjkb->pijkw", aa, g_amb, aa)
           - contract("pjwa,ab,pikb->pijkw", aa, g_amb, aa))
    return np.max(np.abs(lhs - rhs).reshape(p, -1), axis=1)

"""Builtin immersions and ready-made analysis manifests.

Every entry is a closed-form `ImmersionMap` factory; wrappers (inversion,
cone lift, congruence) compose with any entry.  `default_chart` supplies a
chart box on which the entry is a clean immersion, and `MANIFESTS` holds the
named analyses the command line can run directly.
"""

from __future__ import annotations

import numpy as np

from . import jet3
from .errors import ManifestError
from .indefinite_linalg import ScalarProduct
from .jets import ChartGrid, ImmersionMap
from .lightcone import LightConeModel

__all__ = ["GALLERY", "MANIFESTS", "build_immersion", "default_chart", "catalog"]


# ---------------------------------------------------------------------------
# builtin immersions
# ---------------------------------------------------------------------------


def plane(n: int = 2, p: int = 1, tilt: float = 0.0) -> ImmersionMap:
    """Affine n-plane in R^{n+p}, optionally tilted into the first normal slot
    (there is none when p = 0)."""
    if p < 0:
        raise ValueError(f"plane needs codimension p >= 0, got {p}")

    def fn(xs):
        if p == 0:
            return list(xs)
        zero = jet3.constant(0.0, xs[0])
        return [*xs, sum((float(tilt) * x for x in xs), zero), *[zero] * (p - 1)]

    return ImmersionMap("plane", n, ScalarProduct.euclidean(n + p), fn)


def sphere(n: int = 2, radius: float = 1.0) -> ImmersionMap:
    """Round n-sphere of the given radius in spherical coordinates."""

    def fn(xs):
        comps = []
        running = jet3.constant(float(radius), xs[0])
        for x in xs:
            comps.append(running * jet3.cos(x))
            running = running * jet3.sin(x)
        comps.append(running)
        return comps

    return ImmersionMap("sphere", n, ScalarProduct.euclidean(n + 1), fn)


def cylinder(n: int = 2, radius: float = 1.0) -> ImmersionMap:
    """S^1 x R^{n-1} in R^{n+1}, curled along the first chart axis."""

    def fn(xs):
        r = float(radius)
        comps = [r * jet3.cos(xs[0] * (1.0 / r)), r * jet3.sin(xs[0] * (1.0 / r))]
        comps.extend(xs[1:])
        return comps

    return ImmersionMap("cylinder", n, ScalarProduct.euclidean(n + 1), fn)


def cone_over_sphere(n: int = 2, aperture: float = 0.6) -> ImmersionMap:
    """Rays over a small sphere: t u(w) with |u| = 1; first axis is radial."""

    def fn(xs):
        t = xs[0]
        angles = xs[1:]
        comps = []
        running = jet3.constant(float(aperture), t)
        for x in angles:
            comps.append(t * (running * jet3.cos(x)))
            running = running * jet3.sin(x)
        comps.append(t * running)
        height = float(np.sqrt(1.0 - aperture**2))
        comps.append(t * height)
        return comps

    return ImmersionMap("cone-over-sphere", n, ScalarProduct.euclidean(n + 1), fn)


def torus(major: float = 2.0, minor: float = 0.5) -> ImmersionMap:
    """Torus of revolution in R^3; first axis is the tube angle."""

    def fn(xs):
        th, ph = xs
        w = float(major) + float(minor) * jet3.cos(th)
        return [w * jet3.cos(ph), w * jet3.sin(ph), float(minor) * jet3.sin(th)]

    return ImmersionMap("torus", 2, ScalarProduct.euclidean(3), fn)


def graph(n: int = 3, curvatures=None, cubic: float = 0.3) -> ImmersionMap:
    """Graph hypersurface with prescribed distinct principal curvatures at 0."""
    if curvatures is None:
        curvatures = tuple(1.0 + 1.2 * i for i in range(n))
    curvatures = tuple(float(c) for c in curvatures)

    def fn(xs):
        h = jet3.constant(0.0, xs[0])
        for c, x in zip(curvatures, xs):
            h = h + 0.5 * c * x * x
        h = h + float(cubic) * xs[0] * xs[0] * xs[0]
        return list(xs) + [h]

    return ImmersionMap("graph", n, ScalarProduct.euclidean(n + 1), fn)


def inversion(of: ImmersionMap, center, radius: float = 1.0) -> ImmersionMap:
    """Composition with a sphere inversion; carries its conformal factor."""
    c = np.asarray(center, dtype=float)
    if len(c) != of.ambient.dim:
        raise ManifestError("inversion.center", f"expected {of.ambient.dim} components")

    def fn(xs):
        comps = of.fn(xs)
        diff = [comp - float(ci) for comp, ci in zip(comps, c)]
        r2 = jet3.norm2(*diff)
        scale = float(radius) ** 2
        return [d * scale / r2 + float(ci) for d, ci in zip(diff, c)]

    def factor_fn(xs):
        comps = of.fn(xs)
        diff = [comp - float(ci) for comp, ci in zip(comps, c)]
        return (float(radius) ** 2) / jet3.norm2(*diff)

    return ImmersionMap(f"inversion({of.name})", of.chart_dim, of.ambient, fn, factor_fn=factor_fn)


def psi_lift(of: ImmersionMap) -> ImmersionMap:
    """Composition with the isometric cone chart of the Euclidean ambient."""
    if of.ambient.index != 0:
        raise ManifestError("psi_lift.of", "cone lift needs a Euclidean-valued immersion")
    model = LightConeModel(of.ambient.dim)

    def fn(xs):
        return model.chart(of.fn(xs))

    return ImmersionMap(f"psi-lift({of.name})", of.chart_dim, model.ambient, fn)


def congruence(of: ImmersionMap, seed: int = 1, shift=None) -> ImmersionMap:
    """Composition with a seeded rotation and translation of the ambient."""
    m = of.ambient.dim
    if of.ambient.index != 0:
        raise ManifestError("congruence.of", "congruence wrapper expects a Euclidean ambient")
    rng = np.random.default_rng(int(seed))
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    sh = np.zeros(m) if shift is None else np.asarray(shift, dtype=float)
    if sh.shape != (m,):
        raise ValueError(f"congruence shift needs {m} components, got shape {sh.shape}")

    def fn(xs):
        comps = of.fn(xs)
        return [
            sum((float(q[r, c]) * comps[c] for c in range(m)),
                jet3.constant(float(sh[r]), comps[0]))
            for r in range(m)
        ]

    return ImmersionMap(f"congruence({of.name})", of.chart_dim, of.ambient, fn)


def pad(of: ImmersionMap, extra: int = 1) -> ImmersionMap:
    """Embed into a larger Euclidean ambient by appending zero components."""
    if of.ambient.index != 0:
        raise ManifestError("pad.of", "padding expects a Euclidean ambient")
    if extra < 0:
        raise ValueError(f"pad needs extra >= 0 components, got {extra}")

    def fn(xs):
        comps = of.fn(xs)
        zero = jet3.constant(0.0, xs[0])
        return list(comps) + [zero] * int(extra)

    return ImmersionMap(f"pad({of.name})", of.chart_dim,
                        ScalarProduct.euclidean(of.ambient.dim + int(extra)), fn)


def lorentz_slice(n: int = 3, q: int = 1) -> ImmersionMap:
    """The flat family Psi(x, 0) + t e2 on the (t, x) chart, off the cone.

    Its zero set against the cone has the two branches t = 0 and
    t = -2 x1; both slices are flat.
    """
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


def adapted_cylinder(n: int = 3) -> ImmersionMap:
    """A chart map restricting to the standard cylinder on the t = -2 x1 slice.

    The extra coordinate absorbs t + 2 x1, so the restriction to that branch
    of the light-cone slice is an honest flat cylinder; the pair it forms
    with `lorentz-slice` is the degenerate-branch workhorse.
    """

    def fn(xs):
        t = xs[0]
        x = xs[1:]
        comps = [jet3.cos(x[0]), jet3.sin(x[0])]
        comps.extend(x[1:])
        comps.append(t + 2.0 * x[0])
        return comps

    return ImmersionMap("adapted-cylinder", n + 1, ScalarProduct.euclidean(n + 2), fn)


GALLERY = {
    "plane": plane,
    "sphere": sphere,
    "cylinder": cylinder,
    "cone-over-sphere": cone_over_sphere,
    "torus": torus,
    "graph": graph,
    "inversion": inversion,
    "psi-lift": psi_lift,
    "congruence": congruence,
    "pad": pad,
    "lorentz-slice": lorentz_slice,
    "adapted-cylinder": adapted_cylinder,
}

_WRAPPERS = {"inversion", "psi-lift", "congruence", "pad"}


def build_immersion(spec: dict, where: str = "immersion") -> ImmersionMap:
    """Resolve a manifest immersion spec (builtin name or expression list)."""
    if not isinstance(spec, dict):
        raise ManifestError(where, "immersion spec must be an object")
    if "builtin" in spec:
        name = spec["builtin"]
        if name not in GALLERY:
            raise ManifestError(f"{where}.builtin", f"unknown builtin {name!r}")
        params = dict(spec.get("params", {}))
        if name in _WRAPPERS:
            inner_spec = params.pop("of", None)
            if inner_spec is None:
                raise ManifestError(f"{where}.params.of", f"wrapper {name!r} needs an inner immersion")
            params["of"] = build_immersion(inner_spec, where=f"{where}.params.of")
        try:
            return GALLERY[name](**params)
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"{where}.params", str(exc)) from exc
    if "expr" in spec:
        from .expr import compile_immersion

        comps = spec["expr"]
        nvars = spec.get("chart_dim")
        if not isinstance(nvars, int) or nvars < 1:
            raise ManifestError(f"{where}.chart_dim", "expression immersions need a chart_dim")
        amb = spec.get("ambient", {})
        dim = amb.get("dim", len(comps))
        if dim != len(comps):
            raise ManifestError(f"{where}.ambient.dim", "dimension must match the component count")
        if amb.get("lightcone", False):
            ambient = ScalarProduct.lightcone(dim - 2)
        elif amb.get("index", 0):
            raise ManifestError(f"{where}.ambient.index", "only Euclidean or cone ambients here")
        else:
            ambient = ScalarProduct.euclidean(dim)
        fn = compile_immersion(comps, nvars, where=f"{where}.expr")
        return ImmersionMap("expr", nvars, ambient, fn)
    raise ManifestError(where, "immersion spec needs a 'builtin' or 'expr' key")


def default_chart(imap: ImmersionMap) -> ChartGrid:
    """A chart box on which the entry is a clean immersion."""
    name = imap.name.split("(")[0]
    n = imap.chart_dim
    if name == "sphere":
        return ChartGrid((7,) * n, (0.03,) * n, (0.9,) + (0.7,) * (n - 1))
    if name == "cone-over-sphere":
        return ChartGrid((7,) * n, (0.04,) * n, (0.9,) + (0.7,) * (n - 1))
    if name == "torus":
        return ChartGrid((9, 9), (0.025, 0.025), (0.3, 0.2))
    if name in ("lorentz-slice", "adapted-cylinder"):
        return ChartGrid((9,) + (7,) + (5,) * (n - 2), (0.5,) + (0.05,) * (n - 1),
                         (-3.0, 0.8) + (-0.1,) * (n - 2))
    # plane, cylinder, graph and wrapped entries live near the origin; keep
    # clear of inversion centers by a modest box
    return ChartGrid((7,) * n, (0.04,) * n, (0.1,) + (-0.12,) * (n - 1))


def catalog() -> list[dict]:
    entries = []
    for name, factory in sorted(GALLERY.items()):
        doc = (factory.__doc__ or "").strip().splitlines()[0]
        entries.append({"name": name, "summary": doc, "wrapper": name in _WRAPPERS})
    return entries


# ---------------------------------------------------------------------------
# named manifests
# ---------------------------------------------------------------------------


def _grid(shape, spacing, origin):
    return {"shape": list(shape), "spacing": list(spacing), "origin": list(origin)}


MANIFESTS: dict[str, dict] = {
    "psi-invariants": {
        "analysis": "single",
        "immersion": {"builtin": "psi-lift", "params": {"of": {"builtin": "plane", "params": {"n": 2, "p": 1}}}},
        "grid": _grid((7, 7), (0.05, 0.05), (-0.15, -0.15)),
        "checks": {
            "lightcone_identities": {"points": 1000, "dim": 4, "threshold": 1e-12},
            "position_identities": {"threshold": 1e-10},
            "roundtrip": {"threshold": 1e-10},
        },
    },
    "cylinder-nullity": {
        "analysis": "single",
        "immersion": {"builtin": "cylinder", "params": {"n": 3}},
        "grid": _grid((5, 5, 5), (0.04, 0.04, 0.04), (0.1, -0.08, -0.08)),
        "nullity": {"s_values": [1], "points": "center"},
        "expect": {"nu": {"1": 2}},
    },
    "sphere-nullity": {
        "analysis": "single",
        "immersion": {"builtin": "sphere", "params": {"n": 3, "radius": 2.0}},
        "grid": _grid((5, 5, 5), (0.04, 0.04, 0.04), (0.9, 0.8, 0.7)),
        "nullity": {"s_values": [1], "points": "center"},
        "expect": {"nu": {"1": 3}},
    },
    "graph-nullity": {
        "analysis": "single",
        "immersion": {"builtin": "graph", "params": {"n": 3}},
        "grid": _grid((5, 5, 5), (0.03, 0.03, 0.03), (-0.06, -0.06, -0.06)),
        "nullity": {"s_values": [1], "points": "center"},
        "expect": {"nu": {"1": 1}},
    },
    "cylinder-inversion-transfer": {
        "analysis": "single",
        "immersion": {
            "builtin": "inversion",
            "params": {"of": {"builtin": "cylinder", "params": {"n": 2}},
                        "center": [0.0, 0.0, 2.0]},
        },
        "grid": _grid((11, 11), (0.02, 0.02), (0.1, -0.1)),
        "transfer": {"base": {"builtin": "cylinder", "params": {"n": 2}},
                      "ruling_axes": [1],
                      "thresholds": {"sff_dictionary": 1e-7,
                                      "hess_proportionality": 1e-6}},
    },
    "congruent-pair": {
        "analysis": "pair",
        "left": {"builtin": "sphere", "params": {"n": 3, "radius": 2.0}},
        "right": {
            "builtin": "congruence",
            "params": {"of": {"builtin": "sphere", "params": {"n": 3, "radius": 2.0}},
                        "seed": 5, "shift": [0.3, -1.0, 2.0, 0.7]},
        },
        "grid": _grid((7, 7, 7), (0.015, 0.015, 0.015), (0.9, 0.8, 0.4)),
        "expect": {"branch": "nondegenerate", "rulings": 3, "transfer_bundle": 1},
        "checks": {"compatibility_threshold": 1e-8},
    },
    "flat-pair": {
        "analysis": "pair",
        "left": {"builtin": "plane", "params": {"n": 3, "p": 1}},
        "right": {"builtin": "cylinder", "params": {"n": 3}},
        "grid": _grid((7, 7, 5), (0.03, 0.03, 0.03), (0.1, -0.09, -0.06)),
        "expect": {"branch": "nondegenerate", "rulings": 2, "transfer_bundle": 0},
        "checks": {"compatibility_threshold": 1e-6},
    },
    "degenerate-pair": {
        "analysis": "generate",
        "generator": {
            "left": {"builtin": "adapted-cylinder", "params": {"n": 4}},
            "lorentz": {"builtin": "lorentz-slice", "params": {"n": 4, "q": 1}},
            "axis": 0,
            "branch": 0,
            "analyze_pair": True,
        },
        "grid": _grid((9, 7, 5, 5, 5), (0.5, 0.05, 0.05, 0.05, 0.05),
                       (-3.0, 0.8, -0.1, -0.1, -0.1)),
        "expect": {"branch": "degenerate", "rulings": 3, "transfer_bundle": 2,
                    "witness_pairing": 1.0},
        "checks": {"claims_threshold": 1e-6, "compatibility_threshold": 1e-6},
    },
    "flat-extension": {
        "analysis": "extend",
        "left": {"builtin": "plane", "params": {"n": 3, "p": 2}},
        "right": {"builtin": "pad",
                   "params": {"of": {"builtin": "cylinder", "params": {"n": 3}},
                               "extra": 1}},
        "grid": _grid((7, 7, 5), (0.03, 0.03, 0.03), (0.1, -0.09, -0.06)),
        "transfer": {"shared_flat_normal": [0.0, 0.0, 0.0, 0.0, 1.0],
                      "ruling_axes": [1, 2]},
        "checks": {"metric_threshold": 1e-6, "kernel_identity_threshold": 1e-6},
    },
    "degenerate-extension": {
        "analysis": "extend",
        "generator": {
            "left": {"builtin": "adapted-cylinder", "params": {"n": 3}},
            "lorentz": {"builtin": "lorentz-slice", "params": {"n": 3, "q": 1}},
            "axis": 0,
            "branch": 0,
        },
        "grid": _grid((9, 7, 5, 5), (0.5, 0.05, 0.05, 0.05), (-3.0, 0.8, -0.1, -0.1)),
        "checks": {"metric_threshold": 1e-6, "kernel_identity_threshold": 1e-6},
    },
}

"""The benchmark's workloads: manifests built from a seed, and what the
geometry says each report must contain.

A workload is a list of operations; one operation is one manifest that the
runner executes and serialises.  The seed picks the ambient congruence of the
congruent pairs and every manifest's own `seed`; branches, ranks and
verdicts do not depend on it.  Inline value tables are sampled here, with
numpy, from the same closed forms the gallery builtins use, so the program
sees only the sampled positions.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("pairs", "extend", "charts")

# Named gallery manifests, copied here so that the workloads stay fixed when
# the gallery changes.  Grids and thresholds are those of the gallery.
_SPHERE3 = {"builtin": "sphere", "params": {"n": 3, "radius": 2.0}}
_CONGRUENT_GRID = {"shape": [7, 7, 7], "spacing": [0.015, 0.015, 0.015], "origin": [0.9, 0.8, 0.4]}
_FLAT_GRID = {"shape": [7, 7, 5], "spacing": [0.03, 0.03, 0.03], "origin": [0.1, -0.09, -0.06]}


@dataclass
class Operation:
    """One manifest execution and the values its report must show.

    `expect` holds the values the geometry fixes:
    - "regions": (branch, rulings, transfer_bundle) that every region of a
      pair analysis must have;
    - "witness_pairing": the witness pairing of a degenerate pair;
    - "nu": the s = 1 conformal nullity at the chart center;
    - "fiber_rank": inclusive (low, high) bounds on the extension's fibre rank.

    `known_fault` names the program fault that makes the operation fail on
    every seed; such an operation counts as failed without making the run
    incorrect.
    """

    name: str
    doc: dict
    expect: dict = field(default_factory=dict)
    known_fault: str = ""
    points: int = 0


def _grid(shape, spacing, origin) -> dict:
    return {"shape": list(shape), "spacing": list(spacing), "origin": list(origin)}


def _grid_points(grid: dict) -> np.ndarray:
    """Chart points in the runner's flat order (C order over the axes)."""
    axes = [o + h * np.arange(s) for s, h, o in zip(grid["shape"], grid["spacing"], grid["origin"])]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def sphere_values(x: np.ndarray, radius: float) -> np.ndarray:
    """Round sphere in spherical coordinates, as the `sphere` builtin."""
    comps = []
    running = np.full(x.shape[0], radius)
    for i in range(x.shape[1]):
        comps.append(running * np.cos(x[:, i]))
        running = running * np.sin(x[:, i])
    comps.append(running)
    return np.stack(comps, axis=1)


def plane_values(x: np.ndarray) -> np.ndarray:
    """Affine 3-plane in R^4, as the `plane` builtin with p = 1."""
    return np.concatenate([x, np.zeros((x.shape[0], 1))], axis=1)


def cylinder_values(x: np.ndarray) -> np.ndarray:
    """Unit cylinder S^1 x R^2 in R^4, as the `cylinder` builtin."""
    return np.stack([np.cos(x[:, 0]), np.sin(x[:, 0]), x[:, 1], x[:, 2]], axis=1)


def _table(values: np.ndarray) -> dict:
    return {"table": {"values": values.tolist()}}


def _rotation(rng: np.random.Generator, m: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    return q


def _pairs(rng: np.random.Generator) -> list[Operation]:
    congruence_seed = int(rng.integers(1, 2**31))
    shift = [round(float(v), 6) for v in rng.uniform(-2.0, 2.0, size=4)]
    right_congruent = {"builtin": "congruence",
                       "params": {"of": copy.deepcopy(_SPHERE3), "seed": congruence_seed,
                                  "shift": shift}}
    congruent = {
        "analysis": "pair",
        "left": copy.deepcopy(_SPHERE3),
        "right": right_congruent,
        "grid": copy.deepcopy(_CONGRUENT_GRID),
        "expect": {"branch": "nondegenerate", "rulings": 3, "transfer_bundle": 1},
        "checks": {"compatibility_threshold": 1e-8},
    }
    flat = {
        "analysis": "pair",
        "left": {"builtin": "plane", "params": {"n": 3, "p": 1}},
        "right": {"builtin": "cylinder", "params": {"n": 3}},
        "grid": copy.deepcopy(_FLAT_GRID),
        "expect": {"branch": "nondegenerate", "rulings": 2, "transfer_bundle": 0},
        "checks": {"compatibility_threshold": 1e-6},
    }
    degenerate = {
        "analysis": "generate",
        "generator": {
            "left": {"builtin": "adapted-cylinder", "params": {"n": 4}},
            "lorentz": {"builtin": "lorentz-slice", "params": {"n": 4, "q": 1}},
            "axis": 0, "branch": 0, "analyze_pair": True,
        },
        "grid": _grid((9, 7, 5, 5, 5), (0.5, 0.05, 0.05, 0.05, 0.05), (-3.0, 0.8, -0.1, -0.1, -0.1)),
        "expect": {"branch": "degenerate", "rulings": 3, "transfer_bundle": 2,
                   "witness_pairing": 1.0},
        "checks": {"claims_threshold": 1e-6, "compatibility_threshold": 1e-6},
    }
    sphere_expect = {"regions": ("nondegenerate", 3, 1)}
    flat_expect = {"regions": ("nondegenerate", 2, 0)}

    # the table variants: one side sampled from its closed form
    cx = _grid_points(_CONGRUENT_GRID)
    fx = _grid_points(_FLAT_GRID)
    rot = _rotation(rng, 4)
    offset = rng.uniform(-2.0, 2.0, size=4)
    congruent_left = copy.deepcopy(congruent)
    congruent_left["left"] = _table(sphere_values(cx, 2.0))
    congruent_right = copy.deepcopy(congruent)
    congruent_right["right"] = _table(sphere_values(cx, 2.0) @ rot.T + offset)
    flat_left = copy.deepcopy(flat)
    flat_left["left"] = _table(plane_values(fx))
    flat_right = copy.deepcopy(flat)
    flat_right["right"] = _table(cylinder_values(fx))

    return [
        Operation("congruent-pair", congruent, sphere_expect),
        Operation("flat-pair", flat, flat_expect),
        Operation("degenerate-pair", degenerate,
                  {"regions": ("degenerate", 3, 2), "witness_pairing": 1.0}),
        Operation("congruent-pair.left-table", congruent_left, sphere_expect,
                  known_fault="stencil-derived ranks decided at rank_tol: rulings 0, "
                              "transfer bundle 0"),
        Operation("congruent-pair.right-table", congruent_right, sphere_expect,
                  known_fault="stencil-derived ranks decided at rank_tol: splits into "
                              "many regions with rulings 0"),
        Operation("flat-pair.left-table", flat_left, flat_expect),
        Operation("flat-pair.right-table", flat_right, flat_expect,
                  known_fault="cli._lift_if_needed isometry test at 1e-8 lifts the "
                              "tabulated cylinder; FrameAlignmentFailure"),
    ]


def _extend(rng: np.random.Generator) -> list[Operation]:
    flat = {
        "analysis": "extend",
        "left": {"builtin": "plane", "params": {"n": 3, "p": 2}},
        "right": {"builtin": "pad",
                  "params": {"of": {"builtin": "cylinder", "params": {"n": 3}}, "extra": 1}},
        "grid": copy.deepcopy(_FLAT_GRID),
        "transfer": {"shared_flat_normal": [0.0, 0.0, 0.0, 0.0, 1.0], "ruling_axes": [1, 2]},
        "checks": {"metric_threshold": 1e-6, "kernel_identity_threshold": 1e-6},
    }
    degenerate = {
        "analysis": "extend",
        "generator": {
            "left": {"builtin": "adapted-cylinder", "params": {"n": 3}},
            "lorentz": {"builtin": "lorentz-slice", "params": {"n": 3, "q": 1}},
            "axis": 0, "branch": 0,
        },
        "grid": _grid((9, 7, 5, 5), (0.5, 0.05, 0.05, 0.05), (-3.0, 0.8, -0.1, -0.1)),
        "checks": {"metric_threshold": 1e-6, "kernel_identity_threshold": 1e-6},
    }
    return [
        # a shared flat normal is a rank-1 fibre
        Operation("flat-extension", flat, {"fiber_rank": (1, 1)}),
        # the degenerate branch of the generated pair has transfer bundle
        # rank ell = 2, and its fibre rank lies in [2, ell]
        Operation("degenerate-extension", degenerate, {"fiber_rank": (2, 2)}),
    ]


def _charts(rng: np.random.Generator) -> list[Operation]:
    named = [
        Operation("psi-invariants", {
            "analysis": "single",
            "immersion": {"builtin": "psi-lift",
                          "params": {"of": {"builtin": "plane", "params": {"n": 2, "p": 1}}}},
            "grid": _grid((7, 7), (0.05, 0.05), (-0.15, -0.15)),
            "checks": {
                "lightcone_identities": {"points": 1000, "dim": 4, "threshold": 1e-12},
                "position_identities": {"threshold": 1e-10},
                "roundtrip": {"threshold": 1e-10},
            },
        }),
        Operation("cylinder-nullity", {
            "analysis": "single",
            "immersion": {"builtin": "cylinder", "params": {"n": 3}},
            "grid": _grid((5, 5, 5), (0.04, 0.04, 0.04), (0.1, -0.08, -0.08)),
            "nullity": {"s_values": [1], "points": "center"},
            "expect": {"nu": {"1": 2}},
        }, {"nu": 2}),
        Operation("sphere-nullity", {
            "analysis": "single",
            "immersion": copy.deepcopy(_SPHERE3),
            "grid": _grid((5, 5, 5), (0.04, 0.04, 0.04), (0.9, 0.8, 0.7)),
            "nullity": {"s_values": [1], "points": "center"},
            "expect": {"nu": {"1": 3}},
        }, {"nu": 3}),
        Operation("graph-nullity", {
            "analysis": "single",
            "immersion": {"builtin": "graph", "params": {"n": 3}},
            "grid": _grid((5, 5, 5), (0.03, 0.03, 0.03), (-0.06, -0.06, -0.06)),
            "nullity": {"s_values": [1], "points": "center"},
            "expect": {"nu": {"1": 1}},
        }, {"nu": 1}),
        Operation("cylinder-inversion-transfer", {
            "analysis": "single",
            "immersion": {"builtin": "inversion",
                          "params": {"of": {"builtin": "cylinder", "params": {"n": 2}},
                                     "center": [0.0, 0.0, 2.0]}},
            "grid": _grid((11, 11), (0.02, 0.02), (0.1, -0.1)),
            "transfer": {"base": {"builtin": "cylinder", "params": {"n": 2}},
                         "ruling_axes": [1],
                         "thresholds": {"sff_dictionary": 1e-7, "hess_proportionality": 1e-6}},
        }),
    ]
    # single analyses at the manifest cap of 10^4 points
    large = [
        Operation("graph4-10k", {
            "analysis": "single",
            "immersion": {"builtin": "graph", "params": {"n": 4}},
            "grid": _grid((10,) * 4, (0.02,) * 4, (-0.09,) * 4),
            "nullity": {"s_values": [1], "points": "center"},
            "expect": {"nu": {"1": 1}},
        }, {"nu": 1}),
        Operation("sphere3-9261", {
            "analysis": "single",
            "immersion": copy.deepcopy(_SPHERE3),
            "grid": _grid((21,) * 3, (0.01,) * 3, (0.9, 0.8, 0.7)),
            "nullity": {"s_values": [1], "points": "center"},
            "expect": {"nu": {"1": 3}},
        }, {"nu": 3}),
        Operation("psi-plane-10k", {
            "analysis": "single",
            "immersion": {"builtin": "psi-lift",
                          "params": {"of": {"builtin": "plane", "params": {"n": 2, "p": 1}}}},
            "grid": _grid((100, 100), (0.005, 0.005), (-0.25, -0.25)),
            "checks": {"position_identities": {"threshold": 1e-10},
                       "roundtrip": {"threshold": 1e-10}},
        }),
        Operation("psi-torus-10k", {
            "analysis": "single",
            "immersion": {"builtin": "psi-lift", "params": {"of": {"builtin": "torus"}}},
            "grid": _grid((100, 100), (0.005, 0.005), (0.3, 0.2)),
            "checks": {"position_identities": {"threshold": 1e-10},
                       "roundtrip": {"threshold": 1e-10}},
        }),
        Operation("cylinder-inversion-transfer-10k", {
            "analysis": "single",
            "immersion": {"builtin": "inversion",
                          "params": {"of": {"builtin": "cylinder", "params": {"n": 2}},
                                     "center": [0.0, 0.0, 2.0]}},
            "grid": _grid((100, 100), (0.002, 0.002), (0.1, -0.1)),
            "transfer": {"base": {"builtin": "cylinder", "params": {"n": 2}},
                         "ruling_axes": [1],
                         "thresholds": {"sff_dictionary": 1e-7, "hess_proportionality": 1e-6}},
        }),
    ]
    return named + large


_OPERATIONS = {"pairs": _pairs, "extend": _extend, "charts": _charts}


def build(workload: str, seed: int) -> list[Operation]:
    """The operations of one pass over `workload`, made from `seed`."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = _OPERATIONS[workload](rng)
    for op in ops:
        op.doc["seed"] = int(rng.integers(0, 2**31))
        op.points = int(np.prod(op.doc["grid"]["shape"]))
    return ops

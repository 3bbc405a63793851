"""Manifest-driven batch runner.

A manifest is a single JSON document naming an analysis kind (single, pair,
generate, extend), the immersions involved (gallery builtins, wrappers,
closed-form expression lists or inline value tables), a chart grid,
tolerances and a seed.  The pair-shaped kinds read their two sides through
one stage: `left`/`right` specs, or a `generator` section that slices a
Lorentz map with the light cone and takes the sliced map, which lies in the
cone, as the right side.
`pair` also lifts a conformal `right` side; `extend` does not, so its
`left`/`right` pair must be isometric.
The runner dispatches to the library, collects every residual next to its
threshold, and writes one self-describing JSON report (plus optional
per-point CSV).  Identical manifests produce byte-identical reports: all
randomness is seeded and no clocks are recorded.  Before any of that, the
manifest is walked against one table of its keys (`_SCHEMA`).

Exit codes: 0 all checks passed, 1 errors, 2 check failures.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import json
import math
import sys

import numpy as np

from . import __version__
from .conformal_calc import conformal_s_nullity, is_conformally_ruled, rigidity_criterion
from .errors import GeometryError, HypothesisOutOfRange, ManifestError, RankJump
from .extension import (extension_obstruction, generate_conformal_pair, ruled_extension,
                        verify_extension)
from .gallery import GALLERY, MANIFESTS, build_immersion, catalog
from .indefinite_linalg import ScalarProduct
from .jets import (ChartGrid, ImmersionJet, ImmersionMap, PipelineConfig, coordinate_distribution,
                   fundamental_data, induced_metric)
from .lightcone import (LightConeModel, cone_projection, isometric_representative,
                        position_identities, sff_transfer_check)
from .pair_pipeline import TransferData, analyze_pair, ruling_dimension_bound, verify_compatibility

__all__ = ["run_manifest", "parse_manifest", "main"]


# ---------------------------------------------------------------------------
# the manifest table and its walk
# ---------------------------------------------------------------------------


def _need(ok: bool, path: str, message: str):
    if not ok:
        raise ManifestError(path, message)


def _got(value) -> str:
    return type(value).__name__ if isinstance(value, (list, dict)) else repr(value)


def _number(what: str, low=-math.inf, high=math.inf, integer=False, open_low=False):
    """A leaf: a number in [low, high] ((low, high] where `open_low`), an int
    where `integer`, else a float; never a bool, NaN or an infinity."""
    def parse(value, path):
        _need(not isinstance(value, bool) and isinstance(value, int if integer else (int, float))
              and abs(value) <= sys.float_info.max and value <= high
              and (low < value if open_low else low <= value), path, f"expected {what}, got {_got(value)}")
        return value if integer else float(value)
    return parse


def _rows(value, path):
    """A leaf: an inline value table, equal-length rows of finite numbers."""
    try:
        values = np.array(value)
    except ValueError:  # ragged rows
        values = np.array([])
    # numbers only: numpy would parse numeric strings and booleans as floats
    _need(values.dtype.kind in "iuf" and values.ndim == 2 and values.shape[1] >= 1
          and np.all(np.isfinite(values)) and not any(type(x) is bool for row in value for x in row),
          path, "expected a list of equal-length rows of finite numbers")
    return values.astype(float)


def _axes(value, path):
    """A leaf: distinct chart axes; `_cross_checks` holds them below n."""
    _need(isinstance(value, list) and all(type(a) is int and a >= 0 for a in value)
          and len(set(value)) == len(value), path,
          f"expected distinct chart axes in [0, n), got {_got(value)}")
    return value


def _nu(value, path):
    """A leaf: expected nullities, keyed by s as a decimal string."""
    _need(isinstance(value, dict), path, f"expected an object, got {_got(value)}")
    for key in value:
        _need(isinstance(key, str) and key.isdecimal() and str(int(key)) == key, f"{path}.{key}",
              "expected an integer s as the key")
    return {key: _COUNT(entry, f"{path}.{key}") for key, entry in value.items()}


def _spec(variants: dict, build: bool):
    """A leaf: an immersion spec, told apart by its first key among
    `variants`; a builtin's params are typed by its factory's signature.
    The spec, its map where `build`, or a value table's array."""
    def parse(value, path):
        key = next((k for k in variants if k in value), None) if isinstance(value, dict) else None
        _need(key is not None, path, f"expected an object with a {' or '.join(map(repr, variants))} "
              f"key, got {_got(value)}")
        spec = _parse(variants[key], value, path)
        if key == "table":
            return spec["table"]["values"]
        if key == "builtin":
            params = inspect.signature(GALLERY[spec["builtin"]]).parameters.values()
            spec["params"] = _parse({p.name: (_PARAMS[p.annotation.removesuffix(" | None")],
                                              ... if p.default is p.empty else p.default)
                                     for p in params}, spec["params"], f"{path}.params")
        else:
            _need(spec["ambient"].keys() == {"lightcone"} or spec["ambient"]["dim"] == len(spec["expr"]),
                  f"{path}.ambient.dim", "dimension must match the component count")
            _need(len(spec["expr"]) >= 2 or not spec["ambient"]["lightcone"], f"{path}.ambient.lightcone",
                  "a cone ambient needs at least 2 components")
        return build_immersion(spec, path) if build else spec
    parse.variants = variants
    return parse


_TYPES = {str: "a nonempty string", bool: "a boolean", dict: "an object"}


def _parse(node, value, path: str):
    """`value` at `path` checked against the table node `node`, defaults
    filled in.  A node is an object table {key: (node, default)}, where the
    default `...` marks a required key and None an optional one; a list
    [item] or [item, min_len]; a tuple of string choices, whose last entry
    may be the node for any other JSON type; a JSON type of `_TYPES`; or a
    leaf function."""
    if isinstance(node, dict):
        _need(isinstance(value, dict), path, f"expected an object, got {_got(value)}")
        out = {}
        for key, entry in value.items():
            where = f"{path}.{key}" if path else key
            _need(key in node, where, f"unknown key; expected one of {list(node)}")
            out[key] = _parse(node[key][0], entry, where)
        for key, (child, default) in node.items():
            _need(key in out or default is not ..., f"{path}.{key}" if path else key,
                  "missing required field")
            if key not in out and default is not None:
                out[key] = _parse(child, default, path)
        return out
    if isinstance(node, list):
        _need(isinstance(value, list) and len(value) >= len(node) - 1, path,
              f"expected {'a nonempty list' if len(node) > 1 else 'a list'}, got {_got(value)}")
        return [_parse(node[0], entry, path) for entry in value]
    if isinstance(node, tuple):
        if not isinstance(value, str) and not isinstance(node[-1], str):
            return _parse(node[-1], value, path)
        _need(value in node and isinstance(value, str), path, "expected one of "
              + ", ".join(repr(c) for c in node if isinstance(c, str)) + f", got {_got(value)}")
        return value
    if node in _TYPES:
        _need(isinstance(value, node) and value != "", path, f"expected {_TYPES[node]}, got {_got(value)}")
        return value
    return node(value, path)


# desk scale: a chart has at most _MAX_POINTS points on at most _MAX_AXES axes,
# and a builtin's dimension params (`gallery.Dim`) are at most _MAX_DIM in size
_MAX_POINTS, _MAX_AXES, _MAX_DIM = 10_000, 9, 16
_COUNT = _number("a non-negative integer", 0, integer=True)
_POSITIVE = _number("a positive integer", 1, integer=True)
_TOLERANCE = _number("a number in (0, 1e-3]", 0, 1e-3, open_low=True)
_THRESHOLD = _number("a number >= 0", 0)
_FINITE = _number("a finite number")
_INTEGER = _number("an integer", integer=True)


def _capped(leaf, cap: int):
    """A leaf: a value of `leaf` of size at most `cap`."""
    def parse(value, path):
        _need(abs(leaf(value, path)) <= cap, path, f"expected a size of at most {cap}, got {value}")
        return value
    return parse


_IMMERSION = {
    "builtin": {"builtin": (tuple(GALLERY), ...), "params": (dict, {})},
    "expr": {"expr": ([str, 1], ...), "chart_dim": (_capped(_POSITIVE, _MAX_AXES), ...),
             "ambient": ({"dim": (_POSITIVE, None), "lightcone": (bool, False)}, {})},
}
# a builtin's params, by the annotations of its factory's signature
# (a factory refuses the negative dimensions it cannot take)
_PARAMS = {"int": _INTEGER, "Dim": _capped(_INTEGER, _MAX_DIM), "float": _FINITE,
           "list[float]": [_FINITE], "ImmersionMap": _spec(_IMMERSION, build=False)}
_MAP = _spec(_IMMERSION, build=True)
_SIDE = _spec({**_IMMERSION, "table": {"table": ({"values": (_rows, ...)}, ...)}}, build=True)
_KIND = ("single", "pair", "generate", "extend")
_RUN = {
    "analysis": (_KIND, ...),
    "tolerance": (_TOLERANCE, PipelineConfig.rank_tol),
    "fd_tolerance": (_TOLERANCE, PipelineConfig.fd_tol),
    "seed": (_COUNT, PipelineConfig.seed),
    "output": (str, "report.json"),
    "grid": ({"shape": ([_POSITIVE, 1], ...),
              "spacing": ([_number("a number > 0", 0, open_low=True)], ...),
              "origin": ([_FINITE], ...)}, ...),
}
_SIDES = {"left": (_SIDE, None), "right": (_SIDE, None)}
_GENERATOR = {"left": (_MAP, ...), "lorentz": (_MAP, ...), "branch": (_COUNT, 0),
              "axis": (_number("a chart axis in [0, n)", 0, integer=True), 0)}
_PAIR = {
    "generator": ({**_GENERATOR, "analyze_pair": (bool, False)}, None),
    "expect": ({"branch": (("nondegenerate", "degenerate"), None), "rulings": (_COUNT, None),
                "transfer_bundle": (_COUNT, None), "witness_pairing": (_FINITE, None)}, {}),
    # claims_threshold is typed but read by nothing: each claim carries its own verdict
    "checks": ({"compatibility_threshold": (_THRESHOLD, None),
                "claims_threshold": (_THRESHOLD, None)}, {}),
}
_SCHEMA = {
    "single": {
        **_RUN,
        "immersion": (_SIDE, ...),
        "checks": ({"lightcone_identities": ({"points": (_POSITIVE, 1000), "dim": (_COUNT, 4),
                                              "threshold": (_THRESHOLD, 1e-12)}, None),
                    "position_identities": ({"threshold": (_THRESHOLD, 1e-8)}, None),
                    "roundtrip": ({"threshold": (_THRESHOLD, 1e-10)}, None),
                    "fd_agreement": ({"threshold": (_THRESHOLD, 1e-4)}, None)}, {}),
        "ruled": ({"axes": (_axes, []), "expect_ruled": (bool, None)}, None),
        "nullity": ({"s_values": ([_COUNT], [1]),
                     "points": (("center", "all", [_COUNT, 1]), "center")}, None),
        "expect": ({"nu": (_nu, {})}, {}),
        "rigidity_q": (_COUNT, None),
        "transfer": ({"base": (_MAP, ...), "ruling_axes": (_axes, [0]),
                      "thresholds": ({key: (_THRESHOLD, None) for key in (
                          "umbilic", "sff_dictionary", "mean_curvature_dictionary",
                          "corrected_sff_dictionary", "hess_proportionality")}, {})}, None),
    },
    "pair": {**_RUN, **_SIDES, **_PAIR},
    "generate": {**_RUN, **_PAIR, "generator": (_PAIR["generator"][0], ...)},
    "extend": {
        **_RUN, **_SIDES,
        "generator": (_GENERATOR, None),
        "transfer": (("pipeline", {"shared_flat_normal": ([_FINITE], ...), "ruling_axes": (_axes, [])}),
                     "pipeline"),
        "checks": ({"metric_threshold": (_THRESHOLD, 1e-6),
                    "kernel_identity_threshold": (_THRESHOLD, 1e-6)}, {}),
    },
}


def _build_grid(spec: dict, where: str = "grid") -> ChartGrid:
    shape = spec["shape"]
    _need(len(shape) == len(spec["spacing"]) == len(spec["origin"]), where,
          "shape, spacing and origin lengths differ")
    _need(len(shape) <= _MAX_AXES, f"{where}.shape", f"charts are limited to {_MAX_AXES} axes")
    _need(math.prod(shape) <= _MAX_POINTS, f"{where}.shape",
          f"{math.prod(shape)} points exceed the desk-scale cap of {_MAX_POINTS}")
    return ChartGrid(tuple(shape), tuple(spec["spacing"]), tuple(spec["origin"]))


def _cross_checks(doc: dict):
    """The rules between keys: each map's chart, table rows, chart axes and
    flat indices against the grid, both sides or a generator, the closed-form
    or cone-valued immersion a check needs, and `expect.nu` against
    `nullity.s_values`."""
    grid, single = doc["grid"], doc["analysis"] == "single"
    for where, value in [*doc.items(), *((f"{key}.{sub}", entry) for key, section in doc.items()
                                         if isinstance(section, dict) for sub, entry in section.items())]:
        if isinstance(value, ImmersionMap):
            _need(value.chart_dim == grid.ndim, "grid", f"{where} expects a {value.chart_dim}-dimensional chart")
        if isinstance(value, np.ndarray):
            _need(len(value) == grid.npoints, f"{where}.table.values",
                  f"expected {grid.npoints} rows, got {len(value)}")
    for where in ("ruled.axes", "transfer.ruling_axes"):
        parent, key = where.split(".")
        axes = doc[parent][key] if parent in doc and doc[parent] != "pipeline" else []
        _need(all(a < grid.ndim for a in axes), where,
              f"expected distinct chart axes in [0, {grid.ndim}), got {axes!r}")
    axis = doc["generator"]["axis"] if "generator" in doc else 0
    _need(axis < grid.ndim, "generator.axis", f"expected a chart axis in [0, {grid.ndim}), got {axis!r}")
    for side in ("left", "right") if doc["analysis"] in ("pair", "extend") else ():
        _need(("generator" in doc) != (side in doc), side,
              "not read beside a generator section" if side in doc else "missing required field")
    table = single and isinstance(doc["immersion"], np.ndarray)
    _need(not (table and "transfer" in doc), "transfer", "needs a closed-form immersion")
    _need(not (table and "fd_agreement" in doc["checks"]), "checks.fd_agreement",
          "needs a closed-form immersion")
    if "position_identities" in doc["checks"]:  # a key of single analyses only
        _need(not table and doc["immersion"].ambient.pseudo_pair, "checks.position_identities",
              "immersion is not cone-valued")
    nullity = doc["nullity"] if "nullity" in doc else {"s_values": [], "points": "all"}
    _need(nullity["points"] in ("center", "all") or max(nullity["points"]) < grid.npoints,
          "nullity.points", f"expected flat indices in [0, {grid.npoints}), got {nullity['points']!r}")
    for s_str in doc["expect"]["nu"] if single else ():
        _need(int(s_str) in nullity["s_values"], "expect.nu",
              f"s = {s_str} is not among nullity.s_values {nullity['s_values']}")


def parse_manifest(doc) -> dict:
    """`doc` walked against the table of its analysis kind, then the rules
    between keys; each refusal is a ManifestError at the offending path,
    raised before any jet is built.  The result has every default filled in,
    the grid as a `ChartGrid`, each immersion as its map and each value
    table as an array."""
    _need(isinstance(doc, dict), "manifest", f"expected an object, got {_got(doc)}")
    _need("analysis" in doc, "analysis", "missing required field")
    doc = _parse(_SCHEMA[_parse(_KIND, doc["analysis"], "analysis")], doc, "")
    doc["grid"] = _build_grid(doc["grid"])
    _cross_checks(doc)
    return doc


def _jet_from_spec(side, grid: ChartGrid):
    """(map, jet) of a parsed side: a closed form, or (None, its stencil jet)
    for a value table."""
    if isinstance(side, np.ndarray):
        return None, ImmersionJet.from_values(side, grid, ScalarProduct.euclidean(side.shape[1]))
    return side, side.jet(grid)


def _check(name: str, value: float, threshold: float) -> dict:
    return {"name": name, "value": float(value), "threshold": float(threshold),
            "passed": bool(value <= threshold)}


def _expect(name: str, actual, expected) -> dict:
    return {"name": name, "actual": actual, "expected": expected,
            "passed": bool(actual == expected)}


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj.item() if isinstance(obj, np.generic) else obj


# ---------------------------------------------------------------------------
# the four analysis kinds
# ---------------------------------------------------------------------------


def _lift_if_needed(left_jet: ImmersionJet, right_map, right_jet: ImmersionJet, notes: list,
                    cfg: PipelineConfig):
    """Produce the isometric partner: direct, or the cone lift of a conformal map.

    The pair counts as isometric already when the induced metrics agree to
    within `cfg.fd_tol` (relative) if either jet comes from stencils, and to
    within 1e-8 otherwise.
    """
    if right_jet.ambient.pseudo_pair:
        return right_jet
    gl, gr = induced_metric(left_jet), induced_metric(right_jet)
    scale = max(float(np.max(np.abs(gl))), 1e-300)
    stencil = "finite-difference" in (left_jet.source, right_jet.source)
    if float(np.max(np.abs(gl - gr))) / scale < (cfg.fd_tol if stencil else 1e-8):
        return right_jet
    factor = None
    if right_map is not None and right_map.factor_fn is not None:
        factor = right_map.factor_jets(right_jet.chart.points())
    lifted, _ = isometric_representative(right_jet, gl, factor, cfg=cfg)
    notes.append("right immersion lifted to its isometric cone representative")
    return lifted


def _euclidean_codims(jf: ImmersionJet, jhat: ImmersionJet, branch: str):
    p = jf.codim
    if jhat.ambient.pseudo_pair:
        q = jhat.codim - 2 if branch == "degenerate" else jhat.codim
        b = 0 if branch == "degenerate" else 1
    else:
        q, b = jhat.codim, jhat.ambient.index
    return p, q, jf.ambient.index, b


def _region_report(state, jf, jhat, cfg) -> dict:
    rep = {"branch": state.branch, "points": int(state.points.size), "ranks": dict(state.ranks),
           "residuals": {k: float(v) for k, v in state.residuals.items()},
           "claims": _jsonable(state.claims), "notes": list(state.notes),
           "compatibility": _jsonable(verify_compatibility(state))}
    bound_rep = {}
    try:
        obs = extension_obstruction(state, cfg)
        rep["obstruction"] = {"kernel_dim": obs.s, "fiber_rank": obs.r,
                              "residuals": _jsonable(obs.residuals)}
        n = state.left.metric.shape[1]
        p, q, a, b = _euclidean_codims(jf, jhat, state.branch)
        try:
            chk = ruling_dimension_bound(state.branch, n=n, p=p, q=q, a=a, b=b,
                                         ell=state.ell, d=state.ruling_dim, r=obs.r)
            bound_rep = {
                "name": chk.name, "lhs": chk.lhs, "rhs": chk.rhs,
                "slack": chk.slack, "passed": chk.passed,
                "hypotheses_ok": chk.hypotheses_ok, "notes": chk.notes,
                "codimensions": {"n": n, "p": p, "q": q, "a": a, "b": b},
            }
        except HypothesisOutOfRange as exc:
            bound_rep = {"hypotheses_ok": False, "passed": None, "notes": str(exc)}
    except GeometryError as exc:
        rep["obstruction"] = {"error": str(exc)}
        bound_rep = {"hypotheses_ok": None, "passed": False, "notes": f"obstruction failed: {exc}"}
    rep["dimension_bound"] = bound_rep
    return rep


def _pair_checks(regions_rep: list[dict], doc: dict) -> list[dict]:
    checks = []
    expect = doc["expect"]
    for i, rep in enumerate(regions_rep):
        tag = f"region{i}"
        for key in ("branch", "rulings", "transfer_bundle"):
            if key in expect:
                actual = rep["branch"] if key == "branch" else rep["ranks"][key]
                checks.append(_expect(f"{tag}.{key}", actual, expect[key]))
        for cname, claim in rep.get("claims", {}).items():
            if "passed" not in claim:
                continue  # informational record, not a gated claim
            checks.append({"name": f"{tag}.claim.{cname}", "passed": bool(claim["passed"]),
                           "detail": claim})
        if "compatibility_threshold" in doc["checks"]:
            for key in ("transfer_preserves_sff", "transfer_parallel",
                        "bundle_parallel_along_rulings"):
                checks.append(_check(f"{tag}.{key}", rep["compatibility"][key],
                                     doc["checks"]["compatibility_threshold"]))
        bound = rep.get("dimension_bound", {})
        if bound.get("hypotheses_ok"):
            checks.append({"name": f"{tag}.dimension_bound", "passed": bool(bound.get("passed")),
                           "detail": {k: bound[k] for k in ("lhs", "rhs", "slack") if k in bound}})
        elif bound.get("passed") is False:
            checks.append({"name": f"{tag}.dimension_bound", "passed": False,
                           "detail": bound.get("notes", "")})
    return checks


def _run_single(doc: dict, cfg: PipelineConfig):
    grid = doc["grid"]
    imap, jet = _jet_from_spec(doc["immersion"], grid)
    fund = fundamental_data(jet, cfg)
    results: dict = {"immersion": imap.name if imap is not None else "table", "source": jet.source,
                     "chart_points": grid.npoints, "codimension": jet.codim,
                     "diagnostics": _jsonable(fund.diagnostics)}
    checks: list[dict] = []
    chk_spec = doc["checks"]

    if "lightcone_identities" in chk_spec:
        opts = chk_spec["lightcone_identities"]
        dim, count, thr = opts["dim"], opts["points"], opts["threshold"]
        model = LightConeModel(dim)
        amb = model.ambient
        xs, ys, vs, ws = np.random.default_rng(cfg.seed).normal(size=(4, count, dim))
        px, py = model.embed(xs), model.embed(ys)
        res = {
            "null_values": float(np.max(np.abs(amb.norm_sq(px)))),
            "unit_pairing": float(np.max(np.abs(
                amb.inner(px, np.broadcast_to(model.e0, px.shape)) - 1.0))),
            "isometric_differential": float(np.max(np.abs(
                amb.inner(model.embed_differential(xs, vs), model.embed_differential(xs, ws))
                - np.sum(vs * ws, axis=1)))),
            "distance_identity": float(np.max(np.abs(
                amb.inner(px, py) + 0.5 * np.sum((xs - ys) ** 2, axis=1)))),
        }
        results["lightcone_identities"] = res
        for key, val in res.items():
            checks.append(_check(f"lightcone.{key}", val, thr))

    if "position_identities" in chk_spec:
        thr = chk_spec["position_identities"]["threshold"]
        res = position_identities(fund)
        results["position_identities"] = _jsonable(res)
        checks.append(_check("position.shape_plus_identity",
                             res["shape_of_position_plus_identity"], thr))
        checks.append(_check("position.shape_of_null_generator", res["shape_of_field"], thr))

    if "roundtrip" in chk_spec:
        thr = chk_spec["roundtrip"]["threshold"]
        if jet.ambient.pseudo_pair:
            back = cone_projection(jet)
            again, _ = isometric_representative(back, induced_metric(jet), cfg=cfg)
            res = float(np.max(np.abs(again.values - jet.values)))
        else:
            lift, _ = isometric_representative(jet, induced_metric(jet), cfg=cfg)
            back = cone_projection(lift)
            res = float(np.max(np.abs(back.values - jet.values)))
        results["roundtrip_residual"] = res
        checks.append(_check("roundtrip", res, thr))

    if "fd_agreement" in chk_spec:
        thr = chk_spec["fd_agreement"]["threshold"]
        fd_jet = imap.jet_fd(grid)
        res = float(np.max(np.abs(fd_jet.d2 - jet.d2)))
        results["fd_agreement"] = res
        checks.append(_check("fd_agreement", res, thr))

    if "ruled" in doc:
        ruled = doc["ruled"]
        axes = ruled["axes"]
        dist = coordinate_distribution(fund, axes)
        verdict = is_conformally_ruled(fund, dist)
        results["conformally_ruled"] = {"axes": axes, "ruled": verdict.ruled,
                                        "umbilic_residual": verdict.umbilic_residual,
                                        "bracket_residual": verdict.bracket_residual_max}
        if "expect_ruled" in ruled:
            checks.append(_expect("conformally_ruled", verdict.ruled, ruled["expect_ruled"]))

    if "nullity" in doc:
        points = doc["nullity"]["points"]
        if points == "center":
            points = [grid.center_index()]
        elif points == "all":
            points = None  # leaves the choice to `conformal_s_nullity`
        table = {}
        for s in doc["nullity"]["s_values"]:
            reports = conformal_s_nullity(fund, s, points=points, cfg=cfg)
            table[str(s)] = {
                "max": max(rep.value for _, rep in reports),
                "exact": all(rep.exact for _, rep in reports),
                "per_point": [[idx, rep.value] for idx, rep in reports],
            }
        results["nullity"] = table
        for s_str, expected in doc["expect"]["nu"].items():
            checks.append(_expect(f"nullity.s{s_str}", table[s_str]["max"], expected))

    if "rigidity_q" in doc:
        rep = rigidity_criterion(fund, doc["rigidity_q"], cfg=cfg)
        results["rigidity"] = {"q": rep.q, "thresholds": _jsonable(rep.thresholds),
                               "nu_lower_bounds": _jsonable(rep.nu_lower_bounds),
                               "satisfied": rep.satisfied,
                               "conclusive_violation": rep.conclusive_violation}

    if "transfer" in doc:
        opts = doc["transfer"]
        axes = opts["ruling_axes"]
        base_jet = opts["base"].jet(grid)
        factor = imap.factor_jets(grid.points())
        data = sff_transfer_check(fund, base_jet, axes, factor, cfg=cfg)
        results["transfer_dictionary"] = _jsonable(data.residuals)
        for key, thr in opts["thresholds"].items():
            checks.append(_check(f"transfer.{key}", data.residuals[key], thr))

    return results, checks, None


def _pair_inputs(doc: dict, cfg: PipelineConfig):
    """(results, checks, left jet, right jet, right map) of a `pair`,
    `generate` or `extend` manifest: its `left` and `right` sides, named in
    the results, or a `generator` section's light-cone slice pair, whose
    right side is the slicer's own restriction of the Lorentz map (the
    isometric cone lift of the projected side); the results then describe
    the slice, and the checks are its gates."""
    grid = doc["grid"]
    if "generator" not in doc:
        left_map, jf = _jet_from_spec(doc["left"], grid)
        right_map, jr = _jet_from_spec(doc["right"], grid)
        names = {side: imap.name if imap is not None else "table"
                 for side, imap in (("left", left_map), ("right", right_map))}
        return names, [], jf, jr, right_map
    gen = doc["generator"]
    left_map, lorentz_map = gen["left"], gen["lorentz"]
    data = generate_conformal_pair(left_map, lorentz_map, grid, axis=gen["axis"],
                                   branch=gen["branch"], cfg=cfg)
    results = {"left": left_map.name, "lorentz": lorentz_map.name,
               "slice_points": data.slice_chart.npoints, "diagnostics": _jsonable(data.diagnostics),
               "conformal_factor_range": [float(np.min(data.conformal_factor)),
                                          float(np.max(data.conformal_factor))]}
    checks = [_check(key, data.diagnostics[key], 1e-6) for key in
              ("slice_metric_gap", "conformal_residual", "factor_vs_null_pairing")]
    return results, checks, data.left, data.lifted, None


def _run_pair(doc: dict, cfg: PipelineConfig):
    """`pair` and `generate`: the slice's gates, if generated, then the pair
    analysis of the sides, the right one lifted to the cone if it is not
    isometric to the left."""
    results, checks, jf, jr, right_map = _pair_inputs(doc, cfg)
    if "generator" in doc and not doc["generator"]["analyze_pair"]:
        return results, checks, None
    notes: list[str] = []
    jhat = _lift_if_needed(jf, right_map, jr, notes, cfg)
    analysis = analyze_pair(jf, jhat, cfg)
    deg = analysis.degeneracy
    regions_rep = [_region_report(st, jf, jhat, cfg) for st in analysis.regions]
    pairing_min = float(np.min(deg.witness_pairing)) if deg.degenerate.any() else None
    results["degeneracy"] = {"degenerate_points": int(np.sum(deg.degenerate)),
                             "witness_pairing_min": pairing_min,
                             "radical_rank": sorted(set(deg.omega_rank.tolist()))}
    results["notes"] = notes
    results["regions"] = regions_rep
    checks += _pair_checks(regions_rep, doc)
    if "witness_pairing" in doc["expect"] and pairing_min is not None:
        checks.append(_check("witness_pairing_gap",
                             abs(pairing_min - doc["expect"]["witness_pairing"]), 1e-9))
    return results, checks, lambda: _csv_rows(analysis, jf.chart)  # built only for --csv-dump


def _csv_rows(analysis, grid: ChartGrid):
    """One row per grid point: coordinates, region, branch and the region's ranks."""
    rank_keys = sorted(analysis.regions[0].ranks) if analysis.regions else []
    header = (["point"] + [f"x{i + 1}" for i in range(grid.ndim)] + ["region", "branch"]
              + [f"rank_{k}" for k in rank_keys])
    cells = [[-1, ""] + ["" for _ in rank_keys]] * grid.npoints
    for i, st in enumerate(analysis.regions):
        for q in st.points:
            cells[q] = [i, st.branch] + [st.ranks[k] for k in rank_keys]
    return [header] + [[q] + [repr(c) for c in coords] + cells[q]
                       for q, coords in enumerate(grid.points().tolist())]


def _one_region(analysis):
    """The single region the extension runs on."""
    if len(analysis.regions) != 1:
        sizes = [int(st.points.size) for st in analysis.regions]
        raise RankJump(f"the extension needs one constant-rank region; the pair splits "
                       f"into {len(sizes)} regions of {sizes} points")
    return analysis.regions[0]


def _run_extend(doc: dict, cfg: PipelineConfig):
    thr = doc["checks"]
    names, checks, jf, jg, _ = _pair_inputs(doc, cfg)  # not lifted: left/right must be isometric
    tspec = doc["transfer"]
    if tspec == "pipeline":
        data = _one_region(analyze_pair(jf, jg, cfg))
        inputs = {**names, "branch": data.branch}
    else:
        direction = np.asarray(tspec["shared_flat_normal"], dtype=float)
        if {len(direction)} != {jf.m, jg.m}:
            raise ManifestError("transfer.shared_flat_normal",
                                f"expected {jf.m} components" if jf.m == jg.m else
                                f"the sides' ambients differ: R^{jf.m} against R^{jg.m}")
        fl, fr = fundamental_data(jf, cfg), fundamental_data(jg, cfg)
        p = fl.metric.shape[0]
        lf = fl.normal_coordinates(np.broadcast_to(direction, (p, jf.m)))[:, :, None]
        lh = fr.normal_coordinates(np.broadcast_to(direction, (p, jf.m)))[:, :, None]
        rul = coordinate_distribution(fl, tspec["ruling_axes"]).basis
        data = TransferData.from_frames(fl, fr, lf, lh, (1,), rul)
        inputs = {**names, "branch": "hand-built transfer"}

    obs = extension_obstruction(data, cfg)
    pair = ruled_extension(obs)
    report = verify_extension(pair, cfg)
    results = {"inputs": inputs, "kernel_dim": obs.s, "fiber_rank": obs.r, "radius": pair.radius,
               "obstruction_residuals": _jsonable(obs.residuals), "verification": _jsonable(report)}
    checks += [
        {"name": "zero_section_exact", "passed": bool(report["zero_section_exact"])},
        _check("fiber_straightness", report["fiber_straightness"], 1e-12),
        _check("metric_agreement", report["metric_agreement"], thr["metric_threshold"]),
        _check("kernel_identity_gap", report["kernel_identity_gap"],
               thr["kernel_identity_threshold"]),
        _check("rulings_inside_kernel", obs.residuals["rulings_inside_kernel"], 1e-6),
        _check("ruled_leaves", report["ruled_leaves"], 1e-6),
    ]
    return results, checks, None


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


_RUNNERS = {"single": _run_single, "pair": _run_pair, "generate": _run_pair, "extend": _run_extend}


def run_manifest(doc: dict, tolerance: float | None = None, seed: int | None = None,
                 csv_dump: str | None = None, region: int | None = None):
    """Execute one manifest document; returns (report dict, exit code)."""
    parsed = parse_manifest(doc)
    kind = parsed["analysis"]
    cfg = PipelineConfig(
        rank_tol=parsed["tolerance"] if tolerance is None else _TOLERANCE(tolerance, "tolerance"),
        fd_tol=parsed["fd_tolerance"],
        seed=parsed["seed"] if seed is None else _COUNT(seed, "seed"),
    )

    canonical = json.dumps(doc, sort_keys=True).encode()
    results, checks, csv_rows = _RUNNERS[kind](parsed, cfg)  # csv_rows: None, or builds the rows
    passed = all(c.get("passed", False) for c in checks) if checks else True
    report = {
        "provenance": {"version": __version__, "manifest_sha256": hashlib.sha256(canonical).hexdigest(),
                       "tolerance": cfg.rank_tol, "fd_tolerance": cfg.fd_tol,
                       "align_floor": cfg.align_floor, "conformal_tolerance": cfg.conformal_tol,
                       "seed": cfg.seed},
        "analysis": kind,
        "results": _jsonable(results),
        "checks": _jsonable(checks),
        "passed": bool(passed),
    }
    if region is not None and "regions" in report["results"]:
        regs = report["results"]["regions"]
        _need(0 <= region < len(regs), "--region", f"region {region} out of range (0..{len(regs) - 1})")
        report["results"]["regions"] = [regs[region]]
    if csv_dump and csv_rows is not None:
        with open(csv_dump, "w", newline="") as fh:
            csv.writer(fh).writerows(csv_rows())
    return report, (0 if passed else 2)


def _write_report(report: dict, path: str):
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="confpair",
                                     description="Conformal/isometric pair analysis on chart grids")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run a manifest file")
    p_an.add_argument("manifest")

    p_gal = sub.add_parser("gallery", help="list or run builtin material")
    gal_sub = p_gal.add_subparsers(dest="gallery_command", required=True)
    gal_sub.add_parser("list", help="print builtin immersions and manifests")
    p_run = gal_sub.add_parser("run", help="run a named builtin manifest")
    p_run.add_argument("name")
    for runner in (p_an, p_run):
        runner.add_argument("--output", default=None, help="report path")
        runner.add_argument("--tolerance", type=float, default=None)
        runner.add_argument("--seed", type=int, default=None)
        runner.add_argument("--csv-dump", default=None)
        runner.add_argument("--region", type=int, default=None)

    args = parser.parse_args(argv)

    try:
        if args.command == "gallery" and args.gallery_command == "list":
            print("builtin immersions:")
            for entry in catalog():
                kind = " (wrapper)" if entry["wrapper"] else ""
                print(f"  {entry['name']:<18}{kind} {entry['summary']}")
            print("named manifests:")
            for name in sorted(MANIFESTS):
                print(f"  {name}: {MANIFESTS[name]['analysis']}")
            return 0
        if args.command == "gallery":
            if args.name not in MANIFESTS:
                raise ManifestError("gallery.name", f"unknown manifest {args.name!r}")
            doc = json.loads(json.dumps(MANIFESTS[args.name]))
            out_path = args.output or f"{args.name}-report.json"
        else:
            with open(args.manifest) as fh:
                try:
                    doc = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ManifestError("manifest", f"invalid JSON at line {exc.lineno}: {exc.msg}")
            out_path = args.output or parse_manifest(doc)["output"]
        report, code = run_manifest(doc, tolerance=args.tolerance, seed=args.seed,
                                    csv_dump=args.csv_dump, region=args.region)
        _write_report(report, out_path)
        status = "all checks passed" if code == 0 else "check failures"
        print(f"{out_path}: {status} ({len(report['checks'])} checks)")
        return code
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 1
    except GeometryError as exc:
        print(f"analysis error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
randomness is seeded and no clocks are recorded.

Exit codes: 0 all checks passed, 1 errors, 2 check failures.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .conformal_calc import conformal_s_nullity, is_conformally_ruled, rigidity_criterion
from .errors import GeometryError, HypothesisOutOfRange, ManifestError, RankJump
from .extension import (
    extension_obstruction,
    generate_conformal_pair,
    ruled_extension,
    verify_extension,
)
from .gallery import MANIFESTS, build_immersion, catalog
from .indefinite_linalg import ScalarProduct
from .jets import (
    ChartGrid,
    ImmersionJet,
    PipelineConfig,
    coordinate_distribution,
    fundamental_data,
    induced_metric,
)
from .lightcone import (
    LightConeModel,
    cone_projection,
    isometric_representative,
    position_identities,
    sff_transfer_check,
)
from .pair_pipeline import (
    TransferData,
    analyze_pair,
    ruling_dimension_bound,
    verify_compatibility,
)

__all__ = ["run_manifest", "main"]


# ---------------------------------------------------------------------------
# manifest plumbing
# ---------------------------------------------------------------------------


_REQUIRED = object()


def _require(doc: dict, key: str, types, where: str, default=_REQUIRED):
    """doc[key] if it has one of `types`; `default` where the key is absent,
    if one is given."""
    if key not in doc:
        if default is not _REQUIRED:
            return default
        raise ManifestError(f"{where}.{key}", "missing required field")
    val = doc[key]
    if not isinstance(val, types):
        raise ManifestError(f"{where}.{key}", f"expected {types}, got {type(val).__name__}")
    return val


def _build_grid(spec: dict, where: str = "grid") -> ChartGrid:
    shape = _require(spec, "shape", list, where)
    spacing = _require(spec, "spacing", list, where)
    origin = _require(spec, "origin", list, where)
    if not (len(shape) == len(spacing) == len(origin)):
        raise ManifestError(where, "shape, spacing and origin lengths differ")
    if any((not isinstance(s, int)) or s < 1 for s in shape):
        raise ManifestError(f"{where}.shape", "entries must be positive integers")
    if len(shape) > 9:
        raise ManifestError(f"{where}.shape", "charts are limited to 9 axes")
    npoints = int(np.prod(shape))
    if npoints > 10_000:
        raise ManifestError(f"{where}.shape",
                            f"{npoints} points exceed the desk-scale cap of 10000")
    return ChartGrid(tuple(shape), tuple(float(h) for h in spacing),
                     tuple(float(o) for o in origin))


def _non_negative_int(value, where: str) -> int:
    """`value` if it is a non-negative int (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ManifestError(where, f"expected a non-negative integer, got {value!r}")
    return value


def _tolerance(value, where: str) -> float:
    """`value` as a float if it is a number (not a bool) in (0, 1e-3]; NaN is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 < value <= 1e-3:
        raise ManifestError(where, f"{where} must lie in (0, 1e-3], got {value!r}")
    return float(value)


def _threshold(opts: dict, where: str, default: float) -> float:
    """The number under `opts["threshold"]`, or `default`."""
    return float(_require(opts, "threshold", (int, float), where, default))


def _chart_axes(axes, n: int, where: str) -> list[int]:
    """`axes` if it is a list of distinct chart axes, ints (not bools) in [0, n)."""
    if not (isinstance(axes, list)
            and all(isinstance(a, int) and not isinstance(a, bool) and 0 <= a < n for a in axes)
            and len(set(axes)) == len(axes)):
        raise ManifestError(where, f"expected distinct chart axes in [0, {n}), got {axes!r}")
    return axes


def _jet_from_spec(spec: dict, grid: ChartGrid, where: str):
    """Immersion jet from a spec: closed form, or an inline value table."""
    if isinstance(spec, dict) and "table" in spec:
        table = spec["table"]
        raw = _require(table, "values", list, f"{where}.table")
        try:
            values = np.array(raw)
        except ValueError:  # ragged rows
            values = np.array([])
        # numbers only: numpy would parse numeric strings and booleans as floats
        if (values.dtype.kind not in "iuf" or values.ndim != 2 or values.shape[1] < 1
                or not np.all(np.isfinite(values))):
            raise ManifestError(f"{where}.table.values",
                                "expected a list of equal-length rows of finite numbers")
        values = values.astype(float)
        if values.shape[0] != grid.npoints:
            raise ManifestError(f"{where}.table.values",
                                f"expected {grid.npoints} rows, got {values.shape[0]}")
        ambient = ScalarProduct.euclidean(values.shape[1])
        return None, ImmersionJet.from_values(values, grid, ambient)
    imap = build_immersion(spec, where=where)
    if grid.ndim != imap.chart_dim:
        raise ManifestError("grid", f"{where} expects a {imap.chart_dim}-dimensional chart")
    return imap, imap.jet(grid)


def _check(name: str, value: float, threshold: float) -> dict:
    return {
        "name": name,
        "value": float(value),
        "threshold": float(threshold),
        "passed": bool(value <= threshold),
    }


def _expect(name: str, actual, expected) -> dict:
    return {"name": name, "actual": actual, "expected": expected,
            "passed": bool(actual == expected)}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is a subclass of int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


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
    gl = induced_metric(left_jet)
    gr = induced_metric(right_jet)
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
    rep = {
        "branch": state.branch,
        "points": int(state.points.size),
        "ranks": dict(state.ranks),
        "residuals": {k: float(v) for k, v in state.residuals.items()},
        "claims": _jsonable(state.claims),
        "notes": list(state.notes),
    }
    compat = verify_compatibility(state)
    rep["compatibility"] = _jsonable(compat)
    bound_rep = {}
    try:
        obs = extension_obstruction(state, cfg)
        rep["obstruction"] = {
            "kernel_dim": obs.s,
            "fiber_rank": obs.r,
            "residuals": _jsonable(obs.residuals),
        }
        n = state.left.metric.shape[1]
        p, q, a, b = _euclidean_codims(jf, jhat, state.branch)
        try:
            chk = ruling_dimension_bound(
                state.branch, n=n, p=p, q=q, a=a, b=b,
                ell=state.ell, d=state.ruling_dim, r=obs.r,
            )
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
    expect = doc.get("expect", {})
    thr = doc.get("checks", {})
    compat_thr = thr.get("compatibility_threshold")
    for i, rep in enumerate(regions_rep):
        tag = f"region{i}"
        if "branch" in expect:
            checks.append(_expect(f"{tag}.branch", rep["branch"], expect["branch"]))
        if "rulings" in expect:
            checks.append(_expect(f"{tag}.rulings", rep["ranks"]["rulings"], expect["rulings"]))
        if "transfer_bundle" in expect:
            checks.append(_expect(f"{tag}.transfer_bundle", rep["ranks"]["transfer_bundle"],
                                  expect["transfer_bundle"]))
        for cname, claim in rep.get("claims", {}).items():
            if "passed" not in claim:
                continue  # informational record, not a gated claim
            checks.append({
                "name": f"{tag}.claim.{cname}",
                "passed": bool(claim["passed"]),
                "detail": claim,
            })
        if compat_thr is not None:
            for key in ("transfer_preserves_sff", "transfer_parallel",
                        "bundle_parallel_along_rulings"):
                checks.append(_check(f"{tag}.{key}", rep["compatibility"][key], compat_thr))
        bound = rep.get("dimension_bound", {})
        if bound.get("hypotheses_ok"):
            checks.append({
                "name": f"{tag}.dimension_bound",
                "passed": bool(bound.get("passed")),
                "detail": {k: bound[k] for k in ("lhs", "rhs", "slack") if k in bound},
            })
        elif bound.get("passed") is False:
            checks.append({"name": f"{tag}.dimension_bound", "passed": False,
                           "detail": bound.get("notes", "")})
    return checks


def _nullity_points(spec, grid: ChartGrid) -> list[int] | None:
    """Flat point indices from "center" or a list of indices; None for "all",
    which leaves the choice to `conformal_s_nullity`."""
    if spec == "center":
        return [grid.center_index()]
    if spec == "all":
        return None
    if (isinstance(spec, list) and spec
            and all(isinstance(q, int) and not isinstance(q, bool) for q in spec)
            and all(0 <= q < grid.npoints for q in spec)):
        return spec
    raise ManifestError("nullity.points", f'expected "center", "all" or a nonempty list '
                        f"of flat indices in [0, {grid.npoints}), got {spec!r}")


def _run_single(doc: dict, cfg: PipelineConfig):
    grid = _build_grid(_require(doc, "grid", dict, "manifest"))
    imap, jet = _jet_from_spec(_require(doc, "immersion", dict, "manifest"), grid, "immersion")
    fund = fundamental_data(jet, cfg)
    results: dict = {
        "immersion": imap.name if imap is not None else "table",
        "source": jet.source,
        "chart_points": grid.npoints,
        "codimension": jet.codim,
        "diagnostics": _jsonable(fund.diagnostics),
    }
    checks: list[dict] = []
    chk_spec = doc.get("checks", {})

    if "lightcone_identities" in chk_spec:
        where = "checks.lightcone_identities"
        opts = _require(chk_spec, "lightcone_identities", dict, "checks")
        dim = _non_negative_int(opts.get("dim", 4), f"{where}.dim")
        count = opts.get("points", 1000)
        if not (isinstance(count, int) and not isinstance(count, bool) and count >= 1):
            raise ManifestError("checks.lightcone_identities.points",
                                f"expected a positive number of sample points, got {count!r}")
        thr = _threshold(opts, where, 1e-12)
        model = LightConeModel(dim)
        amb = model.ambient
        rng = np.random.default_rng(cfg.seed)
        xs = rng.normal(size=(count, dim))
        ys = rng.normal(size=(count, dim))
        vs = rng.normal(size=(count, dim))
        ws = rng.normal(size=(count, dim))
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
        thr = _threshold(_require(chk_spec, "position_identities", dict, "checks"),
                         "checks.position_identities", 1e-8)
        if not jet.ambient.pseudo_pair:
            raise ManifestError("checks.position_identities", "immersion is not cone-valued")
        res = position_identities(fund)
        results["position_identities"] = _jsonable(res)
        checks.append(_check("position.shape_plus_identity",
                             res["shape_of_position_plus_identity"], thr))
        checks.append(_check("position.shape_of_null_generator", res["shape_of_field"], thr))

    if "roundtrip" in chk_spec:
        thr = _threshold(_require(chk_spec, "roundtrip", dict, "checks"), "checks.roundtrip", 1e-10)
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
        if imap is None:
            raise ManifestError("checks.fd_agreement", "needs a closed-form immersion")
        thr = _threshold(_require(chk_spec, "fd_agreement", dict, "checks"),
                         "checks.fd_agreement", 1e-4)
        fd_jet = imap.jet_fd(grid)
        res = float(np.max(np.abs(fd_jet.d2 - jet.d2)))
        results["fd_agreement"] = res
        checks.append(_check("fd_agreement", res, thr))

    if "ruled" in doc:
        ruled = _require(doc, "ruled", dict, "manifest")
        axes = _chart_axes(ruled.get("axes", []), grid.ndim, "ruled.axes")
        dist = coordinate_distribution(fund, axes)
        verdict = is_conformally_ruled(fund, dist)
        results["conformally_ruled"] = {
            "axes": axes,
            "ruled": verdict.ruled,
            "umbilic_residual": verdict.umbilic_residual,
            "bracket_residual": verdict.bracket_residual_max,
        }
        if "expect_ruled" in ruled:
            checks.append(_expect("conformally_ruled", verdict.ruled, ruled["expect_ruled"]))

    if "nullity" in doc:
        opts = _require(doc, "nullity", dict, "manifest")
        svals = [_non_negative_int(s, "nullity.s_values")
                 for s in _require(opts, "s_values", list, "nullity", [1])]
        points = _nullity_points(opts.get("points", "center"), grid)
        table = {}
        for s in svals:
            reports = conformal_s_nullity(fund, s, points=points, cfg=cfg)
            table[str(s)] = {
                "max": max(rep.value for _, rep in reports),
                "exact": all(rep.exact for _, rep in reports),
                "per_point": [[idx, rep.value] for idx, rep in reports],
            }
        results["nullity"] = table
        for s_str, expected in doc.get("expect", {}).get("nu", {}).items():
            if s_str not in table:
                raise ManifestError("expect.nu", f"s = {s_str} is not among nullity.s_values {svals}")
            checks.append(_expect(f"nullity.s{s_str}", table[s_str]["max"], expected))

    if doc.get("rigidity_q") is not None:
        rep = rigidity_criterion(fund, _non_negative_int(doc["rigidity_q"], "rigidity_q"), cfg=cfg)
        results["rigidity"] = {
            "q": rep.q,
            "thresholds": _jsonable(rep.thresholds),
            "nu_lower_bounds": _jsonable(rep.nu_lower_bounds),
            "satisfied": rep.satisfied,
            "conclusive_violation": rep.conclusive_violation,
        }

    if "transfer" in doc:
        if imap is None:
            raise ManifestError("transfer", "needs a closed-form immersion")
        opts = doc["transfer"]
        base_map = build_immersion(_require(opts, "base", dict, "transfer"), where="transfer.base")
        axes = _chart_axes(opts.get("ruling_axes", [0]), grid.ndim, "transfer.ruling_axes")
        base_jet = base_map.jet(grid)
        factor = imap.factor_jets(grid.points())
        data = sff_transfer_check(fund, base_jet, axes, factor, cfg=cfg)
        results["transfer_dictionary"] = _jsonable(data.residuals)
        thresholds = _require(opts, "thresholds", dict, "transfer", {})
        for key in thresholds:
            if key not in data.residuals:
                raise ManifestError("transfer.thresholds", f"unknown residual {key!r}; the "
                                    f"dictionary reports {sorted(data.residuals)}")
            checks.append(_check(f"transfer.{key}", data.residuals[key],
                                 _require(thresholds, key, (int, float), "transfer.thresholds")))

    return results, checks, None


def _pair_inputs(doc: dict, cfg: PipelineConfig):
    """(results, checks, left jet, right jet, right map) of a `pair`,
    `generate` or `extend` manifest; the pair's grid is the left jet's chart.

    `left` and `right` specs go through `_jet_from_spec`: closed forms, `expr`
    lists and value tables, and the results name the sides.  A `generator`
    section gives the light-cone slice pair, whose right side is the
    slicer's own restriction of the Lorentz map, the isometric cone lift of
    the projected side; the results then also describe the slice, and the
    checks are its gates.
    """
    if "generator" not in doc and doc["analysis"] != "generate":
        grid = _build_grid(_require(doc, "grid", dict, "manifest"))
        left_map, jf = _jet_from_spec(_require(doc, "left", dict, "manifest"), grid, "left")
        right_map, jr = _jet_from_spec(_require(doc, "right", dict, "manifest"), grid, "right")
        names = {side: imap.name if imap is not None else "table"
                 for side, imap in (("left", left_map), ("right", right_map))}
        return names, [], jf, jr, right_map
    gen = _require(doc, "generator", dict, "manifest")
    left_map = build_immersion(_require(gen, "left", dict, "generator"), where="generator.left")
    lorentz_map = build_immersion(_require(gen, "lorentz", dict, "generator"),
                                  where="generator.lorentz")
    grid = _build_grid(_require(doc, "grid", dict, "manifest"))
    (axis,) = _chart_axes([gen.get("axis", 0)], grid.ndim, "generator.axis")
    branch = _non_negative_int(gen.get("branch", 0), "generator.branch")
    data = generate_conformal_pair(left_map, lorentz_map, grid, axis=axis, branch=branch, cfg=cfg)
    results = {
        "left": left_map.name,
        "lorentz": lorentz_map.name,
        "slice_points": data.slice_chart.npoints,
        "diagnostics": _jsonable(data.diagnostics),
        "conformal_factor_range": [float(np.min(data.conformal_factor)),
                                   float(np.max(data.conformal_factor))],
    }
    checks = [_check(key, data.diagnostics[key], 1e-6) for key in
              ("slice_metric_gap", "conformal_residual", "factor_vs_null_pairing")]
    return results, checks, data.left, data.lifted, None


def _run_pair(doc: dict, cfg: PipelineConfig):
    """`pair` and `generate`: the slice's gates, if generated, then the pair
    analysis of the sides, the right one lifted to the cone if it is not
    isometric to the left."""
    results, checks, jf, jr, right_map = _pair_inputs(doc, cfg)
    if "generator" in doc and not doc["generator"].get("analyze_pair", False):
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
    expect = doc.get("expect", {})
    if "witness_pairing" in expect and pairing_min is not None:
        checks.append(_check("witness_pairing_gap",
                             abs(pairing_min - expect["witness_pairing"]), 1e-9))
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
    thr = doc.get("checks", {})
    names, checks, jf, jg, _ = _pair_inputs(doc, cfg)  # not lifted: left/right must be isometric
    tspec = doc.get("transfer", "pipeline")
    if tspec == "pipeline":
        data = _one_region(analyze_pair(jf, jg, cfg))
        inputs = {**names, "branch": data.branch}
    elif isinstance(tspec, dict) and "shared_flat_normal" in tspec:
        direction = np.asarray(tspec["shared_flat_normal"], dtype=float)
        if {len(direction)} != {jf.m, jg.m}:
            raise ManifestError("transfer.shared_flat_normal",
                                f"expected {jf.m} components" if jf.m == jg.m else
                                f"the sides' ambients differ: R^{jf.m} against R^{jg.m}")
        fl, fr = fundamental_data(jf, cfg), fundamental_data(jg, cfg)
        p = fl.metric.shape[0]
        lf = fl.normal_coordinates(np.broadcast_to(direction, (p, jf.m)))[:, :, None]
        lh = fr.normal_coordinates(np.broadcast_to(direction, (p, jf.m)))[:, :, None]
        axes = _chart_axes(tspec.get("ruling_axes", []), jf.n, "transfer.ruling_axes")
        rul = coordinate_distribution(fl, axes).basis
        data = TransferData.from_frames(fl, fr, lf, lh, (1,), rul)
        inputs = {**names, "branch": "hand-built transfer"}
    else:
        raise ManifestError("transfer", "expected 'pipeline' or a shared_flat_normal object")

    obs = extension_obstruction(data, cfg)
    pair = ruled_extension(obs)
    report = verify_extension(pair, cfg)
    results = {
        "inputs": inputs,
        "kernel_dim": obs.s,
        "fiber_rank": obs.r,
        "radius": pair.radius,
        "obstruction_residuals": _jsonable(obs.residuals),
        "verification": _jsonable(report),
    }
    checks += [
        {"name": "zero_section_exact", "passed": bool(report["zero_section_exact"])},
        _check("fiber_straightness", report["fiber_straightness"], 1e-12),
        _check("metric_agreement", report["metric_agreement"],
               float(thr.get("metric_threshold", 1e-6))),
        _check("kernel_identity_gap", report["kernel_identity_gap"],
               float(thr.get("kernel_identity_threshold", 1e-6))),
        _check("rulings_inside_kernel", obs.residuals["rulings_inside_kernel"], 1e-6),
        _check("ruled_leaves", report["ruled_leaves"], 1e-6),
    ]
    return results, checks, None


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


_RUNNERS = {
    "single": _run_single,
    "pair": _run_pair,
    "generate": _run_pair,
    "extend": _run_extend,
}


def run_manifest(doc: dict, tolerance: float | None = None, seed: int | None = None,
                 csv_dump: str | None = None, region: int | None = None):
    """Execute one manifest document; returns (report dict, exit code)."""
    kind = _require(doc, "analysis", str, "manifest")
    if kind not in _RUNNERS:
        raise ManifestError("analysis", f"unknown analysis kind {kind!r}")
    tol = tolerance if tolerance is not None else doc.get("tolerance", PipelineConfig.rank_tol)
    cfg = PipelineConfig(
        rank_tol=_tolerance(tol, "tolerance"),
        fd_tol=_tolerance(doc.get("fd_tolerance", PipelineConfig.fd_tol), "fd_tolerance"),
        seed=_non_negative_int(doc.get("seed", PipelineConfig.seed) if seed is None else seed, "seed"),
    )

    canonical = json.dumps(doc, sort_keys=True).encode()
    results, checks, csv_rows = _RUNNERS[kind](doc, cfg)  # csv_rows: None, or builds the rows
    passed = all(c.get("passed", False) for c in checks) if checks else True
    report = {
        "provenance": {
            "version": __version__,
            "manifest_sha256": hashlib.sha256(canonical).hexdigest(),
            "tolerance": cfg.rank_tol,
            "fd_tolerance": cfg.fd_tol,
            "align_floor": cfg.align_floor,
            "conformal_tolerance": cfg.conformal_tol,
            "seed": cfg.seed,
        },
        "analysis": kind,
        "results": _jsonable(results),
        "checks": _jsonable(checks),
        "passed": bool(passed),
    }
    if region is not None and isinstance(report["results"], dict):
        regs = report["results"].get("regions")
        if regs is not None:
            if not 0 <= region < len(regs):
                raise ManifestError("--region", f"region {region} out of range (0..{len(regs) - 1})")
            report["results"]["regions"] = [regs[region]]
    if csv_dump and csv_rows is not None:
        with open(csv_dump, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerows(csv_rows())
    return report, (0 if passed else 2)


def _write_report(report: dict, path: str):
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="confpair",
        description="Conformal/isometric pair analysis on chart grids",
    )
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
            out_path = args.output or doc.get("output", "report.json")
        report, code = run_manifest(
            doc, tolerance=args.tolerance, seed=args.seed,
            csv_dump=args.csv_dump, region=args.region,
        )
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

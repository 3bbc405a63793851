"""The manifest table of `confpair.cli`: every gallery and benchmark manifest
parses, every mutation of one is refused at its own path before any jet is
built, and README's key table lists the table's paths."""

import contextlib
import functools
import json
import re

import pytest
from hypothesis import given, settings, strategies as st
from sources import ROOT
from test_closed_forms import load_benchmark_workloads

from confpair import cli, expr, jets
from confpair.cli import parse_manifest, run_manifest
from confpair.errors import ManifestError
from confpair.gallery import MANIFESTS

KINDS = {"single", "pair", "generate", "extend"}


def nodes(doc, path=()):
    """(path, value) of `doc` and of every object entry, list and list entry below it."""
    yield path, doc
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from nodes(value, path + (key,))


def dotted(path) -> str:
    """The path a refusal names: list entries by their list."""
    return ".".join(key for key in path if isinstance(key, str))


def out_of_range(path: str):
    """A number outside the table's range for the gallery leaf at `path`,
    stated here apart from the table; None where the leaf has no range."""
    if path.endswith("threshold") or path.startswith("transfer.thresholds."):
        return -1e-9
    if path.endswith((".params.n", ".params.p", ".params.q", ".params.extra")):
        return 17  # a builtin's dimensions are at most 16 in size
    return {"grid.shape": 0, "grid.spacing": 0.0, "generator.axis": -1, "generator.branch": -1,
            "expect.rulings": -1, "expect.transfer_bundle": -1, "expect.nu.1": -1,
            "nullity.s_values": -1, "transfer.ruling_axes": -1,
            "checks.lightcone_identities.points": 0,
            "checks.lightcone_identities.dim": -1}.get(path)


WRONG_TYPES = ("zz", True, ["zz"], {"zz_key": 1}, None)


def targets(change: str) -> list:
    """(manifest, path, value) of each gallery node that `change` applies to:
    "type" and "nan" to every node but the root, "range" to numeric leaves
    with a range, "key" (an added unknown key) to objects."""
    return [(name, path, value) for name in sorted(MANIFESTS) for path, value in nodes(MANIFESTS[name])
            if {"type": path != (), "nan": path != (), "key": isinstance(value, dict),
                "range": not isinstance(value, (dict, list)) and out_of_range(dotted(path)) is not None
                }[change]]


TARGETS = {change: targets(change) for change in ("type", "nan", "range", "key")}


def no_jets(*args, **kwargs):
    raise AssertionError("a jet was built before the manifest was refused")


@contextlib.contextmanager
def jets_barred():
    """Every jet builder raises while this holds."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets.ImmersionMap, "jet", no_jets)
        for builder in ("from_values", "from_function"):
            mp.setattr(jets.ImmersionJet, builder, staticmethod(no_jets))
        yield mp


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_mutation_of_a_gallery_manifest_is_refused_at_its_path_before_any_jet(data):
    change = data.draw(st.sampled_from(sorted(TARGETS)))
    name, path, value = data.draw(st.sampled_from(TARGETS[change]))
    doc = json.loads(json.dumps(MANIFESTS[name]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if change == "key":
        key = "zz_" + data.draw(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8))
        (parent[path[-1]] if path else doc)[key] = 0.5
        path = path + (key,)
    elif change == "type":  # a boolean leaf takes a boolean
        parent[path[-1]] = data.draw(st.sampled_from(
            [wrong for wrong in WRONG_TYPES if not (wrong is True and isinstance(value, bool))]))
    else:
        parent[path[-1]] = float("nan") if change == "nan" else out_of_range(dotted(path))
    with jets_barred(), pytest.raises(ManifestError) as err:
        run_manifest(doc)
    assert err.value.path == dotted(path) or err.value.path.startswith(dotted(path) + ".")


@pytest.mark.parametrize("spec, path, cap", [
    ({"builtin": "plane", "params": {"n": 2, "p": 10**30}}, "immersion.params.p", cli._MAX_DIM),
    ({"builtin": "pad", "params": {"of": {"builtin": "cylinder"}, "extra": 10**12}},
     "immersion.params.extra", cli._MAX_DIM),
    ({"builtin": "pad", "params": {"of": {"builtin": "sphere", "params": {"n": -10**30}}}},
     "immersion.params.of.params.n", cli._MAX_DIM),
    ({"expr": ["x1", "x2", "0"], "chart_dim": 10**9}, "immersion.chart_dim", cli._MAX_AXES),
])
def test_a_huge_dimension_is_refused_before_any_factory_runs(spec, path, cap):
    # p = 10**30 once ended in an OverflowError, extra = 10**12 in a
    # MemoryError, and chart_dim = 10**9 named a billion chart variables; a
    # factory that runs here fails the test before it allocates
    def barred(factory):
        @functools.wraps(factory)
        def run(*args, **kwargs):
            raise AssertionError(f"{factory.__name__} ran with {args} {kwargs}")
        return run

    doc = {"analysis": "single", "immersion": spec,
           "grid": {"shape": [5, 5], "spacing": [0.04, 0.04], "origin": [0.1, -0.1]}}
    with jets_barred() as mp, pytest.raises(ManifestError) as err:
        for name, factory in cli.GALLERY.items():
            mp.setitem(cli.GALLERY, name, barred(factory))
        mp.setattr(expr, "compile_immersion", barred(expr.compile_immersion))
        parse_manifest(doc)
    assert err.value.path == path
    assert f"expected a size of at most {cap}" in str(err.value)


def test_gallery_and_benchmark_manifests_parse(monkeypatch):
    # the benchmark sets checks.claims_threshold and generator.analyze_pair
    workloads = load_benchmark_workloads(monkeypatch)
    docs = [MANIFESTS[name] for name in sorted(MANIFESTS)]
    docs += [op.doc for seed in (0, 1, 4242) for workload in ("pairs", "extend", "charts")
             for op in workloads.build(workload, seed)]
    assert len(docs) == 10 + 3 * 19
    for doc in docs:
        assert parse_manifest(json.loads(json.dumps(doc)))["analysis"] in KINDS


def schema_paths() -> dict[str, set[str]]:
    """Each path of the table with the kinds that read it; an immersion
    spec's own keys under `<spec>`."""
    paths: dict[str, set[str]] = {}

    def walk(node, path, kind):
        if isinstance(node, dict):
            for key, (child, _) in node.items():
                paths.setdefault(f"{path}.{key}" if path else key, set()).add(kind)
                walk(child, f"{path}.{key}" if path else key, kind)
        elif isinstance(node, (list, tuple)):
            walk(node[-1] if isinstance(node, tuple) else node[0], path, kind)
        elif hasattr(node, "variants"):
            for variant in node.variants.values():
                walk(variant, "<spec>", kind)

    for kind, table in cli._SCHEMA.items():
        walk(table, "", kind)
    return paths


def readme_paths() -> dict[str, set[str]]:
    """Path and kinds of each row of README's manifest key table."""
    rows = re.findall(r"^\| `([^`]+)` \| ([a-z, ]+) \|", (ROOT / "README.md").read_text(), re.M)
    return {path: KINDS if kinds == "all" else set(kinds.split(", ")) for path, kinds in rows}


def test_readme_key_table_lists_the_paths_of_the_manifest_table():
    assert readme_paths() == schema_paths()


def test_readme_example_manifest_parses():
    example = re.search(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    assert parse_manifest(json.loads(example))["expect"] == {"branch": "nondegenerate", "rulings": 2}

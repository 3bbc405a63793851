"""Gallery reports against the golden snapshots in tests/golden/."""

import copy
import json

import pytest

from confpair.gallery import MANIFESTS

from golden_reports import ABS, GOLDEN_DIR, REL, compare, differences, load, snapshot


def test_golden_files_cover_the_gallery():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(MANIFESTS)


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_report_matches_golden(name, gallery_reports):
    entry = gallery_reports[name]
    got = snapshot(json.loads(entry["blob"]), entry["code"])
    diffs = compare(got, load(name))
    assert not diffs, "\n".join(diffs[:20])


def test_comparator_rejects_one_changed_rank_name_or_residual():
    want = load("degenerate-pair")
    assert compare(copy.deepcopy(want), want) == []

    bumped = copy.deepcopy(want)
    bumped["report"]["results"]["regions"][0]["ranks"]["rulings"] += 1
    assert compare(bumped, want)

    renamed = copy.deepcopy(want)
    renamed["report"]["checks"][0]["name"] += "_renamed"
    assert compare(renamed, want)

    drifted = copy.deepcopy(want)
    residuals = drifted["report"]["results"]["regions"][0]["residuals"]
    key = max(residuals, key=lambda k: abs(residuals[k]))
    assert residuals[key] != 0.0
    residuals[key] += 2 * (REL * abs(residuals[key]) + ABS)  # twice what the bound forgives
    assert compare(drifted, want)


def test_differences_give_each_float_its_share_of_the_bound():
    want = {"a": 1.0, "b": [2, "x"], "c": 0.0, "d": 0.5}
    got = {"a": 1.0 + 0.5e-6, "b": [3, "x"], "c": 2e-12, "d": 0.5}
    found = {where: share for where, _, _, share in differences(got, want)}
    assert found == {".a": pytest.approx(0.5e-6 / (REL + ABS)), ".b[0]": None,
                     ".c": pytest.approx(2e-12 / ABS)}
    assert [line.split(":")[0] for line in compare(got, want)] == [".b[0]", ".c"]
    assert list(differences({"a": 1.0}, {"e": 1.0})) == [("", "keys ['a']", "keys ['e']", None)]

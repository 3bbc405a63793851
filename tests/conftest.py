import json

import pytest

from confpair.cli import run_manifest
from confpair.gallery import MANIFESTS


@pytest.fixture(scope="session")
def gallery_reports():
    """Every gallery manifest run twice; shared by the acceptance and golden tests."""
    out = {}
    for name in sorted(MANIFESTS):
        doc = json.loads(json.dumps(MANIFESTS[name]))
        report, code = run_manifest(doc)
        blob = json.dumps(report, sort_keys=True, indent=2)
        report2, code2 = run_manifest(json.loads(json.dumps(MANIFESTS[name])))
        blob2 = json.dumps(report2, sort_keys=True, indent=2)
        out[name] = {"report": report, "code": code, "blob": blob, "blob2": blob2,
                     "code2": code2}
    return out

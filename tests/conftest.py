import json
import sys

import numpy as np
import pytest

from confpair import cli, extension, pair_pipeline
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


def _recorder(log: list, real):
    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        log.append((args, kwargs, out))
        return out
    return recorded


def record_jets_eigen(mp: pytest.MonkeyPatch, log: list):
    """Append (solver, jets function) to `log` for each stacked `np.linalg.eigh`
    or `eigvalsh` call made under a function of `confpair.jets`."""
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def recorded(a, *args, _real=real, _name=name, **kwargs):
            if np.ndim(a) > 2:
                frame = sys._getframe(1)
                while frame is not None and frame.f_globals.get("__name__") != "confpair.jets":
                    frame = frame.f_back
                if frame is not None:
                    log.append((_name, frame.f_code.co_name))
            return _real(a, *args, **kwargs)

        mp.setattr(np.linalg, name, recorded)


@pytest.fixture(scope="session")
def degenerate_pair_region():
    """The region builder (`pair_pipeline._Region`) of the degenerate-pair
    manifest's one region, with every stage product it kept."""
    regions = []
    real = pair_pipeline._Region.state

    def state(reg, notes):
        regions.append(reg)
        return real(reg, notes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pair_pipeline._Region, "state", state)
        run_manifest(json.loads(json.dumps(MANIFESTS["degenerate-pair"])))
    (reg,) = regions
    return reg


@pytest.fixture(scope="session")
def degenerate_extension_run():
    """One degenerate-extension run, recorded: (args, kwargs, result) of each
    call of the obstruction, the extension and its check, of the `kernel_stack`,
    `joint_nullity` and `align_frames` calls made in `extension`, and of the
    `align_frames` calls of the pipeline's stages; under "pinv", the function
    that made each `np.linalg.pinv` call; under "jets_eigen", (solver, jets
    function) of each stacked `eigh` or `eigvalsh` call made under a
    function of `jets`."""
    log = {name: [] for name in ("extension_obstruction", "ruled_extension", "verify_extension",
                                 "kernel_stack", "joint_nullity", "align_frames",
                                 "pipeline_align_frames", "pinv", "jets_eigen")}
    real_pinv = np.linalg.pinv

    def pinv(*args, **kwargs):
        log["pinv"].append(sys._getframe(1).f_code.co_name)
        return real_pinv(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        for name in ("extension_obstruction", "ruled_extension", "verify_extension"):
            mp.setattr(cli, name, _recorder(log[name], getattr(cli, name)))
        for name in ("kernel_stack", "joint_nullity", "align_frames"):
            mp.setattr(extension, name, _recorder(log[name], getattr(extension, name)))
        mp.setattr(pair_pipeline, "align_frames",
                   _recorder(log["pipeline_align_frames"], pair_pipeline.align_frames))
        mp.setattr(np.linalg, "pinv", pinv)
        record_jets_eigen(mp, log["jets_eigen"])
        log["report"], log["code"] = run_manifest(
            json.loads(json.dumps(MANIFESTS["degenerate-extension"])))
    return log

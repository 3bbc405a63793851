"""One frame-jump threshold per run: every `fundamental_data` call in confpair
names its `align_threshold=`, so no library path falls back to the 0.5
default while the run sweeps at `PipelineConfig.align_threshold`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "confpair"


def calls_without_threshold(source: str, filename: str = "<source>") -> list[str]:
    """`file:line` of each call of `fundamental_data` (by name or as an
    attribute) with no `align_threshold=` keyword."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "fundamental_data" and not any(k.arg == "align_threshold" for k in node.keywords):
            found.append(f"{Path(filename).name}:{node.lineno}")
    return found


def test_every_fundamental_data_call_names_its_frame_jump_threshold():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += calls_without_threshold(path.read_text(), str(path))
    assert found == []


def test_call_without_threshold_is_flagged():
    source = (
        "a = fundamental_data(jet)\n"
        "b = fundamental_data(jet, tol=t, align_threshold=cfg.align_threshold)\n"
        "c = jets.fundamental_data(jet, tol=t)\n"
        "d = align_frames(spans, gram, shape)\n"
    )
    assert calls_without_threshold(source) == ["<source>:1", "<source>:3"]

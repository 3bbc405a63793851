"""One home per run-level number: every call in confpair of a function that
takes the run's `PipelineConfig` passes it, and every `align_frames` call
names its `floor=`, so no library path falls back to a default while the
run decides ranks and aligns frames at the numbers of its own config, its
`align_floor` among them."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "confpair"


def _name(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def config_positions(trees) -> dict[str, int]:
    """The positional index of `cfg` in every top-level function that takes it."""
    out = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                params = [a.arg for a in node.args.posonlyargs + node.args.args]
                if "cfg" in params:
                    out[node.name] = params.index("cfg")
    return out


def calls_without_config(sources: dict[str, str]) -> list[str]:
    """`file:line` of each call, by name or as an attribute, of a function
    that takes `cfg` and is not given it, and of each `align_frames` call
    with no `floor=` keyword."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    takers = config_positions(trees.values())
    found = []
    for filename, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name, keys = _name(node), {k.arg for k in node.keywords}
            if name == "align_frames":
                missing = "floor" not in keys
            elif name in takers:
                missing = "cfg" not in keys and len(node.args) <= takers[name]
            else:
                continue
            if missing:
                found.append(f"{Path(filename).name}:{node.lineno}")
    return found


def test_every_call_passes_the_run_config_and_every_sweep_its_floor():
    sources = {str(path): path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert calls_without_config(sources) == []


def test_call_without_config_or_floor_is_flagged():
    source = (
        "def fundamental_data(jet, cfg=None):\n"
        "    return jet\n"
        "a = fundamental_data(jet)\n"
        "b = fundamental_data(jet, cfg)\n"
        "c = jets.fundamental_data(jet)\n"
        "d = fundamental_data(jet, cfg=cfg)\n"
        "e = align_frames(spans, gram, shape, tol=t)\n"
        "f = align_frames(spans, gram, shape, floor=cfg.align_floor)\n"
    )
    assert calls_without_config({"<source>": source}) == ["<source>:3", "<source>:5", "<source>:7"]

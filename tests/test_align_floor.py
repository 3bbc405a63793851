"""One home per run-level number: every function in confpair that takes the
run's `PipelineConfig` requires it, and every call of such a function passes
it, so no library path falls back to a default while the run decides ranks
and aligns frames at the numbers of its own config, its `align_floor` among
them."""

import ast
from pathlib import Path

from sources import PACKAGE, parse, walk


def _name(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def config_positions(trees) -> dict[str, int | None]:
    """The positional index of `cfg` in every top-level function that takes
    it, None where it is keyword-only."""
    out = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                params = [a.arg for a in node.args.posonlyargs + node.args.args]
                if "cfg" in params:
                    out[node.name] = params.index("cfg")
                elif "cfg" in [a.arg for a in node.args.kwonlyargs]:
                    out[node.name] = None
    return out


def defaulted_configs(trees) -> list[str]:
    """Names of the public functions whose `cfg` has a default."""
    found = []
    for tree in trees:
        for node in walk(tree):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if "cfg" in [a.arg for a in defaulted]:
                found.append(node.name)
    return found


def calls_without_config(sources: dict[str, str]) -> list[str]:
    """`file:line` of each call, by name or as an attribute, of a function
    that takes `cfg` and is not given it, and `file:name` of each public
    function whose `cfg` has a default."""
    trees = {name: parse(text, name) for name, text in sources.items()}
    takers = config_positions(trees.values())
    found = []
    for filename, tree in trees.items():
        for node in walk(tree):
            if not isinstance(node, ast.Call) or _name(node) not in takers:
                continue
            index = takers[_name(node)]
            if "cfg" not in {k.arg for k in node.keywords} and (index is None
                                                                or len(node.args) <= index):
                found.append(f"{Path(filename).name}:{node.lineno}")
        found += [f"{Path(filename).name}:{name}" for name in defaulted_configs([tree])]
    return found


def test_every_call_passes_the_run_config_and_no_config_has_a_default():
    sources = {str(path): path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert calls_without_config(sources) == []


def test_call_without_config_or_defaulted_config_is_flagged():
    source = (
        "def fundamental_data(jet, cfg):\n"
        "    return jet\n"
        "def align_frames(spans, tol=None, *, cfg):\n"
        "    return spans\n"
        "def analyze(jet, cfg=None):\n"
        "    return jet\n"
        "a = fundamental_data(jet)\n"
        "b = fundamental_data(jet, cfg)\n"
        "c = jets.fundamental_data(jet)\n"
        "d = fundamental_data(jet, cfg=cfg)\n"
        "e = align_frames(spans, 1e-7)\n"
        "f = align_frames(spans, cfg=cfg)\n"
    )
    assert calls_without_config({"<source>": source}) == [
        "<source>:7", "<source>:9", "<source>:11", "<source>:analyze"]

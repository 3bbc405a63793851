"""The parsed sources of confpair and its tests, shared by the AST lints:
each text is parsed once per session, and each tree walked once."""

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "confpair"
TESTS = ROOT / "tests"


@lru_cache(maxsize=None)
def parse(source: str, filename: str = "<source>") -> ast.Module:
    """`ast.parse` of a source text, once per (text, filename)."""
    return ast.parse(source, filename=filename)


def parse_file(path: Path) -> ast.Module:
    return parse(path.read_text(), str(path))


@lru_cache(maxsize=None)
def walk(tree: ast.AST) -> tuple[ast.AST, ...]:
    """The nodes of a tree in `ast.walk` order, once per tree."""
    return tuple(ast.walk(tree))

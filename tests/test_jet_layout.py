"""The point-last layout of `Jet3` stays private to `jet3`: no other module of
confpair reads a jet's stored rows (`_g`, `_h`) or builds a jet from rows
(`_rows`).  Everything else reads jets point-first, through `g` and `h`."""

import ast
from pathlib import Path

from sources import PACKAGE, parse, walk

PRIVATE = {"_g", "_h", "_rows"}


def layout_reads(source: str, filename: str = "<source>") -> list[str]:
    """`file:line:attr` of each attribute access to a private jet slot."""
    nodes = [node for node in walk(parse(source, filename))
             if isinstance(node, ast.Attribute) and node.attr in PRIVATE]
    nodes.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"{Path(filename).name}:{node.lineno}:{node.attr}" for node in nodes]


def test_only_jet3_reads_the_point_last_layout():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "jet3.py":
            found += layout_reads(path.read_text(), str(path))
    assert found == []


def test_layout_read_is_flagged():
    source = (
        "def f(jet, other):\n"
        "    g = jet.g\n"
        "    rows = jet._g[0] + other._h\n"
        "    return Jet3._rows(jet.v, rows, None, jet.nvars), getattr(jet, 'h')\n"
    )
    assert layout_reads(source) == ["<source>:3:_g", "<source>:3:_h", "<source>:4:_rows"]

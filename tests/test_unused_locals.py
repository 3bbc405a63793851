"""No unused locals: every name that a function of confpair assigns is read
somewhere in that function or in a function nested inside it."""

import ast
from pathlib import Path

from sources import PACKAGE, parse, walk

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_scope(func):
    """The nodes of a function's body, without the bodies of the functions,
    lambdas and classes nested in it."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(source: str, filename: str = "<source>") -> list[str]:
    """`file:function:name` of each name that a function assigns (as a target
    of `=`, `+=`, `for`, `with ... as` or `:=`) and that neither the function
    nor a function nested in it ever loads.  Names starting with an
    underscore, and names the function declares `global` or `nonlocal`, are
    exempt."""
    tree = parse(source, filename)
    found = []
    for func in walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = list(_own_scope(func))
        shared = {name for node in own if isinstance(node, (ast.Global, ast.Nonlocal))
                  for name in node.names}
        stored = [node.id for node in sorted(
            (node for node in own if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)),
            key=lambda node: (node.lineno, node.col_offset))]
        loaded = {node.id for node in ast.walk(func)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [f"{Path(filename).name}:{func.name}:{name}" for name in dict.fromkeys(stored)
                  if name not in loaded and name not in shared and not name.startswith("_")]
    return found


def test_no_function_assigns_a_local_it_never_reads():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += unused_locals(path.read_text(), str(path))
    assert found == []


def test_unused_local_is_flagged():
    source = (
        "def f(a, b):\n"
        "    p, n, m = a.shape\n"
        "    total = 0\n"
        "    total += m\n"
        "    for i in range(n):\n"
        "        pass\n"
        "    _skipped = b\n"
        "    count = 0\n"
        "    def g():\n"
        "        nonlocal count\n"
        "        count = 1\n"
        "        unread = 2\n"
        "        return b\n"
        "    g()\n"
        "    return [x for x in b if (y := x)], count, p\n"
    )
    assert unused_locals(source) == ["<source>:f:total", "<source>:f:i", "<source>:f:y",
                                     "<source>:g:unread"]

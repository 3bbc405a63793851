"""No unused imports: every name that a module of confpair or of its tests
imports is read in that module or listed in its `__all__`."""

import ast
from pathlib import Path

from sources import PACKAGE, TESTS, parse, walk


def unused_imports(source: str, filename: str = "<source>") -> list[str]:
    """`file:name` of each imported name that the module never loads (as a
    name or as the root of an attribute chain) and does not list in
    `__all__`.  `from __future__ import ...` binds no name and is skipped."""
    tree = parse(source, filename)
    imported = []
    for node in walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`; `from m import x as y` binds `y`
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names if alias.name != "*"]
    read = {node.id for node in walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{Path(filename).name}:{name}" for name in dict.fromkeys(imported) if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        found += unused_imports(path.read_text(), str(path))
    assert found == []


def test_unused_import_is_flagged():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import pi, tau as turn, e\n"
        "from .jets import fundamental_data\n"
        "__all__ = ['fundamental_data']\n"
        "x = np.zeros(1)\n"
        "def f(y: float = pi) -> float:\n"
        "    return y\n"
    )
    assert unused_imports(source) == ["<source>:os", "<source>:turn", "<source>:e"]

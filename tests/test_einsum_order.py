"""No unordered or unplanned contractions.

Every `np.einsum` in confpair with three or more array operands states its
`optimize=` choice: without it numpy loops over the full product of all
indices at once; with `optimize=True` it contracts pairwise (Smith & Gray,
"opt_einsum", JOSS 2018).  Stronger still, such contractions go through
`indefinite_linalg.contract`, which plans that pairwise path once per
(subscripts, operand shapes), so no `np.einsum` in the package passes
`optimize=True` and plans again on every call.
"""

import ast
from pathlib import Path

from sources import PACKAGE, parse, walk


def _einsum_calls(source: str, filename: str):
    """`np.einsum`/`numpy.einsum` calls of a source text."""
    for node in walk(parse(source, filename)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if (func.attr == "einsum" and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")):
            yield node


def unordered_einsums(source: str, filename: str = "<source>") -> list[str]:
    """`file:line` of each `np.einsum`/`numpy.einsum` call with at least three
    operands after the subscripts and no `optimize=` keyword."""
    return [f"{Path(filename).name}:{node.lineno}" for node in _einsum_calls(source, filename)
            if len(node.args) - 1 >= 3 and not any(k.arg == "optimize" for k in node.keywords)]


def unplanned_einsums(source: str, filename: str = "<source>") -> list[str]:
    """`file:line` of each `np.einsum`/`numpy.einsum` call that plans its own
    path: at least three operands after the subscripts (they belong in
    `contract`), or a literal `optimize=True`."""
    found = []
    for node in _einsum_calls(source, filename):
        replans = any(k.arg == "optimize" and isinstance(k.value, ast.Constant)
                      and k.value.value is True for k in node.keywords)
        if len(node.args) - 1 >= 3 or replans:
            found.append(f"{Path(filename).name}:{node.lineno}")
    return found


def _package_findings(lint) -> list[str]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += lint(path.read_text(), str(path))
    return found


def test_three_operand_einsums_state_their_contraction_order():
    assert _package_findings(unordered_einsums) == []


def test_unordered_einsum_is_flagged():
    source = (
        "import numpy as np\n"
        "a = np.einsum('pma,mw,pwt->pat', d, g, f)\n"
        "b = np.einsum('pma,mw,pwt->pat', d, g, f, optimize=True)\n"
        "c = np.einsum('pia,pib->pab', d, f)\n"
        "e = numpy.einsum('i,ij,j->', u, g, v)\n"
    )
    assert unordered_einsums(source) == ["<source>:2", "<source>:5"]


def test_every_contraction_of_three_operands_is_planned_once():
    assert _package_findings(unplanned_einsums) == []


def test_unplanned_einsum_is_flagged():
    source = (
        "import numpy as np\n"
        "a = np.einsum('pma,mw,pwt->pat', d, g, f, optimize=True)\n"
        "b = contract('pma,mw,pwt->pat', d, g, f)\n"
        "c = np.einsum('pia,pib->pab', d, f, optimize=True)\n"
        "e = numpy.einsum('i,ij,j->', u, g, v, optimize='greedy')\n"
        "h = np.einsum('pia,pib->pab', d, f)\n"
        "k = np.einsum(subscripts, *operands, optimize=path)\n"
        "q = np.einsum_path('i,ij,j->', u, g, v, optimize=True)\n"
    )
    assert unplanned_einsums(source) == ["<source>:2", "<source>:4", "<source>:5"]

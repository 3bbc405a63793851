"""No unordered contractions: every `np.einsum` in confpair with three or more
array operands states its `optimize=` choice.

Without it numpy loops over the full product of all indices at once; with
`optimize=True` it contracts pairwise (Smith & Gray, "opt_einsum", JOSS 2018).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "confpair"


def unordered_einsums(source: str, filename: str = "<source>") -> list[str]:
    """`file:line` of each `np.einsum`/`numpy.einsum` call with at least three
    operands after the subscripts and no `optimize=` keyword."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if not (func.attr == "einsum" and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")):
            continue
        if len(node.args) - 1 >= 3 and not any(k.arg == "optimize" for k in node.keywords):
            found.append(f"{Path(filename).name}:{node.lineno}")
    return found


def test_three_operand_einsums_state_their_contraction_order():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += unordered_einsums(path.read_text(), str(path))
    assert found == []


def test_unordered_einsum_is_flagged():
    source = (
        "import numpy as np\n"
        "a = np.einsum('pma,mw,pwt->pat', d, g, f)\n"
        "b = np.einsum('pma,mw,pwt->pat', d, g, f, optimize=True)\n"
        "c = np.einsum('pia,pib->pab', d, f)\n"
        "e = numpy.einsum('i,ij,j->', u, g, v)\n"
    )
    assert unordered_einsums(source) == ["<source>:2", "<source>:5"]

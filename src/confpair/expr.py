"""A tiny closed-form expression language for manifest immersions.

Components are arithmetic expressions in the chart variables x1..xn with
the functions sin, cos, exp, sqrt, norm and norm2; they are parsed with the
standard `ast` module (no eval) and evaluated on forward-mode jets, so every
expression automatically carries its first and second derivatives.
"""

from __future__ import annotations

import ast
import math

from . import jet3
from .errors import ManifestError

_FUNCTIONS = {
    "sin": jet3.sin,
    "cos": jet3.cos,
    "exp": jet3.exp,
    "sqrt": jet3.sqrt,
    "norm": jet3.norm,
    "norm2": jet3.norm2,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
}


def compile_component(source: str, nvars: int, where: str = "expr"):
    """Compile one component expression into a function of the variable jets."""
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ManifestError(where, f"syntax error in {source!r}: {exc.msg}") from exc

    names = {f"x{i + 1}": i for i in range(nvars)}

    def run(node, xs):
        if isinstance(node, ast.Expression):
            return run(node.body, xs)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                return float(node.value)
            raise ManifestError(where, f"unsupported constant {node.value!r}")
        if isinstance(node, ast.Name):
            if node.id in names:
                return xs[names[node.id]]
            if node.id in _CONSTANTS:
                return _CONSTANTS[node.id]
            raise ManifestError(where, f"unknown name {node.id!r} (variables are x1..x{nvars})")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            val = run(node.operand, xs)
            return -val if isinstance(node.op, ast.USub) else val
        if isinstance(node, ast.BinOp):
            left, right = run(node.left, xs), run(node.right, xs)
            try:
                return binop(node.op, left, right)
            except ArithmeticError as exc:  # 1/0, 10**400 or (-8)**0.5 between constants
                raise ManifestError(where, f"{ast.unparse(node)}: {exc}") from exc
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
                raise ManifestError(where, "only sin, cos, exp, sqrt, norm, norm2 may be called")
            if node.keywords:
                raise ManifestError(where, "keyword arguments are not part of the language")
            args = [run(a, xs) for a in node.args]
            jets = []
            template = next((a for a in args if not isinstance(a, float)), None)
            for a in args:
                if isinstance(a, float):
                    if template is None:
                        raise ManifestError(where, "function arguments must involve a variable")
                    a = jet3.constant(a, template)
                jets.append(a)
            return _FUNCTIONS[node.func.id](*jets)
        raise ManifestError(where, f"unsupported syntax {type(node).__name__}")

    def binop(op, left, right):
        if isinstance(op, ast.Pow):
            if not isinstance(right, float):
                raise ManifestError(where, "exponents must be numeric constants")
            if not isinstance(left, float) and right.is_integer():
                return left ** int(right)
            out = left**right
            if isinstance(out, complex):
                raise ArithmeticError("a negative number to a fractional power")
            return out
        for op_type, fn in _BINOPS.items():
            if isinstance(op, op_type):
                return fn(left, right)
        raise ManifestError(where, f"unsupported operator {type(op).__name__}")

    # constant arithmetic runs here once, so that a manifest with 1/0 is
    # refused before any jet is built
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and not any(
                isinstance(sub, ast.Name) and sub.id in names for sub in ast.walk(node)):
            run(node, [])

    def component(xs):
        out = run(tree, xs)
        if isinstance(out, float):
            out = jet3.constant(out, xs[0])
        return out

    return component


def compile_immersion(sources: list[str], nvars: int, where: str = "expr"):
    """Function returning all component jets, suitable for ImmersionMap.fn."""
    comps = [
        compile_component(src, nvars, where=f"{where}[{i}]") for i, src in enumerate(sources)
    ]

    def fn(xs):
        return [c(xs) for c in comps]

    return fn

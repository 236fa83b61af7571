"""The expression renderer fmkit used while it kept its own precedence
table beside the parser's.

That table put comparisons one level above 'and' with no room for 'not',
and let a comparison chain, so ``y == (not x)`` printed as ``y == not x``
and ``(n < 2) != (n > 3)`` as ``n < 2 != (n > 3)`` (neither parses), and
``(not x) == y`` as ``not x == y`` (which parses as ``not (x == y)``).

Kept only as the reference for the property in test_dsl.py: wherever this
renderer's text parses back to the tree it printed, ``exprs.render`` prints
the same text.
"""
from __future__ import annotations

from fmkit.exprs import Attr, Expr, Lit, Unary

_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5,
}


def render(expr: Expr, parent_prec: int = 0) -> str:
    if isinstance(expr, Lit):
        v = expr.value
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, str):
            escaped = v.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        text = repr(v)
        if isinstance(v, float) and "e" in text:  # positional, as the lexer reads it
            from decimal import Decimal

            text = f"{Decimal(text):f}"
            return text if "." in text else text + ".0"
        return text
    if isinstance(expr, Attr):
        return expr.name
    if isinstance(expr, Unary):
        inner = render(expr.operand, 6)
        return f"not {inner}" if expr.op == "not" else f"-{inner}"
    prec = _PRECEDENCE[expr.op]
    text = f"{render(expr.left, prec)} {expr.op} {render(expr.right, prec + 1)}"
    return f"({text})" if prec < parent_prec else text

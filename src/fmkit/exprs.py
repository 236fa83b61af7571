"""Expression trees used by arc guards, trigger spawn attributes, and assign blocks.

Scalar types are ``int``, ``dec``, ``str``, and ``bool``.  Integer division
floors; dividing by zero, or mixing with a dec an int too large for a float,
raises :class:`EvalError`, which the simulator maps to guard-false plus a
"blocked" trace record.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

Value = Union[int, float, str, bool]

SCALAR_TYPES = ("int", "dec", "str", "bool")

_NUMERIC = {"int", "dec"}

# Binding power of each binary operator, and of the two prefix levels.
# 'not' sits between 'and' and the comparisons, a comparison does not chain
# ('a < b < c' stops at the second '<'), and unary minus binds tightest,
# with literals, names and brackets.  The parser, ``render`` and
# ``typecheck`` all read it, so every tree prints back to itself.
BINARY_PREC = {
    "or": 1, "and": 2,
    "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6,
}
NOT_PREC = 3
CMP_PREC = 4
ATOM_PREC = 7


class TypeError_(Exception):
    """An expression failed to type-check against a thing kind."""


class EvalError(Exception):
    """Evaluation failed (division by zero, or an int too large for a dec)."""


@dataclass(frozen=True)
class Lit:
    value: Value

    @property
    def type(self) -> str:
        if isinstance(self.value, bool):
            return "bool"
        if isinstance(self.value, int):
            return "int"
        if isinstance(self.value, float):
            return "dec"
        return "str"


@dataclass(frozen=True)
class Attr:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "not" | "-"
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[Lit, Attr, Unary, Binary]


def assignable(value_type: str, target_type: str) -> bool:
    """Whether a value of value_type may be stored in an attribute of
    target_type: the same type, or an int into a dec."""
    return value_type == target_type or (value_type == "int" and target_type == "dec")


def fits(value: Value, target_type: str) -> bool:
    """Whether a value of an assignable type can be stored in an attribute
    of target_type: an int stored in a dec must fit in a float."""
    if target_type != "dec" or type(value) is not int:
        return True
    try:
        float(value)
    except OverflowError:
        return False
    return True


def typecheck(expr: Expr, attr_types: Mapping[str, str]) -> str:
    """Return the expression's type, or raise TypeError_ naming the problem."""
    if isinstance(expr, Lit):
        return expr.type
    if isinstance(expr, Attr):
        t = attr_types.get(expr.name)
        if t is None:
            raise TypeError_(f"unknown attribute '{expr.name}'")
        return t
    if isinstance(expr, Unary):
        t = typecheck(expr.operand, attr_types)
        if expr.op == "not":
            if t != "bool":
                raise TypeError_(f"'not' needs bool, got {t}")
            return "bool"
        if t not in _NUMERIC:
            raise TypeError_(f"unary '-' needs int or dec, got {t}")
        return t
    t_left = typecheck(expr.left, attr_types)
    t_right = typecheck(expr.right, attr_types)
    op = expr.op
    prec = BINARY_PREC.get(op, 0)
    if 0 < prec < NOT_PREC:  # 'and', 'or'
        if t_left != "bool" or t_right != "bool":
            raise TypeError_(f"'{op}' needs bool operands, got {t_left} and {t_right}")
        return "bool"
    if prec > CMP_PREC:  # arithmetic
        if t_left not in _NUMERIC or t_right not in _NUMERIC:
            raise TypeError_(f"'{op}' needs numeric operands, got {t_left} and {t_right}")
        return "dec" if "dec" in (t_left, t_right) else "int"
    if prec == CMP_PREC:
        numeric = t_left in _NUMERIC and t_right in _NUMERIC
        if op in ("==", "!="):
            if not numeric and t_left != t_right:
                raise TypeError_(f"'{op}' needs same-typed operands, got {t_left} and {t_right}")
        elif not numeric:
            raise TypeError_(f"'{op}' needs numeric operands, got {t_left} and {t_right}")
        return "bool"
    raise TypeError_(f"unknown operator '{op}'")


def evaluate(expr: Expr, attrs: Mapping[str, Value]) -> Value:
    """Evaluate against a thing's attribute map.  Total except for EvalError."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Attr):
        return attrs[expr.name]
    if isinstance(expr, Unary):
        v = evaluate(expr.operand, attrs)
        return (not v) if expr.op == "not" else -v
    if expr.op == "and":
        return bool(evaluate(expr.left, attrs)) and bool(evaluate(expr.right, attrs))
    if expr.op == "or":
        return bool(evaluate(expr.left, attrs)) or bool(evaluate(expr.right, attrs))
    lv = evaluate(expr.left, attrs)
    rv = evaluate(expr.right, attrs)
    op = expr.op
    if op == "==":
        return lv == rv
    if op == "!=":
        return lv != rv
    if op == "<":
        return lv < rv
    if op == "<=":
        return lv <= rv
    if op == ">":
        return lv > rv
    if op == ">=":
        return lv >= rv
    try:
        if op == "+":
            return lv + rv
        if op == "-":
            return lv - rv
        if op == "*":
            return lv * rv
        if rv == 0:
            raise EvalError("division by zero")
        if isinstance(lv, int) and not isinstance(lv, bool) and isinstance(rv, int):
            return lv // rv
        return lv / rv
    except OverflowError as exc:  # an int operand no float holds met a dec
        raise EvalError("int too large for a dec") from exc


def render(expr: Expr, min_prec: int = 0) -> str:
    """Deterministic source form; inverse of the parser's expression grammar.
    Bracketed when ``expr`` binds looser than ``min_prec``."""
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
        # A binary operand is bracketed, as printed models always were; so is 'not' under '-'.
        prec = NOT_PREC if expr.op == "not" else ATOM_PREC
        operand = render(expr.operand, ATOM_PREC if isinstance(expr.operand, Binary) else prec)
        text = f"not {operand}" if expr.op == "not" else f"-{operand}"
    else:
        prec = BINARY_PREC[expr.op]
        # Left-associative, except that a comparison brackets a comparison.
        left = render(expr.left, prec + 1 if prec == CMP_PREC else prec)
        text = f"{left} {expr.op} {render(expr.right, prec + 1)}"
    return f"({text})" if prec < min_prec else text

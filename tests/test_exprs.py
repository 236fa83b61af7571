"""Expression evaluation and typing, operator by operator.

The oracle in ``tests/oracle.py`` evaluates guards and assigns with the same
``exprs.evaluate``, so the differential test cannot catch a wrong value:
these tables pin each operator's value and each type error on their own.
"""
from __future__ import annotations

import pytest

from fmkit.exprs import Attr, Binary, EvalError, Lit, TypeError_, Unary, evaluate, fits, typecheck

ATTRS = {"n": 7, "m": -7, "x": 2.5, "s": "abc", "t": True, "f": False}
TYPES = {"n": "int", "m": "int", "x": "dec", "s": "str", "t": "bool", "f": "bool"}


def b(op, left, right):
    return Binary(op, left, right)


VALUES = [
    (b("and", Attr("t"), Attr("f")), False),
    (b("and", Attr("t"), Attr("t")), True),
    (b("or", Attr("f"), Attr("t")), True),
    (b("or", Attr("f"), Attr("f")), False),
    (b("==", Attr("n"), Lit(7)), True),
    (b("==", Lit(2), Lit(2.0)), True),
    (b("!=", Attr("s"), Lit("abc")), False),
    (b("!=", Attr("n"), Attr("m")), True),
    (b("<", Attr("m"), Attr("n")), True),
    (b("<=", Attr("n"), Lit(7)), True),
    (b("<=", Attr("n"), Lit(6)), False),
    (b(">", Attr("x"), Lit(2)), True),
    (b(">=", Attr("x"), Lit(2.5)), True),
    (b(">=", Lit(2), Attr("x")), False),
    (b("+", Attr("n"), Lit(3)), 10),
    (b("+", Attr("n"), Attr("x")), 9.5),
    (b("-", Attr("n"), Lit(10)), -3),
    (b("-", Attr("x"), Lit(1)), 1.5),
    (b("*", Attr("n"), Lit(3)), 21),
    (b("*", Attr("x"), Lit(2)), 5.0),
    (b("/", Attr("n"), Lit(2)), 3),
    (b("/", Attr("m"), Lit(2)), -4),  # floors: truncation would give -3
    (b("/", Attr("n"), Lit(-2)), -4),
    (b("/", Attr("m"), Lit(-2)), 3),
    (b("/", Attr("n"), Lit(2.0)), 3.5),
    (b("/", Attr("x"), Lit(2)), 1.25),
    (b("/", Attr("m"), Lit(2.0)), -3.5),
    (Unary("not", Attr("f")), True),
    (Unary("-", Attr("n")), -7),
    (Unary("-", Attr("x")), -2.5),
]


@pytest.mark.parametrize("expr, value", VALUES)
def test_evaluate(expr, value):
    result = evaluate(expr, ATTRS)
    assert result == value
    assert type(result) is type(value)


@pytest.mark.parametrize("divisor", [Lit(0), Lit(0.0)])
def test_division_by_zero_raises(divisor):
    with pytest.raises(EvalError, match="division by zero"):
        evaluate(b("/", Attr("n"), divisor), ATTRS)


HUGE = 10 ** 400  # an int no float holds


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
@pytest.mark.parametrize("int_first", [True, False])
def test_int_too_large_for_a_dec_raises(op, int_first):
    operands = (Lit(HUGE), Attr("x")) if int_first else (Attr("x"), Lit(HUGE))
    with pytest.raises(EvalError, match="int too large for a dec"):
        evaluate(b(op, *operands), ATTRS)


def test_huge_int_without_a_dec_stays_exact():
    assert evaluate(b("+", Lit(HUGE), Attr("n")), ATTRS) == HUGE + 7
    assert evaluate(b("/", Lit(HUGE), Attr("n")), ATTRS) == HUGE // 7
    assert evaluate(b(">", Lit(HUGE), Attr("x")), ATTRS) is True


@pytest.mark.parametrize("value, target, expected", [
    (HUGE, "dec", False), (-HUGE, "dec", False), (HUGE, "int", True),
    (2 ** 1000, "dec", True), (2.5, "dec", True), (True, "bool", True), ("s", "str", True),
])
def test_fits(value, target, expected):
    assert fits(value, target) is expected


TYPES_OK = [
    (b("+", Attr("n"), Attr("n")), "int"),
    (b("+", Attr("n"), Attr("x")), "dec"),
    (b("/", Attr("n"), Lit(2)), "int"),
    (b("==", Attr("n"), Attr("x")), "bool"),
    (b("==", Attr("s"), Lit("a")), "bool"),
    (b("<", Attr("n"), Attr("x")), "bool"),
    (b("and", Attr("t"), Attr("f")), "bool"),
    (Unary("-", Attr("x")), "dec"),
    (Unary("not", Attr("t")), "bool"),
    (Lit("s"), "str"),
]


@pytest.mark.parametrize("expr, type_", TYPES_OK)
def test_typecheck(expr, type_):
    assert typecheck(expr, TYPES) == type_


TYPE_ERRORS = [
    (Attr("nope"), "unknown attribute 'nope'"),
    (Unary("not", Attr("n")), "'not' needs bool, got int"),
    (Unary("-", Attr("s")), "unary '-' needs int or dec, got str"),
    (b("and", Attr("t"), Attr("n")), "'and' needs bool operands, got bool and int"),
    (b("or", Attr("s"), Attr("t")), "'or' needs bool operands, got str and bool"),
    (b("+", Attr("s"), Attr("n")), "'+' needs numeric operands, got str and int"),
    (b("*", Attr("n"), Attr("t")), "'*' needs numeric operands, got int and bool"),
    (b("==", Attr("s"), Attr("n")), "'==' needs same-typed operands, got str and int"),
    (b("!=", Attr("t"), Attr("x")), "'!=' needs same-typed operands, got bool and dec"),
    (b("<", Attr("s"), Attr("s")), "'<' needs numeric operands, got str and str"),
    (b(">=", Attr("t"), Attr("n")), "'>=' needs numeric operands, got bool and int"),
    (b("%", Attr("n"), Attr("n")), "unknown operator '%'"),
]


@pytest.mark.parametrize("expr, message", TYPE_ERRORS)
def test_typecheck_error(expr, message):
    with pytest.raises(TypeError_) as info:
        typecheck(expr, TYPES)
    assert str(info.value) == message

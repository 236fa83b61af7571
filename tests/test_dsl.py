from __future__ import annotations

import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import render_reference

from fmkit.canon import CanonError, canonicalize, load_model
from fmkit.exprs import BINARY_PREC, Attr, Binary, Lit, Unary, render
from fmkit.lexer import tokenize
from fmkit.model import Stage
from fmkit.parser import MAX_NESTING, parse
from fmkit.printer import model_signature, print_model

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

MINIMAL = "thing water  sphere s { machine m: water { create release transfer } }"


def test_parse_minimal():
    tree, diags = parse(MINIMAL)
    assert diags == []
    assert len(tree.kinds) == 1
    assert len(tree.spheres) == 1
    assert len(tree.spheres[0].machines) == 1


def test_parse_tvm_two_top_spheres():
    tree, diags = parse((CORPUS / "tvm.fm").read_text(), "tvm.fm")
    assert not any(d.is_error for d in diags)
    assert [s.name for s in tree.spheres] == ["passenger", "tvm"]


def test_parse_unknown_kind_reference():
    source = "sphere s { machine m: undeclaredKind { create } }"
    _, diags = parse(source)
    errors = [d for d in diags if d.code == "unresolved-reference"]
    assert len(errors) == 1
    # The diagnostic points at the kind token.
    assert errors[0].span.start_col == source.index("undeclaredKind") + 1


def test_parse_duplicate_names():
    source = "thing w thing w sphere s { machine m: w { create } machine m: w { create } }"
    _, diags = parse(source)
    assert sum(1 for d in diags if d.code == "duplicate-name") == 2


def test_parse_is_total_on_garbage():
    tree, diags = parse("%%% flow -> !!! machine {{{")
    assert any(d.is_error for d in diags)
    assert tree is not None


def test_diagnostic_spans_inside_source():
    source = "thing w\nsphere s {\n  machine m: nope { create }\n  flow s/m.create -> s/m.banana\n}\n"
    _, diags = parse(source)
    assert diags
    lines = source.split("\n")
    for d in diags:
        assert 1 <= d.span.start_line <= len(lines)
        assert 1 <= d.span.start_col <= len(lines[d.span.start_line - 1]) + 1


def test_canonicalize_inter_machine_process_chain():
    source = (
        "thing w\n"
        "sphere s {\n"
        "  machine a: w { process }\n"
        "  machine b: w { process }\n"
        "  flow s/a.process -> s/b.process #hop\n"
        "}\n"
    )
    model, diags = load_model(source)
    assert not diags
    chain = [a for a in model.flows if a.family == "hop"]
    assert [a.label for a in chain] == ["hop", "hop.1", "hop.2", "hop.3", "hop.4"]
    stages = [(a.src.stage, a.dst.stage) for a in chain]
    assert stages == [
        (Stage.PROCESS, Stage.RELEASE),
        (Stage.RELEASE, Stage.TRANSFER),
        (Stage.TRANSFER, Stage.TRANSFER),
        (Stage.TRANSFER, Stage.RECEIVE),
        (Stage.RECEIVE, Stage.PROCESS),
    ]
    a = model.find_machine(("s", "a"))
    b = model.find_machine(("s", "b"))
    assert set(a.implicit) == {Stage.RELEASE, Stage.TRANSFER}
    assert set(b.implicit) == {Stage.TRANSFER, Stage.RECEIVE}


def test_canonicalize_keeps_legal_arc():
    source = "thing w sphere s { machine m: w { release transfer } flow s/m.release -> s/m.transfer #r }"
    model, diags = load_model(source)
    assert not diags
    arc = model.flow("r")
    assert arc.chain_len == 1 and not arc.is_implicit
    assert arc.src.stage is Stage.RELEASE and arc.dst.stage is Stage.TRANSFER


def test_canonicalize_rejects_flow_into_create():
    source = "thing w sphere s { machine m: w { create process } flow s/m.process -> s/m.create #bad }"
    tree, diags = parse(source)
    assert not any(d.is_error for d in diags)
    with pytest.raises(CanonError) as exc:
        canonicalize(tree)
    assert exc.value.diagnostic.code == "no-legal-expansion"


def test_canonicalize_idempotent_via_print():
    for name in ("tvm", "plant", "turbine"):
        model, _ = load_model((CORPUS / f"{name}.fm").read_text(), name)
        once = print_model(model)
        model2, diags = load_model(once, name + "-reprinted")
        assert not any(d.is_error for d in diags)
        assert print_model(model2) == once


@pytest.mark.parametrize("name", ["tvm", "plant", "turbine"])
def test_round_trip_isomorphic(name):
    model, _ = load_model((CORPUS / f"{name}.fm").read_text(), name)
    reparsed, diags = load_model(print_model(model), name + "-roundtrip")
    assert not any(d.is_error for d in diags)
    assert model_signature(reparsed) == model_signature(model)


def test_round_trip_minimal():
    model, _ = load_model(MINIMAL)
    reparsed, diags = load_model(print_model(model))
    assert not diags
    assert model_signature(reparsed) == model_signature(model)


def test_user_labels_survive_expansion(tvm):
    labels = {a.label for a in tvm.flows}
    for expected in ("23", "23.1", "23.2", "4", "4.1", "4.2"):
        assert expected in labels


def test_implicit_stages_printed_with_marker(plant):
    text = print_model(plant)
    assert "implicit transfer" in text or "implicit receive" in text


def test_dotted_user_label_rejected():
    source = "thing w sphere s { machine m: w { create release } flow s/m.create -> s/m.release #a.1 }"
    _, diags = parse(source)
    assert any("label" in d.message for d in diags if d.is_error)


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="thing sphere machine flow{}()#->.=/ \nabc:", max_size=120))
def test_parse_never_raises(text):
    tree, diags = parse(text)
    assert tree is not None
    for d in diags:
        assert d.span.start_line >= 1 and d.span.start_col >= 1


# Literals ------------------------------------------------------------------
#
# One literal grammar serves model defaults, guards and scenarios, and
# exprs.render is the one renderer; what it prints must lex back.


def test_negative_decimal_default_round_trips():
    source = "thing t { a: dec = -1.5, b: int = -3, c: dec = - 2.25 }"
    model, diags = load_model(source)
    assert diags == []
    assert [a.default for a in model.kinds["t"].attrs] == [-1.5, -3, -2.25]
    text = print_model(model)
    assert "a: dec = -1.5, b: int = -3, c: dec = -2.25" in text
    assert model_signature(canonicalize(parse(text)[0])) == model_signature(model)


@pytest.mark.parametrize("source,message", [
    ("thing t { a: dec = -x }", "expected a number, found 'x'"),
    ('thing t { a: str = -"s" }', "expected a number, found 's'"),
    ("thing t { a: dec = }", "expected a literal value"),
])
def test_bad_default_is_a_syntax_error(source, message):
    _, diags = parse(source)
    assert (diags[0].code, diags[0].message) == ("syntax-error", message)


@pytest.mark.parametrize("source", [
    'thing t { a: str = -"s" }',
    "thing t { a: int = f(1, 2) }",
    "thing t { a: int = { x, y } }",
])
def test_bad_default_gives_one_diagnostic(source):
    _, diags = parse(source)
    assert len(diags) == 1, [d.render() for d in diags]


def test_attribute_after_bad_default_is_still_declared():
    model, diags = parse('thing t { a: str = -"s", b: int = 2 } thing u { c: bool }')
    assert [d.message for d in diags] == ["expected a number, found 's'"]
    assert [(a.name, a.default) for a in model.kinds[0].attrs] == [("a", None), ("b", 2)]
    assert [k.name for k in model.kinds] == ["t", "u"]


@pytest.mark.parametrize("value,text", [
    (0.00001, "0.00001"), (1e16, "10000000000000000.0"), (-1.5e-7, "-0.00000015"),
    (2.5, "2.5"), (100.0, "100.0"), (7, "7"), (-3, "-3"),
])
def test_decimals_render_in_positional_form(value, text):
    assert render(Lit(value)) == text


def test_small_guard_constant_and_large_default_print_and_parse_back():
    source = (
        "thing t { x: dec = 10000000000000000.0 }\n"
        "sphere s {\n"
        "  machine m: t { create process release }\n"
        "  flow s/m.create -> s/m.process #a\n"
        "  flow s/m.process -> s/m.release when x > 0.00001 #b\n"
        "}\n"
    )
    model, diags = load_model(source)
    assert diags == []
    text = print_model(model)
    assert "x: dec = 10000000000000000.0" in text and "when x > 0.00001" in text
    again, diags = load_model(text)
    assert diags == []
    assert model_signature(again) == model_signature(model)


@pytest.mark.parametrize("literal,col", [("9" * 400 + ".0", 20), ("9" * 5000, 20), ("-" + "9" * 400 + ".0", 21)])
def test_out_of_range_number_is_a_syntax_error_at_its_token(literal, col):
    guard = "sphere s { machine m: t { create process release } flow s/m.process -> s/m.release when a < %s }"
    for source in (f"thing t {{ a: dec = {literal} }}", "thing t { a: dec = 0 } " + guard % literal):
        _, diags = parse(source, "m.fm")
        assert [(d.code, d.message) for d in diags] == [("syntax-error", "number is out of range")]
    _, diags = parse(f"thing t {{ a: dec = {literal} }}", "m.fm")
    assert (diags[0].span.start_line, diags[0].span.start_col) == (1, col)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
def test_rendered_decimal_lexes_back_to_the_same_float(value):
    text = render(Lit(value))
    tokens, diags = tokenize(text, "f.fm")
    assert diags == []
    assert [t.type for t in tokens] == ["DEC", "EOF"]
    assert tokens[0].value == value


# Expressions round-trip ----------------------------------------------------
#
# exprs.render brackets from the precedence table the parser reads, so every
# tree it prints parses back to the same tree.

ROUND_TRIP_MODEL = """\
thing t {{ x: bool = true, y: bool = false, n: int = 0 }}
sphere s {{
  machine m: t {{ create process release }}
  flow s/m.create -> s/m.process #a
  flow s/m.process -> s/m.release when {} #g
}}
"""


@pytest.mark.parametrize("guard", ["y == (not x)", "(not x) == y", "(n < 2) != (n > 3)"])
def test_printed_guard_parses_back(guard):
    model, diags = load_model(ROUND_TRIP_MODEL.format(guard))
    assert diags == []
    again, diags = load_model(print_model(model))
    assert diags == []
    assert model_signature(again) == model_signature(model)


GUARD_ATTRS = ("a", "b", "c")
GUARD_MODEL = (
    "thing t { a: int, b: bool, c: str }\n"
    "sphere s { machine m: t { process release } flow s/m.process -> s/m.release when %s #g }\n"
)


def parse_guard(text: str):
    """The guard tree text parses to, or None if it does not parse alone."""
    tree, diags = parse(GUARD_MODEL % text)
    return None if diags else tree.arcs[0].guard


expr_literals = st.one_of(
    st.integers(min_value=0, max_value=10**30),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.text(st.characters(blacklist_characters="\n"), max_size=5),
    st.booleans(),
).map(Lit)
expr_trees = st.recursive(
    expr_literals | st.sampled_from(GUARD_ATTRS).map(Attr),
    lambda operands: st.builds(Unary, st.sampled_from(["not", "-"]), operands)
    | st.builds(Binary, st.sampled_from(sorted(BINARY_PREC)), operands, operands),
    max_leaves=10,
)


@settings(max_examples=500, deadline=None)
@given(expr_trees)
@example(Binary("==", Attr("b"), Unary("not", Attr("b"))))
@example(Binary("==", Unary("not", Attr("b")), Attr("b")))
@example(Binary("!=", Binary("<", Attr("a"), Lit(2)), Binary(">", Attr("a"), Lit(3))))
@example(Unary("-", Unary("not", Attr("b"))))
def test_rendered_expression_parses_back_to_the_same_tree(expr):
    # repr tells Lit(1) from Lit(True) and Lit(1.0), which == does not.
    assert repr(parse_guard(render(expr))) == repr(expr)


@settings(max_examples=500, deadline=None)
@given(expr_trees)
@example(Unary("not", Binary("==", Attr("a"), Lit(1))))
@example(Unary("not", Unary("not", Attr("b"))))
@example(Binary("and", Unary("not", Attr("b")), Attr("b")))
def test_render_keeps_the_old_text_wherever_it_parsed_back(expr):
    old = render_reference.render(expr)
    if repr(parse_guard(old)) == repr(expr):
        assert render(expr) == old


# Nesting limit -------------------------------------------------------------
#
# Each shape below used to raise RecursionError somewhere between the parser
# and the last recursive pass.  Past MAX_NESTING the parser reports one
# nesting-too-deep diagnostic at the token that opens the level too many;
# at the limit every pass still runs.


def _deep_guard_model(guard: str) -> str:
    return (
        "thing t { n: int }\n"
        "sphere s {\n"
        "  machine m: t { create transfer }\n"
        f"  flow s/m.create -> s/m.transfer when {guard} #a\n"
        "}\n"
    )


def _deep_behavior_model(depth: int) -> str:
    term = "e"
    for _ in range(depth):
        term = f"seq(e, {term})"
    return (
        "thing t\n"
        "sphere s { machine m: t { create transfer } flow s/m.create -> s/m.transfer #a }\n"
        "event e { region { #a } }\n"
        f"behavior b {{ {term} }}\n"
    )


def _deep_sphere_model(depth: int) -> str:
    path = "/".join(f"s{i}" for i in range(depth))
    body = f"machine m: t {{ create transfer }}\nflow {path}/m.create -> {path}/m.transfer\n"
    for i in reversed(range(depth)):
        body = f"sphere s{i} {{\n{body}}}\n"
    return "thing t\n" + body


# shape -> (model at `depth`, levels the enclosing model adds, the token
# that opens each level)
DEEP_SHAPES = {
    "seq": (_deep_behavior_model, 0, "seq"),
    "spheres": (_deep_sphere_model, 0, "sphere"),
    "parens": (lambda d: _deep_guard_model("(" * d + "n > 0" + ")" * d), 1, "("),
    "not": (lambda d: _deep_guard_model("not " * d + "true"), 1, "not"),
    "minus": (lambda d: _deep_guard_model("-" * d + "n > 0"), 1, "-"),
    "flat-sum": (lambda d: _deep_guard_model(" + ".join(["n"] * d) + " > 0"), 0, "+"),
}
# Depths at which load_model raised RecursionError before the limit.
FAILING_DEPTHS = {"seq": 2000, "spheres": 1500, "parens": 3000, "not": 3000, "minus": 3000, "flat-sum": 3000}


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_deep_nesting_is_one_diagnostic_at_the_offending_token(shape):
    make, _, opener = DEEP_SHAPES[shape]
    source = make(FAILING_DEPTHS[shape])
    model, diags = load_model(source, "deep.fm")
    assert model is None
    deep = [d for d in diags if d.code == "nesting-too-deep"]
    assert len(deep) == 1
    assert deep[0].message == f"nesting is deeper than {MAX_NESTING} levels"
    span = deep[0].span
    assert span.file == "deep.fm"
    line = source.split("\n")[span.start_line - 1]
    assert line[span.start_col - 1:].startswith(opener)
    if shape != "spheres":
        # Only a skipped sphere takes its labels with it.
        assert diags == deep


def test_deep_nesting_span_is_the_first_level_past_the_limit():
    source = DEEP_SHAPES["parens"][0](3000)
    (diag,) = load_model(source, "deep.fm")[1]
    # The sphere opens one level, so the 200th bracket is one too many.
    line = source.split("\n")[3]
    assert (diag.span.start_line, diag.span.start_col) == (4, line.index("(") + MAX_NESTING)
    sphere_source = _deep_sphere_model(1500)
    (diag, *_) = load_model(sphere_source, "deep.fm")[1]
    assert diag.span.start_line == 2 + MAX_NESTING  # 'thing t', then spheres s0..s200


@pytest.mark.parametrize(
    "guard,too_deep",
    [
        # Tree height counts every operator on the longest path.
        ("not " + " + ".join(["n"] * 199) + " > 0", False),
        ("not " + " + ".join(["n"] * 200) + " > 0", True),
        ("-(" + " * ".join(["n"] * 199) + ") > 0", False),
        ("-(" + " * ".join(["n"] * 200) + ") > 0", True),
        ("(" * 150 + " + ".join(["n"] * 199) + ")" * 150 + " > 0", False),
        (" + ".join(["(" + " + ".join(["n"] * 101) + ")"] * 100) + " > 0", False),
        (" + ".join(["(" + " + ".join(["n"] * 101) + ")"] * 101) + " > 0", True),
    ],
    ids=["not-sum-200", "not-sum-201", "minus-product-200", "minus-product-201",
         "bracketed-sum-200", "sum-of-sums-200", "sum-of-sums-201"],
)
def test_expression_height_counts_every_operator(guard, too_deep):
    model, diags = load_model(_deep_guard_model(guard), "deep.fm")
    assert [d.code for d in diags] == (["nesting-too-deep"] if too_deep else [])
    assert (model is None) == too_deep


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_nesting_at_the_limit_runs_every_pass(shape):
    from fmkit.behavior import compile_program
    from fmkit.export import behavior_to_dot, dot_check, model_to_dot
    from fmkit.printer import render_chrono
    from fmkit.validate import validate

    make, enclosing, _ = DEEP_SHAPES[shape]
    depth = MAX_NESTING - enclosing
    model, diags = load_model(make(depth), "deep.fm")
    assert model is not None, [d.render() for d in diags]
    validate(model)
    assert model_signature(canonicalize(parse(print_model(model))[0])) == model_signature(model)
    assert dot_check(model_to_dot(model)) == []
    assert dot_check(model_to_dot(model, show_implicit=False)) == []
    for decl in model.behaviors:
        render_chrono(decl.program)
        behavior_to_dot(compile_program(decl.program))
    _, too_deep = load_model(make(depth + 1), "deep.fm")
    assert [d.code for d in too_deep][:1] == ["nesting-too-deep"]

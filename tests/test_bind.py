"""The parser's binder owns every name check: one case per diagnostic it gives.

Validation never re-checks names, so each case here must also keep
``load_model`` from returning a model.
"""
from __future__ import annotations

import pytest

from fmkit.canon import load_model
from fmkit.parser import parse

KINDS = "thing w { a: int = 0 }\nthing v\n"
ARC = "thing w\nsphere s { machine m: w { create release } flow s/m.create -> s/m.release #a }\n"

DUP, UNRES = "duplicate-name", "unresolved-reference"

CASES = {
    "kind": ("thing w\nthing w\n", DUP, "thing kind 'w' is already declared", 2, 7),
    "attribute": ("thing w { a: int,\n  a: int }\n", DUP, "attribute 'a' is already declared", 2, 3),
    "top-level sphere": ("sphere s { }\nsphere s { }\n", DUP, "sphere 's' is already declared", 2, 1),
    "child sphere": ("sphere s {\n  sphere t { }\n  sphere t { } }\n", DUP, "sphere 't' is already declared here", 3, 3),
    "machine named like a sibling sphere": (
        "thing w\nsphere s {\n  sphere pump { }\n  machine pump: w { create } }\n",
        DUP, "machine 'pump' is already declared here", 4, 3,
    ),
    "stage": ("thing w\nsphere s {\n  machine m: w { create create } }\n", DUP, "stage 'create' is already declared on 'm'", 3, 3),
    "machine kind": ("sphere s {\n  machine m: u { create } }\n", UNRES, "unknown thing kind 'u'", 2, 14),
    "endpoint machine": (
        "thing w\nsphere s { machine m: w { create release }\n  flow s/n.create -> s/m.release #a }\n",
        UNRES, "no machine at 's/n'", 3, 8,
    ),
    "endpoint stage": (
        "thing w\nsphere s { machine m: w { create release }\n  flow s/m.create -> s/m.process #a }\n",
        UNRES, "stage 'process' is not declared on 'm'", 3, 22,
    ),
    "guard attribute": (
        KINDS + "sphere s { machine m: w { process release }\n  flow s/m.process -> s/m.release when b > 0 #a }\n",
        UNRES, "unknown attribute 'b' in guard", 4, 3,
    ),
    "arc label": (
        "thing w\nsphere s { machine m: w { create process release }\n"
        "  flow s/m.create -> s/m.process #x\n  flow s/m.process -> s/m.release #x }\n",
        DUP, "arc label 'x' is already used", 4, 3,
    ),
    "spawn expression attribute": (
        KINDS + "sphere s { machine m: w { process } machine n: w { create }\n"
        "  trigger s/m.process => s/n.create spawn { a = b } #t }\n",
        UNRES, "unknown attribute 'b' in spawn expression", 4, 45,
    ),
    "spawn target attribute": (
        KINDS + "sphere s { machine m: w { process } machine n: v { create }\n"
        "  trigger s/m.process => s/n.create spawn { a = 1 } #t }\n",
        UNRES, "'v' has no attribute 'a'", 4, 45,
    ),
    "assign target attribute": (
        KINDS + "sphere s {\n  machine m: w { process assign { c = 1 } } }\n",
        UNRES, "'w' has no attribute 'c'", 4, 35,
    ),
    "assign expression attribute": (
        KINDS + "sphere s {\n  machine m: w { process assign { a = b } } }\n",
        UNRES, "unknown attribute 'b' in assign expression", 4, 35,
    ),
    "event": (ARC + "event e { region { #a } }\nevent e { region { #a } }\n", DUP, "event 'e' is already declared", 4, 1),
    "event label": (ARC + "event e { region { #b } }\n", UNRES, "no arc labeled 'b'", 3, 1),
    "behavior": (
        ARC + "event e { region { #a } }\nbehavior p { e }\nbehavior p { e }\n",
        DUP, "behavior 'p' is already declared", 5, 1,
    ),
    "behavior event": (
        ARC + "event e { region { #a } }\nbehavior p { seq(e, f) }\n",
        UNRES, "behavior 'p' references unknown event 'f'", 4, 1,
    ),
}


@pytest.mark.parametrize("source, code, message, line, col", list(CASES.values()), ids=list(CASES))
def test_binder_diagnostic(source, code, message, line, col):
    _, diags = parse(source, "m.fm")
    assert [(d.code, d.message, d.span.file, d.span.start_line, d.span.start_col) for d in diags] == [
        (code, message, "m.fm", line, col)
    ]
    model, _ = load_model(source, "m.fm")
    assert model is None


def test_nested_duplicate_label_points_at_the_later_arc():
    # Arcs are bound in source order, a sphere's own before each child's in
    # turn, so the second '#x' (line 4, in sphere c) is the duplicate.
    source = (
        "thing w\nsphere a {\n"
        "  sphere b { machine n: w { create process } flow a/b/n.create -> a/b/n.process #x }\n"
        "  sphere c { machine k: w { create process } flow a/c/k.create -> a/c/k.process #x }\n}\n"
    )
    _, diags = parse(source, "m.fm")
    assert [(d.message, d.span.start_line, d.span.start_col) for d in diags] == [
        ("arc label 'x' is already used", 4, 46)
    ]


def test_repeated_stages_are_reported_in_source_order():
    # Declared and implicit stages are kept apart on the machine; the
    # repeats are still reported in the order they are written.
    source = "thing w\nsphere s { machine m: w { implicit process create process create } }\n"
    _, diags = parse(source, "m.fm")
    assert [(d.code, d.message, d.span.start_line, d.span.start_col) for d in diags] == [
        (DUP, "stage 'process' is already declared on 'm'", 2, 12),
        (DUP, "stage 'create' is already declared on 'm'", 2, 12),
    ]

"""Parser diagnostics on malformed input, pinned case by case.

Each corpus model and scenario is mutated CASES times with the CLI fuzz
test's ``mutate`` (one seeded generator per file), and each mutant is
parsed.  The diagnostics of a case (code, message and the whole span, in
order) reduce to a short digest, compared with the one recorded in
``golden/parse_diagnostics.json``.  A change to any message, span, order
or count in the lexer, parser or binder shows as the first differing case.
Recovery paths the mutants seldom reach are pinned by hand-written cases
whose rendered diagnostics are spelled out below.

Regenerate the file only for an intended change to a diagnostic; from the
repository root:  PYTHONPATH=src python3 tests/test_parse_diagnostics.py
"""
from __future__ import annotations

import hashlib
import json
import pathlib
import random

import pytest
from test_cli_fuzz import CORPUS, mutate

from fmkit.parser import parse, parse_scenario

DIGESTS = pathlib.Path(__file__).resolve().parent / "golden" / "parse_diagnostics.json"
FILES = sorted(p.name for p in CORPUS.iterdir() if p.suffix in (".fm", ".fms"))
CASES = 150


def case_digests(name: str) -> list[str]:
    original = (CORPUS / name).read_text(encoding="utf-8")
    parse_file = parse if name.endswith(".fm") else parse_scenario
    rng = random.Random(name)
    out = []
    for _ in range(CASES):
        _, diags = parse_file(mutate(rng, original), name)
        rows = [
            [d.code, d.message, d.span.start_line, d.span.start_col, d.span.end_line, d.span.end_col]
            for d in diags
        ]
        out.append(hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16])
    return out


def all_digests() -> dict[str, list[str]]:
    return {name: case_digests(name) for name in FILES}


def test_mutant_diagnostics_match_the_recorded_digests():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(recorded) == FILES
    for name in FILES:
        for case, (got, want) in enumerate(zip(case_digests(name), recorded[name])):
            assert got == want, f"{name}, mutant {case}: diagnostics differ from the recorded ones"
        assert len(recorded[name]) == CASES


def test_mutants_reach_the_parser():
    """Most mutants carry diagnostics, and they are not all alike."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    clean = hashlib.sha256(b"[]").hexdigest()[:16]
    for name, digests in recorded.items():
        assert digests.count(clean) < CASES // 2, name
        assert len(set(digests)) > CASES // 3, name


# Recovery paths the mutants seldom reach: a bad default skipped to its ','
# past a stray ')', an expression and a sphere nested past MAX_NESTING,
# resynchronization inside a sphere, chronology arity, scenario skips.
RECOVERY_CASES = [
    ("f.fm", "thing w { a: int = x ) b: int, c: int = -y, d: int = (1, 2) }",
     [
         'f.fm:1:20: error[syntax-error]: expected a literal value',
         "f.fm:1:42: error[syntax-error]: expected a number, found 'y'",
         'f.fm:1:54: error[syntax-error]: expected a literal value',
     ]),
    ("f.fm", "thing w { a: int = 1 } sphere s { machine m: w { process assign { a = " + "(" * 205 + "1" + ")" * 205 + ", a = 2 } } }",
     [
         'f.fm:1:270: error[nesting-too-deep]: nesting is deeper than 200 levels',
     ]),
    ("f.fm", "sphere " + "s { sphere " * 205 + "}" * 206 + " thing v",
     [
         'f.fm:1:2201: error[nesting-too-deep]: nesting is deeper than 200 levels',
         "f.fm:1:2468: error[syntax-error]: expected thing, sphere, event, or behavior, found '}'",
     ]),
    ("f.fm", "thing w sphere s { machine m: w { process } junk flow s/m.process -> s/m. #x trigger s/m.process => s/m.process spawn { } when a b #y }",
     [
         "f.fm:1:45: error[syntax-error]: expected sphere, machine, flow, or trigger, found 'junk'",
         "f.fm:1:75: error[syntax-error]: expected a stage name, found 'x'",
         "f.fm:1:130: error[syntax-error]: expected sphere, machine, flow, or trigger, found 'b'",
         "f.fm:1:78: error[unresolved-reference]: unknown attribute 'a' in guard",
     ]),
    ("f.fm", "event e { region { #a #b } } behavior b { seq(e, choice(e), repeat(e, e) possible) } behavior c { interrupt(e, e) }",
     [
         'f.fm:1:50: error[syntax-error]: choice needs at least two terms',
         "f.fm:1:59: error[syntax-error]: expected ')', found ','",
         'f.fm:1:43: error[syntax-error]: seq needs at least two terms',
         "f.fm:1:59: error[syntax-error]: expected '}', found ','",
         "f.fm:1:59: error[syntax-error]: expected thing, sphere, event, or behavior, found ','",
         "f.fm:1:84: error[syntax-error]: expected thing, sphere, event, or behavior, found '}'",
         'f.fm:1:99: error[syntax-error]: interrupt takes exactly watcher, handler, body',
         "f.fm:1:1: error[unresolved-reference]: no arc labeled 'a'",
         "f.fm:1:1: error[unresolved-reference]: no arc labeled 'b'",
     ]),
    ("f.fms", "inject w at s/m.create tick 1 { a = 1, b = ) } inject",
     [
         'f.fms:1:44: error[syntax-error]: expected a literal value',
         "f.fms:1:54: error[syntax-error]: expected a thing-kind name, found 'EOF'",
     ]),
    ("f.fms", "bogus inject w at s.create tick x",
     [
         "f.fms:1:1: error[syntax-error]: expected 'inject', found 'bogus'",
         "f.fms:1:33: error[syntax-error]: expected a tick number, found 'x'",
     ]),
]


@pytest.mark.parametrize("file, source, rendered", RECOVERY_CASES)
def test_recovery_paths_keep_their_diagnostics(file, source, rendered):
    parse_file = parse if file.endswith(".fm") else parse_scenario
    assert [d.render() for d in parse_file(source, file)[1]] == rendered


# Recovery paths no mutant reaches: a top-level item whose head fails
# resynchronizes at the next item keyword, a machine's assign without its
# '{' ends the machine, a chronology head without its '(' ends the program,
# and skipping a too-deep guard stops at the first token that is no operand.
HEAD_CASES = [
    ("thing { a: int } thing w", [
        "f.fm:1:7: error[syntax-error]: expected a thing-kind name, found '{'",
        "f.fm:1:16: error[syntax-error]: expected thing, sphere, event, or behavior, found '}'",
    ]),
    ("thing w sphere s { machine m: w { process assign x = 1 } }", [
        "f.fm:1:50: error[syntax-error]: expected '{', found 'x'",
        "f.fm:1:50: error[syntax-error]: expected '}', found 'x'",
        "f.fm:1:50: error[syntax-error]: expected sphere, machine, flow, or trigger, found 'x'",
        "f.fm:1:58: error[syntax-error]: expected thing, sphere, event, or behavior, found '}'",
    ]),
    ("event 1 { region { #a } } thing w", [
        "f.fm:1:7: error[syntax-error]: expected an event name, found '1'",
        "f.fm:1:23: error[syntax-error]: expected thing, sphere, event, or behavior, found '}'",
        "f.fm:1:25: error[syntax-error]: expected thing, sphere, event, or behavior, found '}'",
    ]),
    ("behavior b seq thing w", [
        "f.fm:1:12: error[syntax-error]: expected '{', found 'seq'",
    ]),
    ("event e { region { } } behavior b { seq e }", [
        "f.fm:1:41: error[syntax-error]: expected '(', found 'e'",
        "f.fm:1:41: error[syntax-error]: expected '}', found 'e'",
        "f.fm:1:41: error[syntax-error]: expected thing, sphere, event, or behavior, found 'e'",
        "f.fm:1:43: error[syntax-error]: expected thing, sphere, event, or behavior, found '}'",
    ]),
    ("thing w { x: bool } sphere s { machine m: w { process release } flow s/m.process -> s/m.release when "
     + "not " * 201 + ") #x }", [
        "f.fm:1:898: error[nesting-too-deep]: nesting is deeper than 200 levels",
        "f.fm:1:906: error[syntax-error]: expected sphere, machine, flow, or trigger, found ')'",
    ]),
    ("thing w sphere s { machine m: w { process } flow s/m.process -> s/m.process when x < ) #y }", [
        "f.fm:1:86: error[syntax-error]: expected an expression, found ')'",
        "f.fm:1:45: error[unresolved-reference]: unknown attribute 'x' in guard",
    ]),
]


@pytest.mark.parametrize(
    "source, rendered", HEAD_CASES,
    ids=["kind-name", "assign-brace", "event-name", "behavior-brace", "chrono-paren", "deep-guard", "expression"],
)
def test_failed_heads_resynchronize(source, rendered):
    assert [d.render() for d in parse(source, "f.fm")[1]] == rendered


# Every failure point of an endpoint in a model arc, by its rendered
# diagnostic.  Where the token that breaks the path is 'trigger', the
# parser must stand on it: the sphere resynchronizes there and parses the
# trigger that follows, so the tree holds arc #t.
_HEAD = "thing w sphere s { machine m: w { create process } "
ENDPOINT_CASES = {
    "path-head": (_HEAD + "flow 1.create -> s/m.process }", [
        "f.fm:1:57: error[syntax-error]: expected an endpoint path, found '1'",
    ]),
    "empty-segment": (_HEAD + "flow s/ .create -> s/m.process }", [
        "f.fm:1:60: error[syntax-error]: expected a path segment, found '.'",
    ]),
    "missing-dot": (_HEAD + "flow s/m create -> s/m.process }", [
        "f.fm:1:61: error[syntax-error]: expected '.' before the stage, found 'create'",
    ]),
    "bad-stage": (_HEAD + "flow s/m.foo -> s/m.process }", [
        "f.fm:1:61: error[syntax-error]: expected a stage name, found 'foo'",
    ]),
    "target-string-stage": (_HEAD + 'trigger s/m.process => s/m."create" }', [
        "f.fm:1:79: error[syntax-error]: expected a stage name, found 'create'",
    ]),
    "slash-at-eof": (_HEAD + "flow s/m/", [
        "f.fm:1:61: error[syntax-error]: expected a path segment, found 'EOF'",
        "f.fm:1:61: error[syntax-error]: expected '}', found 'EOF'",
    ]),
    "dot-at-eof": (_HEAD + "flow s/m.process -> s/m.", [
        "f.fm:1:76: error[syntax-error]: expected a stage name, found 'EOF'",
        "f.fm:1:76: error[syntax-error]: expected '}', found 'EOF'",
    ]),
    "head-at-keyword": (_HEAD + "flow trigger s/m.process => s/m.create #t }", [
        "f.fm:1:57: error[syntax-error]: expected an endpoint path, found 'trigger'",
    ]),
    "segment-at-keyword": (_HEAD + "flow s/ trigger s/m.process => s/m.create #t }", [
        "f.fm:1:60: error[syntax-error]: expected a path segment, found 'trigger'",
    ]),
    "dot-at-keyword": (_HEAD + "flow s/m trigger s/m.process => s/m.create #t }", [
        "f.fm:1:61: error[syntax-error]: expected '.' before the stage, found 'trigger'",
    ]),
    "stage-at-keyword": (_HEAD + "flow s/m.trigger s/m.process => s/m.create #t }", [
        "f.fm:1:61: error[syntax-error]: expected a stage name, found 'trigger'",
    ]),
}


@pytest.mark.parametrize("case", ENDPOINT_CASES)
def test_endpoint_failures_keep_their_diagnostics(case):
    source, rendered = ENDPOINT_CASES[case]
    tree, diags = parse(source, "f.fm")
    assert [d.render() for d in diags] == rendered
    assert [arc.label for arc in tree.arcs] == (["t"] if case.endswith("-at-keyword") else [])

if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")

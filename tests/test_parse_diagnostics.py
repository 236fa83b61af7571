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


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")

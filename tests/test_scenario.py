"""Scenario (.fms) parsing on the model parser, against the old token walker.

``scenario_reference.parse_scenario`` is the walker fmkit used before.  On
well-formed scenarios both give equal ``Scenario`` values (spans take no
part in equality).  On malformed ones the parser never raises and reports
an error wherever the walker does; where it is stricter, the cases are
listed below.
"""
from __future__ import annotations

import pathlib
import sys

import pytest
import scenario_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmkit.ast import Injection, Scenario
from fmkit.model import STAGES_BY_NAME, Endpoint, Stage
from fmkit.parser import parse_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

NAMES = ["w", "cash", "start_request", "x1", "_k", "Fare"]


def assert_same_as_reference(source: str) -> Scenario:
    scenario, diags = parse_scenario(source, "s.fms")
    ref_scenario, ref_diags = scenario_reference.parse_scenario(source, "s.fms")
    assert diags == [] and ref_diags == []
    assert scenario == ref_scenario
    lines = source.split("\n")
    for injection in scenario.injections:
        span = injection.span
        assert span.file == "s.fms"
        assert lines[span.start_line - 1][span.start_col - 1:].startswith("inject")
    return scenario


def _string(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


literals = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.tuples(st.sampled_from(["", "-", "- "]), st.integers(0, 10**6), st.integers(0, 10**6))
    .map(lambda t: f"{t[0]}{t[1]}.{t[2]}"),
    st.text(alphabet='ab "\\.-', max_size=6).map(_string),
    st.sampled_from(["true", "false", "-0", "0.0"]),
)
attr_blocks = st.one_of(
    st.just(""),
    st.sampled_from(["{}", "{ }", "{ , }"]),
    st.tuples(
        st.lists(st.tuples(st.sampled_from(NAMES), literals), min_size=1, max_size=4),
        st.sampled_from([", ", " ", " , ", ",\n  "]),
        st.sampled_from(["", ","]),
    ).map(lambda t: "{ " + t[1].join(f"{n} = {v}" for n, v in t[0]) + t[2] + " }"),
)
injection_lines = st.builds(
    lambda kind, path, stage, tick, attrs: f"inject {kind} at {'/'.join(path)}.{stage} tick {tick} {attrs}",
    st.sampled_from(NAMES),
    st.lists(st.sampled_from(NAMES), min_size=1, max_size=3),
    st.sampled_from(sorted(STAGES_BY_NAME)),
    st.integers(0, 10**9),
    attr_blocks,
)
scenario_texts = st.lists(
    st.one_of(injection_lines, st.sampled_from(["", "// comment", "  "])), max_size=6
).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(scenario_texts)
@example("inject w at s/m.create tick 0 { x = -1.5, y = - 2, z = \"a\\\"b\" }")
def test_well_formed_scenarios_match_reference(source):
    assert_same_as_reference(source)


# Token fragments of scenario lines, with some that no scenario holds.
FRAGMENTS = [
    "inject", "at", "tick", "w", "cash", "s", "/", ".", "create", "process", "{", "}", ",", "=",
    "-", "1", "12", "1.5", '"s"', '"', "true", "false", "x", "\n", "#l", "->", "(", "²", "thing",
    "inject w at s/m.create tick 3", "inject w at s/m.create tick 3 {", "x = 1",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=30).map(" ".join))
@example("inject w at s/m.create tick 0 { x = 1")
@example("inject inject w at s/m.create tick 0")
@example("inject w at s/m.create tick 0 { x = 1 2 } inject w at s/m.create tick 1")
def test_malformed_scenarios_error_wherever_the_reference_does(source):
    scenario, diags = parse_scenario(source, "s.fms")
    ref_scenario, ref_diags = scenario_reference.parse_scenario(source, "s.fms")
    errors = [d for d in diags if d.is_error]
    if any(d.is_error for d in ref_diags):
        assert errors
    if not errors:
        assert scenario == ref_scenario
    for d in diags:
        assert d.span.file == "s.fms" and d.span.start_line >= 1 and d.span.start_col >= 1


# Where the parser is stricter than the walker: each input below was
# accepted by the walker without a diagnostic.
STRICTER = {
    "unclosed-attrs": ("inject w at s/m.create tick 0 { x = 1", "1:38: error[syntax-error]: expected '}', found 'EOF'"),
    "empty-segment": ("inject w at s/.create tick 0", "1:15: error[syntax-error]: expected a path segment, found '.'"),
    "string-stage": ('inject w at s/m."create" tick 0', "1:17: error[syntax-error]: expected a stage name, found 'create'"),
    "label-stage": ("inject w at s/m.#create tick 0", "1:17: error[syntax-error]: expected a stage name, found 'create'"),
    "infinite-dec": ("inject w at s/m.create tick 0 { x = " + "9" * 400 + ".0 }", "1:37: error[syntax-error]: number is out of range"),
}


@pytest.mark.parametrize("case", sorted(STRICTER))
def test_parser_is_stricter_than_the_reference(case):
    source, message = STRICTER[case]
    assert scenario_reference.parse_scenario(source, "s.fms")[1] == []
    scenario, diags = parse_scenario(source, "s.fms")
    assert [d.render() for d in diags] == [f"s.fms:{message}"]
    assert scenario == Scenario(())


def test_long_tick_is_out_of_range_not_a_traceback():
    _, diags = parse_scenario("inject w at s/m.create tick " + "9" * 5000, "s.fms")
    assert [d.message for d in diags] == ["number is out of range"]


def test_injection_span_does_not_take_part_in_equality():
    target = Endpoint(("s", "m"), Stage.CREATE)
    (parsed,) = parse_scenario("\n  inject w at s/m.create tick 2 { x = -1.5 }", "s.fms")[0].injections
    assert parsed == Injection(2, "w", target, (("x", -1.5),))
    assert (parsed.span.start_line, parsed.span.start_col, parsed.span.end_col) == (2, 3, 8)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.fms")), ids=lambda p: p.name)
def test_corpus_scenarios_match_reference(path):
    assert_same_as_reference(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", ["steam", "sessions"])
def test_benchmark_scenarios_match_reference(workload, tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    plan = workloads.generate(workload, 42, CORPUS, tmp_path)
    scenario = assert_same_as_reference((tmp_path / plan["scenario"]).read_text(encoding="utf-8"))
    assert len(scenario.injections) > 50

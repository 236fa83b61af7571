from __future__ import annotations

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dot_reference
from conftest import CORPUS, golden_text
from fuzz import random_model, random_valid_model

from fmkit import jsonl
from fmkit.behavior import BehaviorAutomaton, compile_program
from fmkit.canon import load_model
from fmkit.export import (
    TraceParseError,
    _dot_tokenize,
    behavior_to_dot,
    dot_check,
    model_to_dot,
    read_trace,
    write_trace,
)
from fmkit.model import Ref, Repeat, Seq
from fmkit.parser import MAX_NESTING
from fmkit.simulate import TraceEvent

ONE_MACHINE = (
    "thing w\n"
    "sphere s {\n"
    "  machine m: w { create release transfer }\n"
    "  flow s/m.create -> s/m.release #a\n"
    "  flow s/m.release -> s/m.transfer #b\n"
    "}\n"
)


def count_nodes_edges_clusters(dot: str):
    nodes = sum(1 for line in dot.splitlines() if "[" in line and "->" not in line and "label=" in line and "subgraph" not in line)
    edges = sum(1 for line in dot.splitlines() if "->" in line)
    clusters = dot.count("subgraph")
    return nodes, edges, clusters


def test_minimal_model_dot_counts():
    model, _ = load_model(ONE_MACHINE)
    dot = model_to_dot(model)
    nodes, edges, clusters = count_nodes_edges_clusters(dot)
    assert (nodes, edges, clusters) == (3, 2, 1)
    assert dot_check(dot) == []


def test_collapsed_dot_matches_authored_arc_count(tvm):
    dot = model_to_dot(tvm, show_implicit=False)
    authored = sum(1 for a in tvm.flows if a.is_chain_head) + len(tvm.triggers)
    edges = sum(1 for line in dot.splitlines() if "->" in line)
    assert edges == authored
    assert dot_check(dot) == []


def test_full_dot_node_count_formula(tvm):
    dot = model_to_dot(tvm, show_implicit=True)
    expected = sum(len(m.stages()) for _, m in tvm.machines())
    nodes = sum(
        1
        for line in dot.splitlines()
        if line.strip().startswith('"') and "->" not in line and "subgraph" not in line
    )
    assert nodes == expected
    assert dot_check(dot) == []


def test_cluster_nesting_matches_sphere_nesting(plant):
    dot = model_to_dot(plant)
    depth = 0
    max_cluster_depth = 0
    stack = 0
    for line in dot.splitlines():
        if "subgraph" in line:
            stack += 1
            max_cluster_depth = max(max_cluster_depth, stack)
        if line.strip() == "}":
            stack = max(0, stack - 1)
    sphere_depth = max(len(path) for path, _ in plant.spheres())
    assert max_cluster_depth == sphere_depth == 2
    assert depth == 0


def test_triggers_render_dashed(tvm):
    dot = model_to_dot(tvm)
    dashed = [line for line in dot.splitlines() if "style=dashed" in line and "->" in line]
    assert len(dashed) == len(tvm.triggers)


def test_corpus_dots_pass_grammar(tvm, plant, turbine):
    for model in (tvm, plant, turbine):
        for show in (True, False):
            assert dot_check(model_to_dot(model, show_implicit=show)) == []


def test_behavior_dot_seq():
    automaton = compile_program(Seq((Ref("a"), Ref("b"), Ref("c"))), {"a", "b", "c"})
    dot = behavior_to_dot(automaton)
    nodes = sum(1 for line in dot.splitlines() if "shape=" in line)
    edges = sum(1 for line in dot.splitlines() if "->" in line)
    assert (nodes, edges) == (4, 3)
    assert dot_check(dot) == []


def test_behavior_dot_interrupt_dashes_watcher(tvm):
    program = tvm.behavior("cash_purchase").program
    automaton = compile_program(program, {e.name for e in tvm.events})
    dot = behavior_to_dot(automaton)
    dashed = [line for line in dot.splitlines() if "style=dashed" in line]
    assert dashed
    assert all("cancel_sent" in line for line in dashed)
    assert dot_check(dot) == []


def test_behavior_dot_repeat_possible_shape():
    automaton = compile_program(Repeat(Ref("a"), possible=True), {"a"})
    dot = behavior_to_dot(automaton)
    # A loop back on the repeating state plus an accepting start that can
    # skip the body entirely.
    loops = [
        line for line in dot.splitlines()
        if "->" in line and line.split("->")[0].strip() == line.split("->")[1].split("[")[0].strip()
    ]
    assert loops
    assert automaton.start in automaton.accepting
    assert dot_check(dot) == []


# The DOT writers against the ones they replaced (dot_reference): the same
# text, byte for byte.  Random models are drawn as written, with every arc
# labeled, and again with their labels dropped, so the '@' labels
# canonicalization makes up are drawn too.
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.booleans())
def test_model_dot_matches_reference(seed, show_implicit, drop_labels):
    model, used = random_valid_model(seed)
    if drop_labels:
        model, _ = load_model(re.sub(r" #\w+", "", random_model(used)))
    assert model_to_dot(model, show_implicit) == dot_reference.model_to_dot(model, show_implicit)


@st.composite
def automata(draw):
    """Automata drawn directly: labels hold '"' and '\\', and some edges are
    a watcher's."""
    n_states = draw(st.integers(1, 12))
    state = st.integers(0, n_states - 1)
    label = st.text(alphabet='ab"\\.é ', min_size=1, max_size=4)
    transitions = draw(st.dictionaries(st.tuples(state, label), state, max_size=20))
    watcher_edges = draw(st.sets(st.sampled_from(sorted(transitions)))) if transitions else set()
    accepting = draw(st.sets(state))
    return BehaviorAutomaton(n_states, 0, transitions, frozenset(accepting), frozenset(watcher_edges))


@settings(max_examples=150, deadline=None)
@given(automata())
@example(BehaviorAutomaton(2, 0, {(0, 'a"b'): 1, (1, "c\\"): 0}, frozenset({1}), frozenset({(1, "c\\")})))
def test_behavior_dot_matches_reference(automaton):
    dot = behavior_to_dot(automaton)
    assert dot == dot_reference.behavior_to_dot(automaton)
    assert dot_check(dot) == []


def test_trace_round_trip_empty():
    assert write_trace([]) == ""
    assert read_trace("") == []


@pytest.mark.parametrize(
    "name", ["tvm_exact", "tvm_insufficient", "tvm_topup", "tvm_cancel", "plant_water"]
)
def test_trace_round_trip_goldens(name):
    text = golden_text(name)
    trace = read_trace(text)
    assert write_trace(trace) == text


def test_trace_missing_tick_field():
    with pytest.raises(TraceParseError) as exc:
        read_trace('{"action":"move","thing":1,"kind":"w","at":"s/m.release","arc":"a"}\n')
    assert exc.value.line_no == 1
    assert "tick" in str(exc.value)


def test_trace_bad_json_names_line():
    good = '{"action":"quiescent","arc":null,"at":null,"kind":null,"thing":null,"tick":0}'
    with pytest.raises(TraceParseError) as exc:
        read_trace(good + "\nnot json\n")
    assert exc.value.line_no == 2


events = st.builds(
    TraceEvent,
    tick=st.integers(0, 10_000),
    action=st.sampled_from(["spawn", "move", "consume", "trigger-fired", "blocked", "quiescent"]),
    thing=st.one_of(st.none(), st.integers(1, 999)),
    kind=st.one_of(st.none(), st.text(alphabet="abcdef_", min_size=1, max_size=8)),
    at=st.one_of(st.none(), st.text(alphabet="ab/._", min_size=1, max_size=12)),
    arc=st.one_of(st.none(), st.text(alphabet="0123456789.", min_size=1, max_size=6)),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(events, max_size=20))
def test_trace_round_trip_property(trace):
    trace.sort(key=lambda e: e.tick)
    assert read_trace(write_trace(trace)) == trace


# The writer renders lines from a fixed template; the record encoder is the
# reference it must match byte for byte.
any_events = st.builds(
    TraceEvent,
    tick=st.integers(),
    action=st.sampled_from(["spawn", "move", "consume", "trigger-fired", "blocked", "quiescent"]),
    thing=st.one_of(st.none(), st.integers()),
    kind=st.one_of(st.none(), st.text()),
    at=st.one_of(st.none(), st.text()),
    arc=st.one_of(st.none(), st.text()),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(any_events, max_size=20))
def test_write_trace_equals_record_encoder(trace):
    text = write_trace(trace)
    assert text == jsonl.lines(event.to_json() for event in trace)
    assert read_trace(text) == trace


def _loose_lines(trace, rnd):
    """Each record as a json.dumps line with shuffled keys, optional spaces
    after ':' and ',', raw or escaped non-ASCII, optional surrounding
    whitespace, CRLF or LF endings and blank lines in between."""
    out = []
    for event in trace:
        items = list(event.to_json().items())
        rnd.shuffle(items)
        separators = rnd.choice([(",", ":"), (", ", ": "), (",", ": ")])
        line = json.dumps(dict(items), separators=separators, ensure_ascii=rnd.random() < 0.5)
        line = rnd.choice(["", " ", "\t"]) + line + rnd.choice(["", " ", "\t "])
        out.append(line + rnd.choice(["\n", "\r\n"]))
        if rnd.random() < 0.2:
            out.append(rnd.choice(["\n", "  \r\n", "\t\n"]))
    return "".join(out)


@settings(max_examples=100, deadline=None)
@given(st.lists(any_events, max_size=12), st.randoms(use_true_random=False))
def test_read_trace_accepts_what_json_loads_accepts(trace, rnd):
    text = _loose_lines(trace, rnd)
    expected = [TraceEvent(**json.loads(line)) for line in re.split("\r\n|\n", text) if line.strip()]
    assert expected == trace
    assert read_trace(text) == expected


@pytest.mark.parametrize(
    "bad_line,message",
    [
        ('{"action":"move","arc":null,"at":"s/m.create', "Unterminated string"),
        ('{"action":"move","arc":"\\q","at":null,"kind":null,"thing":1,"tick":0}', "Invalid \\escape"),
        ('{"action":"move","arc":null,"at":null,"kind":null,"thing":1,"tick":0} x', "Extra data"),
    ],
    ids=["unterminated-string", "bad-escape", "extra-data"],
)
def test_read_trace_malformed_line_keeps_decoder_message(bad_line, message):
    good = '{"action":"quiescent","arc":null,"at":null,"kind":null,"thing":null,"tick":0}'
    with pytest.raises(TraceParseError) as exc:
        read_trace(f"{good}\n\n{bad_line}\n{good}\n")
    assert exc.value.line_no == 3
    assert f"line 3: not valid JSON: {message}" in str(exc.value)


@pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"], ids=["nel", "ls", "ps"])
def test_read_trace_keeps_raw_line_separator_inside_string(char):
    # Valid JSON may hold these raw inside a string; only \n, \r\n and \r
    # end a trace line.
    trace = [
        TraceEvent(0, "spawn", 1, f"k{char}", f"s/m{char}.create", None),
        TraceEvent(1, "move", 1, "k", "s/m.process", f"a{char}b"),
    ]
    text = "\r\n".join(json.dumps(e.to_json(), ensure_ascii=False) for e in trace) + "\r\n"
    assert text.count(char) == 3
    assert read_trace(text) == trace


@pytest.mark.parametrize("char", ["\x1c", "\x1d", "\x1e", "\x0b", "\x0c"])
def test_read_trace_raw_control_character_is_an_error_on_its_line(char):
    # A raw control character inside a JSON string is the decoder's error,
    # reported at the line that holds it rather than as a string cut short.
    good = '{"action":"quiescent","arc":null,"at":null,"kind":null,"thing":null,"tick":0}'
    bad = f'{{"action":"move","arc":"a{char}b","at":null,"kind":null,"thing":1,"tick":0}}'
    with pytest.raises(TraceParseError) as exc:
        read_trace(f"{good}\n\n{bad}\n{good}\n")
    assert exc.value.line_no == 3
    assert str(exc.value).startswith("line 3: not valid JSON: Invalid control character")


def test_trace_event_is_a_named_tuple():
    event = TraceEvent(1, "move", 2, "w", "s/m.release", "a")
    assert repr(event) == "TraceEvent(tick=1, action='move', thing=2, kind='w', at='s/m.release', arc='a')"
    assert event == (1, "move", 2, "w", "s/m.release", "a")
    assert hash(event) == hash((1, "move", 2, "w", "s/m.release", "a"))
    with pytest.raises(AttributeError):
        event.tick = 5


def test_dot_check_rejects_malformed():
    assert dot_check("graph { }")
    assert dot_check("digraph { unbalanced ")
    assert dot_check('digraph { "a" -> ; }')


@pytest.mark.parametrize(
    "document, problems",
    [
        ('digraph { "a', ["unterminated quoted string"]),
        ('digraph { "a\\" }', ["unterminated quoted string"]),
        ("digraph { a -- b; }", ["unexpected character '-' in DOT output"]),
        ("digraph { a; }\x0b", ["unexpected character '\\x0b' in DOT output"]),
        ('digraph { "a" -> ; }', ["expected ID, found ;", "expected }, found ;"]),
        ("digraph { a }", ["expected ;, found }"]),
        ("digraph { unbalanced ", ["expected ;, found EOF", "expected }, found EOF"]),
        ('digraph { "" [x=1] "" }', ["expected ;, found ID", "expected }, found ID"]),
        ("digraph { a [label=]; }", ["expected a value after '='", "expected ;, found ]", "expected }, found ]"]),
        ("digraph { rankdir=; }", ["expected a value after '='", "expected }, found ;"]),
        ("digraph { subgraph { ; } }", ["expected ID, found ;", "expected }, found ;", "expected ID, found ;", "expected }, found ;"]),
        ("graph { }", ["document must start with 'digraph'"]),
        ("", ["document must start with 'digraph'"]),
        ("digraph { } x", ["trailing content after closing brace"]),
        ("digraph g { a -> b -> c [x=y, z=w]; rankdir=LR; subgraph s { q; } }", []),
        ("digraph {" + " subgraph {" * 2000 + " }" * 2001, ["subgraphs nest deeper than 200 levels"]),
        ("digraph {" + " subgraph { a -> ;" * 201 + " }" * 202, ["expected ID, found ;", "expected }, found ;"] * 2),
        ("digraph {" + " subgraph { a;" * 201 + " }" * 202, ["subgraphs nest deeper than 200 levels"]),
    ],
)
def test_dot_check_names_each_problem(document, problems):
    assert dot_check(document) == problems


def test_dot_check_names_what_an_attribute_list_lacks():
    # Pinned here, not left to the random documents below, so that every
    # run of tier-1 takes this path.
    assert dot_check("digraph { a [;]; }") == ["expected ID, found ;", "expected ID, found ]", "expected }, found ]"]
    assert dot_check("digraph { a [") == ["expected ], found EOF", "expected ;, found EOF", "expected }, found EOF"]


# DOT pieces: keywords, symbols, IDs with dots, quotes and escaped quotes, a
# lone backslash, blanks (only ' \t\r\n' are blanks in the checker) and
# characters outside ASCII that are letters or digits to str.isalnum()
# ('é', '²', '٣') or neither ('\xa0', '·').
DOT_FRAGMENTS = (
    ["digraph", "subgraph", "label", "a", "x.1", "_", "s0", "1.5", "."]
    + ["{", "}", "[", "]", ";", ",", "=", "->", "-", ">", '"', '\\"', "\\", '"a b"', '"\\\\"', '""']
    + [" ", "\n", "\t", "\r", "\x0b", "é", "²", "٣", "\xa0", "·", "#"]
)
dot_fragments = st.tuples(
    st.sampled_from(["", "digraph {", "digraph g {", "digraph", "graph {"]),
    st.lists(st.sampled_from(DOT_FRAGMENTS), max_size=30).map("".join),
    st.sampled_from(["", "}", "}\n", "} x", " \n "]),
).map("".join)


def assert_dot_check_same_as_reference(text: str) -> None:
    problems: list[str] = []
    ref_problems: list[str] = []
    assert _dot_tokenize(text, problems) == dot_reference._dot_tokenize(text, ref_problems)
    assert problems == ref_problems
    assert dot_check(text) == dot_reference.dot_check(text)


@settings(max_examples=600, deadline=None)
@given(dot_fragments)
@example('digraph { "a\\"b" -> "c\\\\" [label="é²"]; }')
@example('digraph { "a" -> "b\\')
@example('digraph { a; }\\')
@example('digraph { "a\\\nb" -> .c; }')
@example("digraph { subgraph { a -> ; } b; }")
def test_dot_check_matches_reference(text):
    assert_dot_check_same_as_reference(text)


def test_dot_check_matches_reference_up_to_the_nesting_limit():
    # The reference recurses once per level with no limit of its own, so
    # the two are compared only up to MAX_NESTING subgraphs.
    for depth in (1, 2, MAX_NESTING):
        text = "digraph {" + " subgraph s { a;" * depth + " b -> c; }" + " }" * depth
        assert dot_check(text) == dot_reference.dot_check(text) == []
        broken = text.replace("b -> c", "b -> ")
        assert dot_check(broken) == dot_reference.dot_check(broken) != []


@pytest.mark.parametrize("name", ["tvm", "plant", "turbine"])
def test_dot_check_matches_reference_on_corpus_diagrams(name):
    model, _ = load_model((CORPUS / f"{name}.fm").read_text(encoding="utf-8"))
    for show in (True, False):
        assert_dot_check_same_as_reference(model_to_dot(model, show_implicit=show))
    if model.behaviors:
        events = {e.name for e in model.events}
        assert_dot_check_same_as_reference(behavior_to_dot(compile_program(model.behaviors[0].program, events)))

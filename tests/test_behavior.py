from __future__ import annotations

import time

import automaton_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, load_corpus_scenario
from fuzz import random_tvm_scenario

from fmkit.behavior import (
    MAX_STATES,
    BehaviorError,
    Occurrence,
    Violation,
    check,
    compile_program,
    detect_occurrences,
    enforce,
)
from fmkit.canon import CanonError, canonicalize, load_model
from fmkit.export import read_trace, write_trace
from fmkit.model import Choice, EventDef, Interrupt, Par, Ref, Repeat, Seq, subdiagram
from fmkit.parser import parse
from fmkit.simulate import SimConfig, run


def tvm_with_event(name, labels):
    """tvm.fm with one more event declared over the given arc labels."""
    region = " ".join(f"#{label}" for label in labels)
    return (CORPUS / "tvm.fm").read_text() + f"\nevent {name} {{ region {{ {region} }} }}\n"


def load_event(name, labels):
    model, diags = load_model(tvm_with_event(name, labels), "tvm.fm")
    assert model is not None, [d.render() for d in diags]
    return model.event(name)


def tvm_program(tvm):
    return tvm.behavior("cash_purchase").program


def run_scenario(tvm, name, gate=None, ticks=200):
    scenario = load_corpus_scenario(tvm, name)
    return run(tvm, scenario, SimConfig(max_ticks=ticks, gate=gate))


# Events ---------------------------------------------------------------------


def test_build_event_cash_region():
    event = load_event("cash_again", ["23"])
    assert event.region.flow_labels == {"23", "23.1", "23.2"}


def test_build_event_empty_region():
    model, diags = load_model(tvm_with_event("nothing", []), "tvm.fm")
    assert model is None
    assert [d.code for d in diags] == ["empty-region"]


def test_build_event_unknown_label():
    # The binder reports a label no arc declares before canonicalization
    # runs; canonicalizing the unbound tree reports it as unknown-label.
    source = tvm_with_event("ghost", ["999"])
    model, diags = load_model(source, "tvm.fm")
    assert model is None
    assert [d.code for d in diags] == ["unresolved-reference"]
    with pytest.raises(CanonError) as exc:
        canonicalize(parse(source, "tvm.fm")[0])
    assert exc.value.diagnostic.code == "unknown-label"


def test_build_event_ticket_region():
    event = load_event("ticket_again", ["27", "28"])
    assert "27" in event.region.arc_labels  # the trigger
    assert event.region.flow_labels == {"28", "28.1", "28.2", "28.3"}


# Occurrence detection ---------------------------------------------------------


def test_happy_path_occurrence_order(tvm):
    trace = run_scenario(tvm, "tvm_exact")
    occs = detect_occurrences(trace, tvm.events)
    assert [o.event for o in occs] == ["insert_prompt", "cash_in", "cash_check", "ticket_out"]
    starts = [o.start for o in occs]
    assert starts == sorted(starts)


def test_no_cash_movement_no_occurrence(tvm):
    scenario = load_corpus_scenario(tvm, "tvm_exact")
    # Cut the run before the cash injection: no cash_in can occur.
    trace = run(tvm, scenario, SimConfig(max_ticks=30))
    occs = detect_occurrences(trace, tvm.events)
    assert "cash_in" not in [o.event for o in occs]


def test_double_insertion_two_occurrences(tvm):
    trace = run_scenario(tvm, "tvm_topup")
    occs = detect_occurrences(trace, tvm.events)
    assert [o.event for o in occs].count("cash_in") == 2
    assert [o.event for o in occs].count("cash_check") == 2


def test_detection_stable_under_reserialization(tvm):
    trace = run_scenario(tvm, "tvm_cancel")
    again = read_trace(write_trace(trace))
    assert detect_occurrences(again, tvm.events) == detect_occurrences(trace, tvm.events)


# Compilation ------------------------------------------------------------------


def test_compile_seq_linear_automaton():
    automaton = compile_program(Seq((Ref("a"), Ref("b"), Ref("c"))), {"a", "b", "c"})
    assert automaton.n_states == 4
    assert len(automaton.transitions) == 3
    assert automaton.accepts(["a", "b", "c"])
    assert not automaton.accepts(["a", "c"])


def test_compile_unresolved_ref():
    with pytest.raises(BehaviorError) as exc:
        compile_program(Ref("ghost"), {"a"})
    assert exc.value.code == "unresolved-ref"


def test_compile_choice_with_nested_repeat():
    # Either a top-up loop after the first check, or a straight ticket.
    program = Interrupt(
        Ref("V6"),
        Ref("V7"),
        Seq(
            (
                Ref("V1"),
                Ref("V2"),
                Ref("V3"),
                Choice(
                    (
                        Seq((Ref("V4"), Repeat(Seq((Ref("V2"), Ref("V3"))), possible=True))),
                        Ref("V5"),
                    )
                ),
            )
        ),
    )
    names = {"V1", "V2", "V3", "V4", "V5", "V6", "V7"}
    automaton = compile_program(program, names)
    assert automaton.accepts(["V1", "V2", "V3", "V5"])
    assert automaton.accepts(["V1", "V2", "V3", "V4"])
    assert automaton.accepts(["V1", "V2", "V3", "V4", "V2", "V3"])
    assert automaton.accepts(["V1", "V2", "V6", "V7"])
    assert not automaton.accepts(["V1", "V2", "V3", "V5", "V4"])


def test_compile_repeat_possible_accepts_empty():
    automaton = compile_program(Repeat(Ref("a"), possible=True), {"a"})
    assert automaton.accepts([])
    assert automaton.accepts(["a"])
    assert automaton.accepts(["a", "a", "a"])


def test_compile_repeat_without_possible_needs_one():
    automaton = compile_program(Repeat(Ref("a"), possible=False), {"a"})
    assert not automaton.accepts([])
    assert automaton.accepts(["a"])
    assert automaton.accepts(["a", "a"])


def test_compile_par_interleaves():
    automaton = compile_program(Par((Seq((Ref("a"), Ref("b"))), Ref("c"))), {"a", "b", "c"})
    for word in (["a", "b", "c"], ["a", "c", "b"], ["c", "a", "b"]):
        assert automaton.accepts(word), word
    assert not automaton.accepts(["b", "a", "c"])
    assert not automaton.accepts(["a", "b"])


def test_choice_exclusivity():
    program = Choice((Seq((Ref("a"), Ref("b"))), Seq((Ref("c"), Ref("d")))))
    automaton = compile_program(program, {"a", "b", "c", "d"})
    assert automaton.accepts(["a", "b"])
    assert automaton.accepts(["c", "d"])
    # No accepted word mixes children of one choice: neither word is even a
    # prefix, the automaton has no step for its second event.
    for first, second in (("a", "d"), ("c", "b")):
        state = automaton.step(automaton.start, first)
        assert state is not None and automaton.step(state, second) is None


# The subset construction against the scan-all-edges reference compiler.

EVENT_NAMES = ("a", "b", "c", "d")
MAX_LEAVES = 8  # a par of n events has 2**n states
# The reference is quadratic in the states: 0.3 s at 1,024, 6 s at 4,096.
REFERENCE_STATES = 2048


@st.composite
def chrono_trees(draw, depth: int = 4):
    """Random chronology trees of every node kind, at most ``depth`` deep;
    a budget of about MAX_LEAVES event references keeps par products small."""
    budget = [MAX_LEAVES]

    def node(level: int):
        kind = "ref" if level == depth or budget[0] <= 1 else draw(
            st.sampled_from(("ref", "seq", "choice", "par", "repeat", "interrupt"))
        )
        if kind == "ref":
            budget[0] -= 1
            return Ref(draw(st.sampled_from(EVENT_NAMES)))
        if kind == "repeat":
            return Repeat(node(level + 1), draw(st.booleans()))
        if kind == "interrupt":
            return Interrupt(node(level + 1), node(level + 1), node(level + 1))
        children = tuple(node(level + 1) for _ in range(draw(st.integers(2, 3))))
        return {"seq": Seq, "choice": Choice, "par": Par}[kind](children)

    return node(0)


@settings(max_examples=200, deadline=None)
@given(chrono_trees())
def test_compile_matches_scan_all_edges_reference(program):
    try:
        automaton = compile_program(program, EVENT_NAMES)
    except BehaviorError as exc:
        assert exc.code == "behavior-too-large"
        return
    if automaton.n_states <= REFERENCE_STATES:
        assert automaton == automaton_reference.compile_program(program, EVENT_NAMES)
    expected: dict[int, list[str]] = {}
    for state, label in sorted(automaton.transitions):
        expected.setdefault(state, []).append(label)
    for state in range(automaton.n_states):
        assert automaton.allowed(state) == expected.get(state, [])


def test_compile_stops_at_the_state_limit():
    # Found by the property above: 833,863 states and 33 s without a limit.
    a, b, c, d = (Ref(name) for name in "abcd")
    program = Repeat(Par((Repeat(Interrupt(c, d, b)), Par((Par((d, b, d)), Repeat(a, True), c)), a)), True)
    start = time.perf_counter()
    with pytest.raises(BehaviorError) as exc:
        compile_program(program, EVENT_NAMES)
    assert time.perf_counter() - start < 20
    assert exc.value.code == "behavior-too-large"
    assert str(exc.value) == f"the behavior's automaton needs more than {MAX_STATES} states"


def test_static_par_of_five_seqs_pins_states_and_transitions():
    program = Par(tuple(Seq(tuple(Ref(f"e{b}{k}") for k in range(3))) for b in range(5)))
    automaton = compile_program(program)
    assert automaton.n_states == 4 ** 5 == 1024
    assert len(automaton.transitions) == 3840
    assert automaton == automaton_reference.compile_program(program)


# Conformance ------------------------------------------------------------------


def test_happy_trace_conforms(tvm):
    trace = run_scenario(tvm, "tvm_exact")
    verdict = check(trace, tvm.events, tvm_program(tvm))
    assert verdict.conforms and verdict.completed
    assert [o.event for o in verdict.occurrences] == [
        "insert_prompt", "cash_in", "cash_check", "ticket_out",
    ]


def test_swapped_occurrences_violate(tvm):
    trace = run_scenario(tvm, "tvm_exact")
    occs = detect_occurrences(trace, tvm.events)
    v1 = next(o for o in occs if o.event == "insert_prompt")
    v2 = next(o for o in occs if o.event == "cash_in")
    # Rewrite ticks so the cash movement precedes the prompt entirely.
    shift = v2.start - v1.start
    mutated = []
    for e in trace:
        if e.action in ("move", "spawn") and e.kind == "cash_prompt":
            mutated.append(type(e)(e.tick + 100, e.action, e.thing, e.kind, e.at, e.arc))
        else:
            mutated.append(e)
    mutated.sort(key=lambda e: e.tick)
    verdict = check(mutated, tvm.events, tvm_program(tvm))
    assert not verdict.conforms
    assert verdict.first_violation is not None
    assert verdict.first_violation.observed == "cash_in"
    assert verdict.first_violation.expected == ("cancel_sent", "insert_prompt")
    assert shift > 0


def test_cancel_trace_conforms_via_interrupt(tvm):
    trace = run_scenario(tvm, "tvm_cancel")
    verdict = check(trace, tvm.events, tvm_program(tvm))
    assert verdict.conforms and verdict.completed
    assert [o.event for o in verdict.occurrences][-2:] == ["cancel_sent", "cash_back"]


def test_incomplete_trace_is_not_a_violation(tvm):
    trace = run_scenario(tvm, "tvm_insufficient")
    verdict = check(trace, tvm.events, tvm_program(tvm))
    assert verdict.conforms and not verdict.completed


def test_verdict_json_shape(tvm):
    trace = run_scenario(tvm, "tvm_exact")
    payload = check(trace, tvm.events, tvm_program(tvm)).to_json()
    assert set(payload) == {"conforms", "first_violation", "occurrences"}
    assert payload["conforms"] is True and payload["first_violation"] is None


# Enforcement ------------------------------------------------------------------


def test_gate_blocks_ticket_before_processing(tvm):
    from fmkit.model import Endpoint, Stage
    from fmkit.simulate import Injection, Scenario

    # Cash arrives long before the prompt; enforcement must still order
    # the session correctly and the ticket only after the cash check.
    scenario = Scenario(
        (
            Injection(0, "start_request", Endpoint(("passenger", "start"), Stage.CREATE), ()),
            Injection(1, "cash", Endpoint(("passenger", "cash"), Stage.CREATE), (("amount", 5), ("fare", 5))),
        )
    )
    gate = enforce(tvm, tvm_program(tvm))
    trace = run(tvm, scenario, SimConfig(max_ticks=200, gate=gate))
    verdict = check(trace, tvm.events, tvm_program(tvm))
    assert verdict.conforms and verdict.completed
    occs = {o.event: o for o in verdict.occurrences}
    assert occs["ticket_out"].start > occs["cash_check"].end
    assert occs["cash_in"].start >= occs["insert_prompt"].end


def test_gate_quiescent_scenario_no_violation(tvm):
    from fmkit.simulate import Scenario

    gate = enforce(tvm, tvm_program(tvm))
    trace = run(tvm, Scenario(()), SimConfig(max_ticks=50, gate=gate))
    verdict = check(trace, tvm.events, tvm_program(tvm))
    assert verdict.conforms
    assert not verdict.completed
    assert verdict.occurrences == ()


def test_enforced_cancel_releases_cash_only_after_signal(tvm):
    gate = enforce(tvm, tvm_program(tvm))
    trace = run_scenario(tvm, "tvm_cancel", gate=gate)
    verdict = check(trace, tvm.events, tvm_program(tvm))
    assert verdict.conforms
    occs = {o.event: o for o in verdict.occurrences}
    assert occs["cash_back"].start > occs["cancel_sent"].end


def test_interrupt_cancels_body_regions(tvm):
    gate = enforce(tvm, tvm_program(tvm))
    trace = run_scenario(tvm, "tvm_cancel", gate=gate)
    occs = detect_occurrences(trace, tvm.events)
    watcher_end = next(o.end for o in occs if o.event == "cancel_sent")
    body_labels = set()
    for name in ("insert_prompt", "cash_in", "cash_check", "more_prompt", "ticket_out"):
        body_labels |= tvm.event(name).region.arc_labels
    assert not [e for e in trace if e.tick > watcher_end and e.arc in body_labels]


def test_enforcement_sound_on_random_scenarios(tvm):
    program = tvm_program(tvm)
    for seed in range(25):
        scenario = random_tvm_scenario(tvm, seed)
        gate = enforce(tvm, program)
        trace = run(tvm, scenario, SimConfig(max_ticks=120, gate=gate))
        verdict = check(trace, tvm.events, program)
        assert verdict.conforms, (seed, verdict.first_violation)


def test_zero_repetition_accepted_by_possible_repeat(tvm):
    trace = run_scenario(tvm, "tvm_exact")
    verdict = check(trace, tvm.events, tvm_program(tvm))
    assert verdict.completed
    assert "more_prompt" not in [o.event for o in verdict.occurrences]


def test_gate_permits_matches_allowed_labels(tvm):
    gate = enforce(tvm, tvm_program(tvm))
    automaton = gate.automaton
    owners: dict[str, set[str]] = {}
    for e in tvm.events:
        for label in e.region.arc_labels:
            owners.setdefault(label, set()).add(e.name)
    labels = sorted({a.label for a in tvm.flows} | {t.label for t in tvm.triggers}) + ["no-such-arc"]
    for state in range(automaton.n_states):
        gate.state = state
        allowed = set(automaton.allowed(state))
        for label in labels:
            assert gate.permits(label) == (label not in owners or bool(owners[label] & allowed))
    gate.first_violation = Violation(0, (), "ticket_out")
    assert [label for label in labels if gate.permits(label)] == [l for l in labels if l not in owners]


def naive_occurrences(trace, events):
    """Every event tried on every record: what the indexed scanner must find."""
    progress: dict = {}
    found = []
    for record in trace:
        if record.thing is None:
            continue
        for edef in events:
            region = edef.region
            if record.action == "move":
                touched = record.arc in region.flow_labels
            elif record.action == "trigger-fired":
                touched = record.arc in region.arc_labels
            elif record.action in ("spawn", "consume"):
                touched = record.at in {str(ep) for ep in region.stages}
            else:
                touched = False
            if not touched:
                continue
            key = (edef.name, record.thing)
            start, seen = progress.get(key, (record.tick, frozenset()))
            if record.action == "move":
                seen = seen | {record.arc}
            progress[key] = (start, seen)
            if region.flow_labels and seen >= region.flow_labels:
                found.append(Occurrence(edef.name, start, record.tick, record.thing))
                del progress[key]
    return found


def test_indexed_scanner_matches_naive_scan(tvm):
    # The corpus events plus overlapping ones and one holding a trigger arc.
    events = list(tvm.events) + [
        EventDef("wide", subdiagram(tvm, ["20", "21", "23", "24"])),
        EventDef("info", subdiagram(tvm, ["9", "10"])),
        EventDef("quote", subdiagram(tvm, ["16", "17", "18"])),
    ]
    total = 0
    for seed in range(40):
        trace = run(tvm, random_tvm_scenario(tvm, seed), SimConfig(max_ticks=120))
        expected = naive_occurrences(trace, events)
        assert detect_occurrences(trace, events) == expected, seed
        total += len(expected)
    assert total > 0


# One run for conform and enforce ----------------------------------------------

# One record (the move along #x) completes both events.  They are declared
# zeta first, so the scanner gives zeta first, and seq(alpha, zeta) is
# violated by that record whichever order a gate might pick.
TWO_EVENTS_ONE_ARC = """\
thing w
sphere s { machine a: w { create release } flow s/a.create -> s/a.release #x }
event zeta { region { #x } }
event alpha { region { #x } }
behavior go { seq(alpha, zeta) }
"""


def two_events_one_arc(injections: int):
    """The model above, its program, and `injections` things at tick 0."""
    from fmkit.parser import parse_scenario
    from fmkit.simulate import check_scenario

    model, diags = load_model(TWO_EVENTS_ONE_ARC, "two.fm")
    assert model is not None, [d.render() for d in diags]
    scenario, diags = parse_scenario("inject w at s/a.create tick 0\n" * injections, "two.fms")
    assert not diags and not check_scenario(model, scenario)
    return model, model.behavior("go").program, scenario


def test_gate_verdict_is_check_when_one_record_completes_two_events():
    model, program, scenario = two_events_one_arc(1)
    gate = enforce(model, program)
    trace = run(model, scenario, SimConfig(max_ticks=20, gate=gate))
    verdict = gate.verdict()
    assert verdict == check(trace, model.events, program)
    assert [o.event for o in verdict.occurrences] == ["zeta", "alpha"]
    assert verdict.first_violation.to_json() == {"tick": 0, "expected": ["alpha"], "observed": "zeta"}
    assert not verdict.conforms and not verdict.completed


def test_gate_verdict_is_check_on_random_scenarios(tvm):
    program = tvm_program(tvm)
    for seed in range(50):
        gate = enforce(tvm, program)
        trace = run(tvm, random_tvm_scenario(tvm, seed), SimConfig(max_ticks=120, gate=gate))
        assert gate.verdict() == check(trace, tvm.events, program), seed


class RecordingGate:
    """Passes every call through to an enforcement gate and records, for
    each `permits`, the answer, the arc and whether the gate's run had
    violated yet, with the labels its automaton allowed at that moment."""

    def __init__(self, gate) -> None:
        self.gate = gate
        self.calls: list[tuple[str, bool, bool, frozenset]] = []

    def permits(self, arc_label: str) -> bool:
        violated = self.gate.first_violation is not None
        allowed = frozenset(self.gate.automaton.allowed(self.gate.state))
        answer = self.gate.permits(arc_label)
        self.calls.append((arc_label, answer, violated, allowed))
        return answer

    def observe(self, event) -> None:
        self.gate.observe(event)


def assert_gate_withholds_only_what_it_must(model, calls) -> None:
    """Each recorded `permits` answer is the supervisor rule: an arc no
    event owns passes; an owned arc passes while one of its owners is
    allowed, and never after the run's first violation."""
    owners: dict[str, set[str]] = {}
    for e in model.events:
        for label in e.region.arc_labels:
            owners.setdefault(label, set()).add(e.name)
    for label, answer, violated, allowed in calls:
        expected = label not in owners or (not violated and bool(owners[label] & allowed))
        assert answer == expected, (label, violated, sorted(allowed))


def test_gate_withholds_an_arc_only_when_no_owner_is_allowed(tvm):
    # A supervisor disables only what it must (Ramadge and Wonham, 1989).
    program = tvm_program(tvm)
    calls = []
    for seed in range(50):
        gate = RecordingGate(enforce(tvm, program))
        run(tvm, random_tvm_scenario(tvm, seed), SimConfig(max_ticks=120, gate=gate))
        assert gate.calls, seed
        calls += gate.calls
    assert_gate_withholds_only_what_it_must(tvm, calls)
    assert any(answer for _, answer, _, _ in calls) and not all(answer for _, answer, _, _ in calls)
    # No enforced TVM run violates; here the first thing's move violates and
    # the second thing's move along the same arc is then withheld.
    model, program, scenario = two_events_one_arc(2)
    gate = RecordingGate(enforce(model, program))
    run(model, scenario, SimConfig(max_ticks=20, gate=gate))
    assert_gate_withholds_only_what_it_must(model, gate.calls)
    assert ("x", False, True, frozenset({"alpha"})) in gate.calls

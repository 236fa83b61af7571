"""``behavior.detect_occurrences`` against ``occurrence_reference``, the
detector written from the definition: on simulator traces of the corpus
and of random models, with the models' own events and with events drawn
over their arcs, and on random record sequences that no simulator writes
(moves after a thing's consume, a thing id used again after its consume,
records naming no thing)."""
from __future__ import annotations

import functools

import occurrence_reference
import pytest
import trace_reference
from conftest import golden_text, load_corpus_model
from fuzz import random_scenario, random_tvm_scenario, random_valid_model
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmkit.behavior import Occurrence, detect_occurrences
from fmkit.canon import load_model
from fmkit.model import Endpoint, EventDef, Region, Stage, subdiagram
from fmkit.simulate import SimConfig, TraceEvent, parse_scenario, run

GOLDEN_RUNS = [("tvm", "tvm_exact"), ("tvm", "tvm_insufficient"), ("tvm", "tvm_topup"), ("tvm", "tvm_cancel"),
               ("plant", "plant_water")]
FUZZ_SEEDS = range(60)
FUZZ_TICKS = 40
TVM_SEEDS = range(20)


@functools.cache
def corpus_model(name: str):
    return load_corpus_model(name)


@functools.cache
def fuzz_case(seed: int):
    model, _ = random_valid_model(seed)
    return model, run(model, random_scenario(model, seed), SimConfig(max_ticks=FUZZ_TICKS))


@functools.cache
def tvm_case(seed: int):
    tvm = corpus_model("tvm")
    return tvm, run(tvm, random_tvm_scenario(tvm, seed), SimConfig(max_ticks=120))


def labels_of(model) -> list[str]:
    return sorted([a.label for a in model.flows] + [t.label for t in model.triggers])


def drawn_events(draw, model) -> list[EventDef]:
    """Up to four events over the model's arcs, each of one to four labels."""
    labels = labels_of(model)
    regions = draw(st.lists(st.lists(st.sampled_from(labels), min_size=1, max_size=4), min_size=1, max_size=4))
    return [EventDef(f"e{i}", subdiagram(model, region)) for i, region in enumerate(regions)]


def assert_same(trace, events) -> list[Occurrence]:
    expected = occurrence_reference.detect_occurrences(trace, events)
    assert detect_occurrences(trace, events) == expected
    return expected


@pytest.mark.parametrize("model_name, scenario", GOLDEN_RUNS)
def test_scanner_matches_reference_on_goldens_with_their_own_events(model_name, scenario):
    model = corpus_model(model_name)
    found = assert_same(trace_reference.read_trace(golden_text(scenario)), model.events)
    assert bool(found) == bool(model.events)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_scanner_matches_reference_on_corpus_traces(data):
    source = data.draw(st.sampled_from(["golden", "tvm-random"]))
    if source == "golden":
        model_name, scenario = data.draw(st.sampled_from(GOLDEN_RUNS))
        model, trace = corpus_model(model_name), trace_reference.read_trace(golden_text(scenario))
    else:
        model, trace = tvm_case(data.draw(st.sampled_from(TVM_SEEDS)))
    events = drawn_events(data.draw, model)
    if data.draw(st.booleans()):
        events = list(model.events) + events
    assert_same(trace, events)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_scanner_matches_reference_on_random_models(data):
    model, trace = fuzz_case(data.draw(st.sampled_from(FUZZ_SEEDS)))
    assert_same(trace, drawn_events(data.draw, model))


# Random record sequences over a small alphabet: three flows, two triggers,
# three stages and three thing ids, so ids recur after their consume.  Most
# records are drawn in the shape their action has in a trace (a move names a
# flow, a spawn a stage), so they touch events; the rest are drawn field by
# field, in any shape.
FLOWS = ["f1", "f2", "f3"]
TRIGGERS = ["t1", "t2"]
STAGES = [Endpoint(("s", "a"), Stage.CREATE), Endpoint(("s", "a"), Stage.PROCESS), Endpoint(("s", "b"), Stage.PROCESS)]
ACTIONS = ["spawn", "move", "consume", "trigger-fired", "blocked", "quiescent"]
ats = st.sampled_from([None, "s/x.create"] + [str(stage) for stage in STAGES])
arcs = st.sampled_from([None, "f9"] + FLOWS + TRIGGERS)
ticks = st.integers(0, 20)
things = st.sampled_from([1, 2, 3, 1, 2, 3, None])  # mostly a thing

records = st.one_of(
    st.builds(TraceEvent, ticks, st.just("move"), things, st.just("w"), ats, st.sampled_from(FLOWS)),
    st.builds(TraceEvent, ticks, st.sampled_from(["spawn", "consume"]), things, st.just("w"), ats, st.none()),
    st.builds(TraceEvent, ticks, st.just("trigger-fired"), things, st.just("w"), ats, st.sampled_from(TRIGGERS + FLOWS)),
    st.builds(TraceEvent, ticks, st.sampled_from(ACTIONS), things, st.sampled_from([None, "w"]), ats, arcs),
)
regions = st.builds(
    lambda flows, triggers, stages: Region(frozenset(flows + triggers), frozenset(stages), frozenset(flows)),
    st.lists(st.sampled_from(FLOWS), min_size=1, unique=True),
    st.lists(st.sampled_from(TRIGGERS), unique=True),
    st.lists(st.sampled_from(STAGES), unique=True),
)
event_lists = st.lists(regions, min_size=1, max_size=4).map(
    lambda rs: [EventDef(f"e{i}", region) for i, region in enumerate(rs)]
)


def rec(tick, action, thing, at=None, arc=None) -> TraceEvent:
    return TraceEvent(tick, action, thing, "w", at, arc)


# Thing 1 is spawned, moves along f1, is consumed, is spawned again under
# the same id and moves along f2; a record naming no thing moves along f1 in
# between.  Neither the consume nor the second spawn ends the episode the
# first spawn opened, so the occurrence starts at tick 0.
AFTER_CONSUME = [
    rec(0, "spawn", 1, at="s/a.create"),
    rec(1, "move", 1, at="s/a.process", arc="f1"),
    rec(2, "consume", 1, at="s/b.process"),
    rec(3, "move", None, at="s/a.process", arc="f1"),
    rec(3, "spawn", 1, at="s/a.create"),
    rec(4, "move", 1, at="s/b.process", arc="f2"),
]
F1_F2 = [EventDef("e0", Region(frozenset({"f1", "f2"}), frozenset({STAGES[0], STAGES[2]}), frozenset({"f1", "f2"})))]


def test_reference_carries_an_episode_past_consume():
    assert assert_same(AFTER_CONSUME, F1_F2) == [Occurrence("e0", 0, 4, 1)]


SPAWNED_BY_A_TRIGGER = """thing w
thing v
sphere s {
  machine a: w { create process }
  machine b: v { create release transfer }
  flow s/a.create -> s/a.process #in
  trigger s/a.process => s/b.create #t
  flow s/b.create -> s/b.release #up
  flow s/b.release -> s/b.transfer #f
}
event e { region { #t #f } }
"""


def test_occurrence_starts_at_a_spawn_on_a_trigger_endpoint():
    # Only trigger #t puts s/b.create in the region, so the spawned v's
    # occurrence starts at its spawn (tick 2), not at its first move (4).
    model, diags = load_model(SPAWNED_BY_A_TRIGGER, "spawn.fm")
    assert model is not None, [d.render() for d in diags]
    scenario, diags = parse_scenario("inject w at s/a.create tick 0\n", "spawn.fms")
    assert not diags
    trace = run(model, scenario, SimConfig(max_ticks=20))
    assert assert_same(trace, model.events) == [Occurrence("e", 2, 4, 2)]


@settings(max_examples=1000, deadline=None)
@given(st.lists(records, max_size=40), event_lists)
@example(AFTER_CONSUME, F1_F2)
def test_scanner_matches_reference_on_random_records(trace, events):
    assert_same(trace, events)

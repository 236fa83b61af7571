from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import site_reference
from conftest import CORPUS, golden_text, load_corpus_model, load_corpus_scenario
from fuzz import random_scenario, random_valid_model, replay_trace
from oracle import run_oracle
from sim_reference import ReferenceSimulation

from fmkit import exprs
from fmkit.behavior import enforce
from fmkit.canon import load_model
from fmkit.diagnostics import SourceSpan
from fmkit.export import write_trace
from fmkit.model import Endpoint, FlowArc, Stage, TriggerArc
from fmkit.simulate import (
    Injection,
    ModelIndex,
    Scenario,
    SimConfig,
    SimError,
    Simulation,
    Thing,
    check_scenario,
    eval_guard,
    parse_scenario,
    run,
)
from fmkit.validate import validate


def guard_model(text):
    # Parse a guard through the arc grammar to keep one expression parser.
    source = (
        "thing cash { amount: int, fare: int, x: int = 1, y: int = 0 }\n"
        "sphere s { machine a: cash { process release } "
        f"flow s/a.process -> s/a.release when {text} #g }}"
    )
    model, diags = load_model(source)
    assert not any(d.is_error for d in diags), [d.render() for d in diags]
    return model


def guard(text):
    return guard_model(text).flow("g").guard


def make_thing(attrs):
    """A cash thing at the guard model's s/a.process, at the head of no chain."""
    site = ModelIndex(guard_model("x > 0")).sites[Endpoint(("s", "a"), Stage.PROCESS)]
    return Thing(1, "cash", attrs, arrival_tick=0, site=site)


def test_make_thing_stands_at_the_guarded_stage():
    thing = make_thing({"amount": 1, "fare": 1})
    assert (thing.arrival_tick, thing.site.text, thing.next) == (0, "s/a.process", None)
    assert [hop.label for hop in thing.site.heads] == ["g"]


def test_eval_guard_boundary_true():
    assert eval_guard(guard("amount >= fare"), make_thing({"amount": 10, "fare": 10})) is True


def test_eval_guard_below_false():
    assert eval_guard(guard("amount >= fare"), make_thing({"amount": 5, "fare": 10})) is False


def test_eval_guard_division_by_zero():
    with pytest.raises(exprs.EvalError):
        eval_guard(guard("x / y > 1"), make_thing({"amount": 0, "fare": 0, "x": 3, "y": 0}))


CHAIN = (
    "thing w\n"
    "sphere s {\n"
    "  machine m: w { create release transfer }\n"
    "  flow s/m.create -> s/m.release #a\n"
    "  flow s/m.release -> s/m.transfer #b\n"
    "}\n"
)


def chain_model():
    model, diags = load_model(CHAIN)
    assert not diags
    return model


def test_enabled_moves_single_arc():
    model = chain_model()
    sim = Simulation(
        model,
        Scenario((Injection(0, "w", Endpoint(("s", "m"), Stage.CREATE), ()),)),
        SimConfig(),
    )
    sim.step()  # now at release
    sim.tick += 1
    moves = sim.enabled_moves([])
    assert [(t.id, a.label) for t, a in moves] == [(1, "b")]


def test_enabled_moves_exclusive_guards():
    source = (
        "thing cash { amount: int, fare: int }\n"
        "sphere s {\n"
        "  machine a: cash { create process }\n"
        "  machine ok: cash { process }\n"
        "  machine short: cash { process }\n"
        "  flow s/a.create -> s/a.process #in\n"
        "  flow s/a.process -> s/ok.process when amount >= fare #full\n"
        "  flow s/a.process -> s/short.process when amount < fare #low\n"
        "}\n"
    )
    model, diags = load_model(source)
    assert not any(d.is_error for d in diags)
    scenario = Scenario(
        (Injection(0, "cash", Endpoint(("s", "a"), Stage.CREATE), (("amount", 7), ("fare", 5))),)
    )
    sim = Simulation(model, scenario, SimConfig())
    sim.step()  # create -> process
    sim.tick += 1
    moves = sim.enabled_moves([])
    assert [(t.id, a.label) for t, a in moves] == [(1, "full")]


def test_enabled_moves_terminal_stage():
    model = chain_model()
    sim = Simulation(
        model,
        Scenario((Injection(0, "w", Endpoint(("s", "m"), Stage.CREATE), ()),)),
        SimConfig(),
    )
    for _ in range(3):
        sim.step()
    sim.tick += 1
    assert sim.enabled_moves([]) == []


def test_run_chain_walk():
    model = chain_model()
    scenario = Scenario((Injection(0, "w", Endpoint(("s", "m"), Stage.CREATE), ()),))
    trace = run(model, scenario, SimConfig(max_ticks=10))
    actions = [e.action for e in trace]
    assert actions == ["spawn", "move", "move", "quiescent"]
    final = replay_trace(model, trace)
    assert final == {1: "s/m.transfer"}


def test_run_empty_scenario_quiesces_at_zero():
    model = chain_model()
    trace = run(model, Scenario(()), SimConfig(max_ticks=10))
    assert len(trace) == 1
    assert trace[0].action == "quiescent" and trace[0].tick == 0


def test_exact_cash_produces_ticket(tvm):
    scenario = load_corpus_scenario(tvm, "tvm_exact")
    trace = run(tvm, scenario, SimConfig(max_ticks=200))
    final = replay_trace(tvm, trace)
    assert "passenger/ticket.receive" in final.values()
    # The inserted cash was absorbed by the machine.
    assert not any(loc.startswith("tvm/cash") for loc in final.values())


def test_insufficient_cash_prompts_topup(tvm):
    scenario = load_corpus_scenario(tvm, "tvm_insufficient")
    trace = run(tvm, scenario, SimConfig(max_ticks=200))
    final = replay_trace(tvm, trace)
    assert "passenger/topup_prompt.receive" in final.values()
    assert final[8] == "tvm/cash.process"  # held awaiting top-up or cancel


def test_cancel_returns_same_cash_thing(tvm):
    scenario = load_corpus_scenario(tvm, "tvm_cancel")
    trace = run(tvm, scenario, SimConfig(max_ticks=200))
    cash_spawns = [e.thing for e in trace if e.action == "spawn" and e.kind == "cash"]
    assert len(cash_spawns) == 1
    final = replay_trace(tvm, trace)
    assert final[cash_spawns[0]] == "passenger/cash.receive"


def test_trace_ticks_non_decreasing(tvm):
    scenario = load_corpus_scenario(tvm, "tvm_topup")
    trace = run(tvm, scenario, SimConfig(max_ticks=200))
    ticks = [e.tick for e in trace]
    assert ticks == sorted(ticks)


def test_conservation_without_guards_and_triggers():
    source = (
        "thing w\n"
        "sphere s {\n"
        "  machine a: w { create process }\n"
        "  machine b: w { process }\n"
        "  flow s/a.create -> s/a.process #p\n"
        "  flow s/a.process -> s/b.process #q\n"
        "}\n"
    )
    model, _ = load_model(source)
    scenario = Scenario(
        tuple(Injection(i, "w", Endpoint(("s", "a"), Stage.CREATE), ()) for i in range(3))
    )
    sim = Simulation(model, scenario, SimConfig(max_ticks=50))
    counts = []
    while sim.tick < 50 and sim.live():
        sim.step()
        if sim.tick >= 3:
            counts.append(len(sim.things))
    assert counts and all(c == 3 for c in counts)


def test_ids_strictly_increase(tvm):
    scenario = load_corpus_scenario(tvm, "tvm_topup")
    trace = run(tvm, scenario, SimConfig(max_ticks=200))
    spawned = [e.thing for e in trace if e.action == "spawn"]
    assert spawned == sorted(spawned) and len(set(spawned)) == len(spawned)


@pytest.mark.parametrize(
    "model_name,scenario_name,ticks",
    [
        ("tvm", "tvm_exact", 200),
        ("tvm", "tvm_insufficient", 200),
        ("tvm", "tvm_topup", 200),
        ("tvm", "tvm_cancel", 200),
        ("plant", "plant_water", 60),
    ],
)
def test_simulator_matches_oracle_and_golden(model_name, scenario_name, ticks):
    model, _ = load_model((CORPUS / f"{model_name}.fm").read_text(encoding="utf-8"), model_name)
    scenario = load_corpus_scenario(model, scenario_name)
    got = write_trace(run(model, scenario, SimConfig(max_ticks=ticks)))
    assert got == golden_text(scenario_name)
    assert got == run_oracle(model, scenario, max_ticks=ticks)


def test_oracle_equivalence_small_scenario(tvm):
    # Few things, short horizon: the envelope where the oracle is gospel.
    scenario = Scenario(
        (
            Injection(0, "cash", Endpoint(("passenger", "cash"), Stage.CREATE), (("amount", 9), ("fare", 4))),
            Injection(3, "cancel_signal", Endpoint(("passenger", "cancel"), Stage.CREATE), ()),
        )
    )
    got = write_trace(run(tvm, scenario, SimConfig(max_ticks=50)))
    assert got == run_oracle(tvm, scenario, max_ticks=50)


def test_run_deterministic(tvm):
    scenario = load_corpus_scenario(tvm, "tvm_cancel")
    first = write_trace(run(tvm, scenario, SimConfig(max_ticks=200)))
    second = write_trace(run(tvm, scenario, SimConfig(max_ticks=200)))
    assert first == second


def gated_model():
    """A ``go`` thing's completion at s/ctl.process enables s/held.process."""
    source = (
        "thing w\n"
        "thing go\n"
        "sphere s {\n"
        "  machine held: w { create process release transfer }\n"
        "  machine ctl: go { create process }\n"
        "  flow s/held.create -> s/held.process #in\n"
        "  flow s/held.process -> s/held.release #out\n"
        "  flow s/ctl.create -> s/ctl.process #c\n"
        "  trigger s/ctl.process => s/held.process #open\n"
        "}\n"
    )
    model, diags = load_model(source)
    assert not any(d.is_error for d in diags)
    return model


def test_enable_gates_targeted_stage():
    # A stage targeted by a trigger holds things until the trigger fires.
    scenario = Scenario(
        (
            Injection(0, "w", Endpoint(("s", "held"), Stage.CREATE), ()),
            Injection(5, "go", Endpoint(("s", "ctl"), Stage.CREATE), ()),
        )
    )
    trace = run(gated_model(), scenario, SimConfig(max_ticks=30))
    out_move = next(e for e in trace if e.action == "move" and e.arc == "out")
    fire = next(e for e in trace if e.action == "trigger-fired")
    assert out_move.tick == fire.tick + 1  # released on the tick after the enable


def test_a_move_uses_the_oldest_pending_enable():
    # Enables reach s/held.process at ticks 2 and 3.  The w thing waiting
    # there moves at tick 3 on the enable of tick 2, and the one of tick 3
    # stays queued: traces cannot show which one a move takes.
    model = gated_model()
    go = Endpoint(("s", "ctl"), Stage.CREATE)
    scenario = Scenario(
        (
            Injection(0, "w", Endpoint(("s", "held"), Stage.CREATE), ()),
            Injection(0, "go", go, ()),
            Injection(1, "go", go, ()),
        )
    )
    sim = Simulation(model, scenario, SimConfig(max_ticks=30))
    site = sim.index.sites[Endpoint(("s", "held"), Stage.PROCESS)]
    queues = []
    for _ in range(3):
        sim.step()
        queues.append(list(sim.pending_enables.get(site, ())))
    assert queues == [[], [2], [3]]
    assert [(e.tick, e.thing) for e in sim.trace if e.arc == "out"] == [(3, 1)]
    got = write_trace(run(model, scenario, SimConfig(max_ticks=30)))
    assert got == run_oracle(model, scenario, max_ticks=30)


def test_dwell_two_slows_movement():
    model = chain_model()
    scenario = Scenario((Injection(0, "w", Endpoint(("s", "m"), Stage.CREATE), ()),))
    trace = run(model, scenario, SimConfig(max_ticks=20, stage_dwell=2))
    moves = [e.tick for e in trace if e.action == "move"]
    assert moves == [2, 4]


def test_a_flow_added_after_reindex_is_simulated():
    source = (
        "thing w\n"
        "sphere s {\n"
        "  machine m: w { create release transfer receive }\n"
        "  flow s/m.create -> s/m.release #a\n"
        "  flow s/m.release -> s/m.transfer #b\n"
        "}\n"
    )
    model, diags = load_model(source)
    assert not diags
    scenario = Scenario((Injection(0, "w", Endpoint(("s", "m"), Stage.CREATE), ()),))

    def moves():
        return [e.arc for e in run(model, scenario, SimConfig(max_ticks=10)) if e.action == "move"]

    assert moves() == ["a", "b"]
    transfer, receive = Endpoint(("s", "m"), Stage.TRANSFER), Endpoint(("s", "m"), Stage.RECEIVE)
    model.flows.append(FlowArc(transfer, receive, "c", family="c"))
    model.reindex()
    assert moves() == ["a", "b", "c"]


BLOCKED_ORDER = (
    "thing w { x: int = 0 }\n"
    "sphere s {\n"
    "  machine a: w { create process release }\n"
    "  machine c: w { create process }\n"
    "  flow s/a.create -> s/a.process #in\n"
    "  flow s/a.process -> s/a.release when 1 / x > 0 #b\n"
    "  flow s/a.process -> s/a.release when 2 / x > 0 #a\n"
    "  trigger s/a.process => s/c.create when 1 / x > 0 #tb\n"
    "  trigger s/a.process => s/c.create when 2 / x > 0 #ta\n"
    "  flow s/c.create -> s/c.process #cin\n"
    "}\n"
)


def test_blocked_records_follow_label_order():
    # Every guard out of s/a.process divides by zero, and the arcs are
    # written in reverse label order (#b before #a, #tb before #ta): the
    # triggers' records come at the dwell's end, the flows' at the move
    # phase, each in label order.
    model, diags = load_model(BLOCKED_ORDER)
    assert not diags
    scenario = Scenario((Injection(0, "w", Endpoint(("s", "a"), Stage.CREATE), ()),))
    trace = run(model, scenario, SimConfig(max_ticks=10))
    assert [(e.tick, e.arc) for e in trace if e.action == "blocked"] == [(2, "ta"), (2, "tb"), (2, "a"), (2, "b")]
    assert write_trace(trace) == run_oracle(model, scenario, max_ticks=10)


@pytest.mark.parametrize(
    "target", [Endpoint(("s", "nope"), Stage.CREATE), Endpoint(("passenger", "start"), Stage.RECEIVE)], ids=str
)
def test_injection_at_no_stage_of_the_model_is_a_sim_error(tvm, target):
    scenario = Scenario((Injection(0, "start_request", target, ()),))
    with pytest.raises(SimError, match=re.escape(f"injection target {target} is not a stage of the model")):
        Simulation(tvm, scenario, SimConfig(max_ticks=10))



M = ("s", "m")


@pytest.mark.parametrize("arcs,arc", [
    ("flows", FlowArc(Endpoint(M, Stage.RELEASE), Endpoint(M, Stage.PROCESS), "b", family="b")),
    ("flows", FlowArc(Endpoint(M, Stage.PROCESS), Endpoint(M, Stage.TRANSFER), "b", family="b")),
    ("triggers", TriggerArc(Endpoint(M, Stage.RELEASE), Endpoint(M, Stage.PROCESS), "b")),
    ("triggers", TriggerArc(Endpoint(M, Stage.PROCESS), Endpoint(M, Stage.CREATE), "b")),
], ids=["flow-to", "flow-from", "trigger-to", "trigger-from"])
def test_arc_at_no_stage_of_its_machine_is_a_sim_error(arcs, arc):
    # Only a model built or edited through the API holds such an arc: the
    # binder and validate reject it in model text.
    model, diags = load_model(
        "thing w\nsphere s { machine m: w { create release transfer }\nflow s/m.create -> s/m.release #a }"
    )
    assert not diags
    getattr(model, arcs).append(arc)
    model.reindex()
    message = "arc 'b' joins s/m.process, which is not a stage of its machine"
    with pytest.raises(SimError, match=re.escape(message)):
        run(model, Scenario(()), SimConfig(max_ticks=3))

def site_fields(site):
    return (
        site.text, site.kind, site.gated, [hop.label for hop in site.heads],
        [trig.label for trig in site.triggers], site.assigns, site.leaves,
    )


def assert_site_table_matches_reference(model, scenario):
    """The up-front table agrees with the lazy reference on every endpoint
    the reference builds (each arc endpoint and each injection target), on
    every hop, and holds exactly one site per stage of every machine."""
    old, new = site_reference.ModelIndex(model), ModelIndex(model)
    stages = [Endpoint(path, stage) for path, machine in model.machines() for stage in machine.stages()]
    assert list(new.sites) == stages
    assert all(site.ep == ep for ep, site in new.sites.items())
    assert all(site.completes == bool(site.assigns or site.triggers) for site in new.sites.values())
    arcs = [*model.flows, *model.triggers]
    targets = [inj.target for inj in scenario.injections]
    for ep in [arc.src for arc in arcs] + [arc.dst for arc in arcs] + targets:
        assert site_fields(new.sites[ep]) == site_fields(old.site(ep)), ep
    hops, todo = {}, [hop for site in new.sites.values() for hop in site.heads]
    while todo:
        hop = todo.pop()
        hops[hop.label] = hop
        if hop.next is not None:
            todo.append(hop.next)
    assert sorted(hops) == sorted(old._hops)
    for label, hop in old._hops.items():
        got = hops[label]
        assert got.dst is new.sites[got.arc.dst]
        assert (got.dst.text, getattr(got.next, "label", None)) == (hop.dst.text, getattr(hop.next, "label", None))


@pytest.mark.parametrize("name,scenario", [
    ("tvm", "tvm_exact"), ("tvm", "tvm_cancel"), ("plant", "plant_water"), ("turbine", None),
])
def test_site_table_matches_the_reference_on_the_corpus(name, scenario):
    model = load_corpus_model(name)
    scenario = load_corpus_scenario(model, scenario) if scenario else Scenario(())
    assert_site_table_matches_reference(model, scenario)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_site_table_matches_the_reference_on_fuzz_models(seed):
    model, used = random_valid_model(seed)
    assert_site_table_matches_reference(model, random_scenario(model, used))


def test_scenario_file_round_trip(tvm):
    text = (
        "inject cash at passenger/cash.create tick 4 { amount = 5, fare = 5 }\n"
        "inject start_request at passenger/start.create tick 0\n"
    )
    scenario, diags = parse_scenario(text)
    assert not diags
    assert len(scenario.injections) == 2
    assert check_scenario(tvm, scenario) == []


def test_scenario_rejects_non_create_target(tvm):
    scenario = Scenario((Injection(0, "cash", Endpoint(("tvm", "cash"), Stage.RECEIVE), (("amount", 1), ("fare", 1))),))
    diags = check_scenario(tvm, scenario)
    assert any("not a create stage" in d.message for d in diags)


def test_scenario_requires_attrs(tvm):
    scenario = Scenario((Injection(0, "cash", Endpoint(("passenger", "cash"), Stage.CREATE), ()),))
    diags = check_scenario(tvm, scenario)
    assert any("lacks required attribute" in d.message for d in diags)


def test_negative_tick_finding_has_the_injection_span(tvm):
    # A parsed tick is never negative; only an injection built in code has
    # one, and without a span its finding falls back to <scenario>:1:1.
    span = SourceSpan("s.fms", 4, 2, 4, 7)
    target = Endpoint(("passenger", "start"), Stage.CREATE)
    scenario = Scenario((Injection(-1, "start_request", target, (), span), Injection(-2, "start_request", target, ())))
    diags = check_scenario(tvm, scenario)
    assert [(d.code, d.message, d.span) for d in diags] == [
        ("E_SCENARIO", "injection tick -1 is negative", span),
        ("E_SCENARIO", "injection tick -2 is negative", SourceSpan("<scenario>", 1, 1, 1, 1)),
    ]


# One finding per ResolutionError code.  The target resolves through the
# model's path table; the message names the first segment that failed.
RESOLUTION_FINDINGS = {
    "unknown-sphere": ("kiosk/cash.create", "unknown-sphere: 'kiosk' in 'kiosk/cash.create'"),
    "unknown-sphere-nested": ("tvm/vault/pay_req.create", "unknown-sphere: 'vault' in 'tvm/vault/pay_req.create'"),
    "unknown-machine": ("passenger/till.create", "unknown-machine: 'till' in 'passenger/till.create'"),
    "unknown-machine-is-a-sphere": ("tvm/card_net.create", "unknown-machine: 'card_net' in 'tvm/card_net.create'"),
    "stage-not-declared": (
        "tvm/card_net/pay_req.create", "stage-not-declared: 'create' in 'tvm/card_net/pay_req.create'"
    ),
}


@pytest.mark.parametrize("case", sorted(RESOLUTION_FINDINGS))
def test_scenario_target_resolution_finding(tvm, case):
    target, reason = RESOLUTION_FINDINGS[case]
    text = f"inject start_request at passenger/start.create tick 0\n  inject pay_request at {target} tick 1\n"
    scenario, diags = parse_scenario(text, "s.fms")
    assert diags == []
    found = [(d.code, d.message, d.span.file, d.span.start_line, d.span.start_col) for d in check_scenario(tvm, scenario)]
    assert found == [("E_SCENARIO", f"injection target {target}: {reason}", "s.fms", 2, 3)]


def test_scenario_parse_reports_bad_lines():
    _, diags = parse_scenario("inject at tick\n")
    assert any(d.is_error for d in diags)


def test_guard_eval_error_blocks_and_continues():
    source = (
        "thing w { x: int = 1, y: int = 0 }\n"
        "sphere s {\n"
        "  machine a: w { create process release }\n"
        "  flow s/a.create -> s/a.process #in\n"
        "  flow s/a.process -> s/a.release when x / y > 0 #bad\n"
        "}\n"
    )
    model, diags = load_model(source)
    assert not any(d.is_error for d in diags)
    scenario = Scenario((Injection(0, "w", Endpoint(("s", "a"), Stage.CREATE), ()),))
    trace = run(model, scenario, SimConfig(max_ticks=5))
    blocked = [e for e in trace if e.action == "blocked"]
    assert blocked and blocked[0].arc == "bad"
    assert not any(e.action == "move" and e.arc == "bad" for e in trace)


BIG = "1" + "0" * 400  # an int literal no float holds


def test_mixed_arithmetic_past_float_range_blocks():
    source = (
        f"thing w {{ n: int = {BIG}, a: dec = 1.0 }}\n"
        "sphere s {\n"
        "  machine a: w { create process release }\n"
        "  flow s/a.create -> s/a.process #in\n"
        "  flow s/a.process -> s/a.release when n + a > 0.0 #big\n"
        "}\n"
    )
    model, diags = load_model(source)
    assert not any(d.is_error for d in diags) and validate(model).ok
    scenario = Scenario((Injection(0, "w", Endpoint(("s", "a"), Stage.CREATE), ()),))
    trace = run(model, scenario, SimConfig(max_ticks=5))
    assert [(e.action, e.arc) for e in trace if e.action == "blocked"] == [("blocked", "big")]
    assert not any(e.action == "move" and e.arc == "big" for e in trace)
    assert write_trace(trace) == run_oracle(model, scenario, max_ticks=5)


def test_scenario_value_no_float_holds_is_a_finding():
    model, _ = load_model(
        "thing w { a: dec }\nsphere s { machine m: w { create release } flow s/m.create -> s/m.release #x }"
    )
    scenario, diags = parse_scenario(f"inject w at s/m.create tick 0 {{ a = {BIG} }}\n", "s.fms")
    assert diags == []
    found = [(d.code, d.message, d.span.start_line) for d in check_scenario(model, scenario)]
    assert found == [("E_SCENARIO", "attribute 'a': int too large for a dec", 1)]


def test_thing_examined_while_dwelling_is_not_parked():
    # The enable arrives while the thing still dwells at the gated stage, so
    # it is examined early and its guard fails; the assign at the end of its
    # dwell then opens the guard and it must still leave.
    source = (
        "thing w { x: int = 0 }\n"
        "thing go\n"
        "sphere s {\n"
        "  machine held: w { create process release assign { x = 1 } }\n"
        "  machine ctl: go { create process }\n"
        "  flow s/held.create -> s/held.process #in\n"
        "  flow s/held.process -> s/held.release when x > 0 #out\n"
        "  flow s/ctl.create -> s/ctl.process #c\n"
        "  trigger s/ctl.process => s/held.process #open\n"
        "}\n"
    )
    model, diags = load_model(source)
    assert not any(d.is_error for d in diags)
    scenario = Scenario(
        (
            Injection(0, "go", Endpoint(("s", "ctl"), Stage.CREATE), ()),
            Injection(2, "w", Endpoint(("s", "held"), Stage.CREATE), ()),
        )
    )
    config = SimConfig(max_ticks=30, stage_dwell=2)
    trace = run(model, scenario, config)
    out_move = next(e for e in trace if e.action == "move" and e.arc == "out")
    assert out_move.tick == 6
    assert write_trace(trace) == run_oracle(model, scenario, max_ticks=30, dwell=2)


@pytest.mark.parametrize(
    "model_name,scenario_name,mid_run,ticks",
    [("tvm", "tvm_topup", 11, 200), ("tvm", "tvm_cancel", 11, 200), ("plant", "plant_water", 98, 200)],
)
def test_hand_stepping_reaches_the_end_run_reaches(model_name, scenario_name, mid_run, ticks):
    model, _ = load_model((CORPUS / f"{model_name}.fm").read_text(encoding="utf-8"), model_name)
    scenario = load_corpus_scenario(model, scenario_name)
    sim = Simulation(model, scenario, SimConfig(max_ticks=ticks))
    while sim.tick < mid_run:
        sim.step()
    # Mid-run, things are parked (live, but out of the scan) and due.
    assert len(sim._active) < len(sim.things) and sim._calendar
    while sim.tick < ticks and sim.live():
        sim.step()
    whole = run(model, scenario, SimConfig(max_ticks=ticks))
    assert write_trace(sim.trace) == write_trace(e for e in whole if e.action != "quiescent")


def moves_per_tick(simulation_cls, model, scenario, config):
    """A step()/live() loop over ``simulation_cls``: its trace, the (thing
    id, arc label) pairs ``enabled_moves`` returned on each tick, and
    whether the run was still live when it stopped."""
    seen = []

    class Seen(simulation_cls):
        def enabled_moves(self, blocked):
            pairs = super().enabled_moves(blocked)
            seen.append((self.tick, [(thing.id, hop.label) for thing, hop in pairs]))
            return pairs

    sim = Seen(model, scenario, config)
    while sim.tick < config.max_ticks and sim.live():
        sim.step()
    return write_trace(sim.trace), seen, sim.live()


# Random models at dwell 1-3: a few spawn without end, and 30 ticks keeps
# every seed cheap (see tests/test_differential.py).
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 299), st.integers(1, 3))
def test_step_matches_the_reference_step(seed, dwell):
    model, _ = random_valid_model(seed)
    scenario = random_scenario(model, seed)
    config = SimConfig(max_ticks=30, stage_dwell=dwell)
    assert moves_per_tick(Simulation, model, scenario, config) == moves_per_tick(
        ReferenceSimulation, model, scenario, config
    )


@pytest.mark.parametrize("dwell", [1, 2, 3])
@pytest.mark.parametrize("model_name,scenario_name,behavior_name", [
    ("plant", "plant_water", None), ("tvm", "tvm_topup", None), ("tvm", "tvm_cancel", "cash_purchase"),
    ("tvm", "tvm_exact", "cash_purchase"), ("tvm", "tvm_insufficient", "cash_purchase"),
])
def test_corpus_steps_match_the_reference_step(model_name, scenario_name, behavior_name, dwell):
    model = load_corpus_model(model_name)
    scenario = load_corpus_scenario(model, scenario_name)

    def config():  # a gate keeps state, so each run enforces through its own
        gate = enforce(model, model.behavior(behavior_name).program) if behavior_name else None
        return SimConfig(max_ticks=200, stage_dwell=dwell, gate=gate)

    assert moves_per_tick(Simulation, model, scenario, config()) == moves_per_tick(
        ReferenceSimulation, model, scenario, config()
    )


def test_blocked_thing_is_not_parked():
    # A guard that raises blocks the thing on every tick it is examined, for
    # as long as another thing keeps the run alive.
    source = (
        "thing w { x: int = 1, y: int = 0 }\n"
        "sphere s {\n"
        "  machine a: w { create process release }\n"
        "  machine b: w { create process release transfer }\n"
        "  flow s/a.create -> s/a.process #in\n"
        "  flow s/a.process -> s/a.release when x / y > 0 #bad\n"
        "  flow s/b.create -> s/b.process #p\n"
        "  flow s/b.process -> s/b.release #q\n"
        "  flow s/b.release -> s/b.transfer #r\n"
        "}\n"
    )
    model, diags = load_model(source)
    assert not any(d.is_error for d in diags)
    scenario = Scenario(
        (
            Injection(0, "w", Endpoint(("s", "a"), Stage.CREATE), ()),
            Injection(0, "w", Endpoint(("s", "b"), Stage.CREATE), ()),
        )
    )
    trace = run(model, scenario, SimConfig(max_ticks=20))
    assert [e.tick for e in trace if e.action == "blocked"] == [2, 3]
    assert write_trace(trace) == run_oracle(model, scenario, max_ticks=20)


# An int stored in a dec attribute becomes a float, so `a / 2` divides
# exactly: with a = 5, 2.5 > 2 opens each guard, where floor division of
# the int (5 / 2 == 2) would keep it shut.
DEC_STORES = (
    "thing w { a: dec = 0.0, n: int = 5 }\n"
    "sphere s {\n"
    "  machine inj: w { create process release }\n"
    "  machine asg: w { create process release assign { a = n } }\n"
    "  machine src: w { create process }\n"
    "  machine sp: w { create process release }\n"
    "  flow s/inj.create -> s/inj.process #i\n"
    "  flow s/inj.process -> s/inj.release when a / 2 > 2 #injected\n"
    "  flow s/asg.create -> s/asg.process #a\n"
    "  flow s/asg.process -> s/asg.release when a / 2 > 2 #assigned\n"
    "  flow s/src.create -> s/src.process #s\n"
    "  trigger s/src.process => s/sp.create spawn { a = n } #t\n"
    "  flow s/sp.create -> s/sp.process #p\n"
    "  flow s/sp.process -> s/sp.release when a / 2 > 2 #spawned\n"
    "}\n"
)


def test_int_stored_in_a_dec_attribute_becomes_a_float():
    model, diags = load_model(DEC_STORES)
    assert not any(d.is_error for d in diags) and validate(model).ok
    scenario = Scenario(
        (
            Injection(0, "w", Endpoint(("s", "inj"), Stage.CREATE), (("a", 5),)),
            Injection(0, "w", Endpoint(("s", "asg"), Stage.CREATE), ()),
            Injection(0, "w", Endpoint(("s", "src"), Stage.CREATE), ()),
        )
    )
    sim = Simulation(model, scenario, SimConfig(max_ticks=20))
    assert sim.things[1].attrs["a"] == 5.0 and type(sim.things[1].attrs["a"]) is float
    while sim.tick < 20 and sim.live():
        sim.step()
    moves = {e.arc for e in sim.trace if e.action == "move"}
    assert {"injected", "assigned", "spawned"} <= moves
    assert all(type(thing.attrs["a"]) is float for thing in sim.things.values())
    trace = run(model, scenario, SimConfig(max_ticks=20))
    assert write_trace(trace) == run_oracle(model, scenario, max_ticks=20)


@pytest.mark.parametrize(
    "fields, message",
    [({"max_ticks": -1}, "max_ticks must be >= 0"), ({"stage_dwell": 0}, "stage_dwell must be >= 1")],
)
def test_sim_config_rejects_out_of_range_values(fields, message):
    with pytest.raises(SimError) as info:
        SimConfig(**fields)
    assert str(info.value) == message


@pytest.mark.parametrize("tick", [0, 3], ids=["at-start", "mid-run"])
def test_injection_of_an_undeclared_kind_is_a_sim_error(tvm, tick):
    # An unchecked scenario: check_scenario reports the kind, run does not get there.
    scenario = Scenario((Injection(tick, "nokind", Endpoint(("passenger", "cash"), Stage.CREATE), ()),))
    assert any("unknown thing kind 'nokind'" in d.message for d in check_scenario(tvm, scenario))
    with pytest.raises(SimError) as info:
        run(tvm, scenario, SimConfig(max_ticks=10))
    assert str(info.value) == "injection of undeclared kind 'nokind'"


def test_a_thing_released_early_completes_once_where_it_arrives():
    # The enable waives the thing's dwell at s/held.process, so it leaves at
    # tick 7, before its completion there falls due (tick 8), and arrives
    # at s/held.release, whose trigger falls due at tick 10: the entry left
    # for tick 8 is stale and completes nothing.
    source = (
        "thing w { x: int = 0 }\n"
        "thing go\n"
        "thing note\n"
        "sphere s {\n"
        "  machine held: w { create process release assign { x = 1 } }\n"
        "  machine ctl: go { create process }\n"
        "  machine log: note { create }\n"
        "  flow s/held.create -> s/held.process #in\n"
        "  flow s/held.process -> s/held.release #out\n"
        "  flow s/ctl.create -> s/ctl.process #c\n"
        "  trigger s/ctl.process => s/held.process #open\n"
        "  trigger s/held.release => s/log.create #done\n"
        "}\n"
    )
    model, diags = load_model(source)
    assert not any(d.is_error for d in diags)
    scenario = Scenario(
        (
            Injection(0, "go", Endpoint(("s", "ctl"), Stage.CREATE), ()),
            Injection(2, "w", Endpoint(("s", "held"), Stage.CREATE), ()),
        )
    )
    trace = run(model, scenario, SimConfig(max_ticks=30, stage_dwell=3))
    assert [(e.tick, e.arc) for e in trace if e.action == "move" and e.arc in ("in", "out")] == [(5, "in"), (7, "out")]
    assert [e.tick for e in trace if e.action == "trigger-fired" and e.arc == "done"] == [10]
    assert write_trace(trace) == run_oracle(model, scenario, max_ticks=30, dwell=3)


def test_spawn_at_a_trigger_source_completes_there():
    # An injected thing arrives at a stage a trigger leaves from, so it must
    # complete there at the end of its dwell and fire the trigger.
    model, diags = load_model(
        "thing w\n"
        "sphere s {\n"
        "  machine a: w { create release }\n"
        "  machine b: w { create release }\n"
        "  trigger s/a.create => s/b.create #t\n"
        "  flow s/a.create -> s/a.release #x\n"
        "  flow s/b.create -> s/b.release #y\n"
        "}\n"
    )
    assert not any(d.is_error for d in diags)
    scenario = Scenario((Injection(0, "w", Endpoint(("s", "a"), Stage.CREATE), ()),))
    trace = run(model, scenario, SimConfig(max_ticks=10))
    assert [(e.tick, e.action, e.at) for e in trace if e.action in ("trigger-fired", "spawn")] == [
        (0, "spawn", "s/a.create"), (1, "trigger-fired", "s/b.create"), (1, "spawn", "s/b.create"),
    ]
    assert write_trace(trace) == run_oracle(model, scenario, max_ticks=10)


def test_a_firing_the_gate_holds_keeps_the_run_live():
    # The gate holds trigger #t at tick 2; that tick's move #f2 completes e1,
    # so the held firing is released at tick 3 rather than the run stopping.
    model, diags = load_model(
        "thing w\n"
        "sphere s {\n"
        "  machine a: w { create process release }\n"
        "  machine b: w { create }\n"
        "  flow s/a.create -> s/a.process #f1\n"
        "  trigger s/a.process => s/b.create #t\n"
        "  flow s/a.process -> s/a.release #f2\n"
        "}\n"
        "event e1 { region { #f2 } }\n"
        "event e2 { region { #t } }\n"
        "behavior b { seq(e1, e2) }\n"
    )
    assert not any(d.is_error for d in diags)
    scenario = Scenario((Injection(0, "w", Endpoint(("s", "a"), Stage.CREATE), ()),))
    gate = enforce(model, model.behavior("b").program)
    trace = run(model, scenario, SimConfig(max_ticks=10, gate=gate))
    assert [(e.tick, e.action, e.arc) for e in trace if e.tick >= 2] == [
        (2, "move", "f2"), (3, "trigger-fired", "t"), (3, "spawn", None), (3, "quiescent", None),
    ]


def test_injection_without_a_required_attribute_is_a_sim_error(tvm):
    # An unchecked scenario: check_scenario reports the attribute, run stops at it.
    scenario = Scenario((Injection(0, "cash", Endpoint(("passenger", "cash"), Stage.CREATE), ()),))
    assert any("lacks required attribute 'amount'" in d.message for d in check_scenario(tvm, scenario))
    with pytest.raises(SimError) as info:
        run(tvm, scenario, SimConfig(max_ticks=10))
    assert str(info.value) == "spawn of cash lacks attribute 'amount'"

from __future__ import annotations

import pytest

from conftest import golden_text, load_corpus_scenario
from fuzz import replay_trace
from oracle import run_oracle

from fmkit import exprs
from fmkit.canon import load_model
from fmkit.diagnostics import SourceSpan
from fmkit.export import write_trace
from fmkit.model import Endpoint, FlowArc, Stage
from fmkit.simulate import (
    Injection,
    Scenario,
    SimConfig,
    Simulation,
    Thing,
    check_scenario,
    eval_guard,
    parse_scenario,
    run,
)
from fmkit.validate import validate


def make_thing(attrs):
    return Thing(1, "cash", attrs, Endpoint(("s", "m"), Stage.PROCESS), 0, 0)


def guard(text):
    # Parse a guard through the arc grammar to keep one expression parser.
    source = (
        "thing cash { amount: int, fare: int, x: int = 1, y: int = 0 }\n"
        "sphere s { machine a: cash { process release } "
        f"flow s/a.process -> s/a.release when {text} #g }}"
    )
    model, diags = load_model(source)
    assert not any(d.is_error for d in diags), [d.render() for d in diags]
    return model.flow("g").guard


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
    moves = sim.enabled_moves()
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
    moves = sim.enabled_moves()
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
    assert sim.enabled_moves() == []


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
    model, _ = load_model(open(f"corpus/{model_name}.fm").read(), model_name)
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


def test_enable_gates_targeted_stage():
    # A stage targeted by a trigger holds things until the trigger fires.
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
    scenario = Scenario(
        (
            Injection(0, "w", Endpoint(("s", "held"), Stage.CREATE), ()),
            Injection(5, "go", Endpoint(("s", "ctl"), Stage.CREATE), ()),
        )
    )
    trace = run(model, scenario, SimConfig(max_ticks=30))
    out_move = next(e for e in trace if e.action == "move" and e.arc == "out")
    fire = next(e for e in trace if e.action == "trigger-fired")
    assert out_move.tick == fire.tick + 1  # released on the tick after the enable


def test_dwell_two_slows_movement():
    model = chain_model()
    scenario = Scenario((Injection(0, "w", Endpoint(("s", "m"), Stage.CREATE), ()),))
    trace = run(model, scenario, SimConfig(max_ticks=20, stage_dwell=2))
    moves = [e.tick for e in trace if e.action == "move"]
    assert moves == [2, 4]


def test_reindex_drops_the_site_table():
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
    index = model.index
    assert model.index is index  # built once, then cached
    transfer, receive = Endpoint(("s", "m"), Stage.TRANSFER), Endpoint(("s", "m"), Stage.RECEIVE)
    model.flows.append(FlowArc(transfer, receive, "c", family="c"))
    model.reindex()
    assert model.index is not index
    assert moves() == ["a", "b", "c"]


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
    [("tvm", "tvm_topup", 12, 200), ("tvm", "tvm_cancel", 20, 200), ("plant", "plant_water", 35, 60)],
)
def test_hand_stepping_reaches_the_end_run_reaches(model_name, scenario_name, mid_run, ticks):
    model, _ = load_model(open(f"corpus/{model_name}.fm").read(), model_name)
    scenario = load_corpus_scenario(model, scenario_name)
    sim = Simulation(model, scenario, SimConfig(max_ticks=ticks))
    while sim.tick < mid_run:
        sim.step()
    assert sim._parked and sim._calendar  # mid-run, things are parked and due
    while sim.tick < ticks and sim.live():
        sim.step()
    whole = run(model, scenario, SimConfig(max_ticks=ticks))
    assert write_trace(sim.trace) == write_trace(e for e in whole if e.action != "quiescent")


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

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are exact unless a runtime bound is stated; runtime bounds are
asserted with time.monotonic around the measured work.
"""
from __future__ import annotations

import sys
import time

from conftest import golden_text, load_corpus_model, load_corpus_scenario
from fuzz import random_scenario, random_tvm_scenario, random_valid_model, replay_trace
from oracle import run_oracle

from fmkit.behavior import check, enforce
from fmkit.canon import load_model
from fmkit.export import behavior_to_dot, dot_check, model_to_dot, read_trace, write_trace
from fmkit.history import AppendError, ReplacementLog, ReplacementRecord
from fmkit.printer import model_signature, print_model
from fmkit.simulate import SimConfig, Simulation, TraceEvent, run
from fmkit.validate import validate

CORPUS_NAMES = ("tvm", "plant", "turbine")
GOLDEN_RUNS = [
    ("tvm", "tvm_exact", 200),
    ("tvm", "tvm_insufficient", 200),
    ("tvm", "tvm_topup", 200),
    ("tvm", "tvm_cancel", 200),
    ("plant", "plant_water", 60),
]


# One line per criterion; conftest echoes these in the terminal summary.
RESULTS: list[str] = []


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number}: {status} - {description}"
    if detail and not ok:
        line += f" ({detail})"
    RESULTS.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, line


def test_criterion_1_corpus_fidelity():
    started = time.monotonic()
    models = {}
    ok = True
    detail = ""
    for name in CORPUS_NAMES:
        model = load_corpus_model(name)
        models[name] = model
        if not validate(model).ok:
            ok = False
            detail = f"{name} failed validation"
    tvm, plant, turbine = models["tvm"], models["plant"], models["turbine"]
    tvm_labels = {a.label for a in tvm.flows if a.is_chain_head} | {t.label for t in tvm.triggers}
    if not {str(i) for i in range(1, 38)} <= tvm_labels:
        ok = False
        detail = "tvm numbered arcs incomplete"
    plant_labels = {a.label for a in plant.flows if a.is_chain_head} | {t.label for t in plant.triggers}
    if not {str(i) for i in range(1, 42)} <= plant_labels:
        ok = False
        detail = "plant numbered items incomplete"
    burners = [m.name for _, m in turbine.machines() if m.name.startswith("burner_")]
    if len([b for b in burners if b != "burner_spark"]) != 9:
        ok = False
        detail = "turbine burner count wrong"
    elapsed = time.monotonic() - started
    if elapsed >= 1.0:
        ok = False
        detail = f"took {elapsed:.2f}s"
    report(1, f"corpus fidelity (3 models, {elapsed:.2f}s)", ok, detail)


def test_criterion_2_cash_branches():
    tvm = load_corpus_model("tvm")
    ok = True
    detail = ""
    finals = {}
    for name in ("tvm_insufficient", "tvm_exact", "tvm_cancel"):
        scenario = load_corpus_scenario(tvm, name)
        trace = run(tvm, scenario, SimConfig(max_ticks=200))
        got = write_trace(trace)
        if got != golden_text(name):
            ok = False
            detail = f"{name} trace differs from golden"
        if got != run_oracle(tvm, scenario, max_ticks=200, strict_unique=True):
            ok = False
            detail = f"{name} trace differs from reference interpreter"
        finals[name] = replay_trace(tvm, trace)
    if "passenger/topup_prompt.receive" not in finals["tvm_insufficient"].values():
        ok = False
        detail = "no top-up message reached the passenger"
    if "passenger/ticket.receive" not in finals["tvm_exact"].values():
        ok = False
        detail = "no ticket reached the passenger"
    cancel_trace = read_trace(golden_text("tvm_cancel"))
    cash_ids = [e.thing for e in cancel_trace if e.action == "spawn" and e.kind == "cash"]
    returned = finals["tvm_cancel"].get(cash_ids[0]) if cash_ids else None
    if returned != "passenger/cash.receive":
        ok = False
        detail = "inserted cash did not come back to the passenger"
    report(2, "cash branches reproduce goldens byte-exactly", ok, detail)


def _arc_in(families):
    def match(arc):
        return arc is not None and any(arc == f or arc.startswith(f + ".") for f in families)

    return match


def _restamp(trace, families, new_ticks):
    match = _arc_in(families)
    moves = [e for e in trace if e.action == "move" and match(e.arc)]
    assert len(moves) == len(new_ticks)
    mapping = {id(e): t for e, t in zip(moves, new_ticks)}
    out = [
        TraceEvent(mapping.get(id(e), e.tick), e.action, e.thing, e.kind, e.at, e.arc)
        for e in trace
    ]
    out.sort(key=lambda e: e.tick)
    return out


def _drop(trace, families):
    match = _arc_in(families)
    return [e for e in trace if not (e.action == "move" and match(e.arc))]


def _dup(trace, families, delta):
    match = _arc_in(families)
    copies = [
        TraceEvent(e.tick + delta, e.action, e.thing, e.kind, e.at, e.arc)
        for e in trace
        if e.action == "move" and match(e.arc)
    ]
    out = list(trace) + copies
    out.sort(key=lambda e: e.tick)
    return out


def test_criterion_3_chronology_conformance():
    tvm = load_corpus_model("tvm")
    program = tvm.behavior("cash_purchase").program
    happy = read_trace(golden_text("tvm_exact"))
    topup = read_trace(golden_text("tvm_topup"))
    cancel = read_trace(golden_text("tvm_cancel"))

    ok = True
    detail = ""
    for name, trace in (("happy", happy), ("topup", topup), ("cancel", cancel)):
        verdict = check(trace, tvm.events, program)
        if not (verdict.conforms and verdict.completed):
            ok = False
            detail = f"{name} trace does not conform"
    # The happy path is also the zero-repetition witness for the possible
    # repeat: it must conform with no top-up round at all.
    if any(o.event == "more_prompt" for o in check(happy, tvm.events, program).occurrences):
        ok = False
        detail = "zero-repetition witness contains a top-up round"

    mutations = [
        ("swap insert before prompt", _restamp(happy, ["23"], [5, 6, 7]), 5, "cash_in"),
        ("swap check before insert", _restamp(happy, ["24"], [36]), 36, "cash_check"),
        ("drop prompt", _drop(happy, ["21"]), 37, "cash_in"),
        ("drop insert", _drop(happy, ["23"]), 40, "cash_check"),
        ("drop check", _drop(happy, ["24"]), 41, "ticket_out"),
        ("duplicate prompt", _dup(happy, ["21"], 60), 91, "insert_prompt"),
        ("duplicate insert", _dup(happy, ["23"], 3), 40, "cash_in"),
        ("duplicate ticket", _dup(happy, ["28"], 60), 102, "ticket_out"),
        ("return before cancel", _restamp(cancel, ["30"], [42, 43, 44, 45]), 42, "cash_back"),
        ("drop cancel", _drop(cancel, ["29"]), 53, "cash_back"),
    ]
    if len(mutations) != 10:
        ok = False
        detail = "expected exactly 10 mutations"
    for label, mutated, want_tick, want_event in mutations:
        verdict = check(mutated, tvm.events, program)
        if verdict.conforms:
            ok = False
            detail = f"mutation '{label}' not rejected"
        elif verdict.first_violation.tick != want_tick or verdict.first_violation.observed != want_event:
            ok = False
            detail = (
                f"mutation '{label}': violation at {verdict.first_violation.tick} "
                f"on {verdict.first_violation.observed}, wanted {want_tick}/{want_event}"
            )
    report(3, "chronology conformance incl. 10 rejected mutations", ok, detail)


def test_criterion_4_enforcement_soundness():
    tvm = load_corpus_model("tvm")
    program = tvm.behavior("cash_purchase").program
    started = time.monotonic()
    ok = True
    detail = ""
    for seed in range(200):
        gate = enforce(tvm, program)
        trace = run(tvm, random_tvm_scenario(tvm, seed), SimConfig(max_ticks=120, gate=gate))
        verdict = check(trace, tvm.events, program)
        if not verdict.conforms:
            ok = False
            detail = f"seed {seed}: {verdict.first_violation}"
            break
    elapsed = time.monotonic() - started
    if elapsed >= 10.0:
        ok = False
        detail = f"took {elapsed:.2f}s"
    report(4, f"200 enforced runs all conform ({elapsed:.2f}s)", ok, detail)


def test_criterion_5_exclusivity_fuzz():
    started = time.monotonic()
    ok = True
    detail = ""
    for seed in range(40):
        model, used = random_valid_model(seed * 1009)
        if sum(1 for _ in model.machines()) > 10:
            ok = False
            detail = f"seed {seed}: model too large"
            break
        scenario = random_scenario(model, used + 7)
        trace = run(model, scenario, SimConfig(max_ticks=1000))
        try:
            replay_trace(model, trace)
        except AssertionError as exc:
            ok = False
            detail = f"seed {seed}: {exc}"
            break
    elapsed = time.monotonic() - started
    if elapsed >= 30.0:
        ok = False
        detail = f"took {elapsed:.2f}s"
    report(5, f"exclusivity and id freshness over 40 fuzz runs ({elapsed:.2f}s)", ok, detail)


def test_criterion_6_determinism():
    ok = True
    detail = ""
    for model_name, scenario_name, ticks in GOLDEN_RUNS:
        model = load_corpus_model(model_name)
        scenario = load_corpus_scenario(model, scenario_name)
        first = write_trace(run(model, scenario, SimConfig(max_ticks=ticks)))
        second = write_trace(run(model, scenario, SimConfig(max_ticks=ticks)))
        if first != second:
            ok = False
            detail = f"{scenario_name} differs across runs"
    report(6, "corpus runs are bit-identical across repeats", ok, detail)


def test_criterion_7_voltage_chain():
    plant = load_corpus_model("plant")
    scenario = load_corpus_scenario(plant, "plant_water")
    sim = Simulation(plant, scenario, SimConfig(max_ticks=200))
    histories: dict[int, list[int]] = {}
    ends: dict[int, str] = {}
    while sim.tick < 160 and sim.live():
        sim.step()
        for thing in sim.things.values():
            if thing.kind != "electricity":
                continue
            seq = histories.setdefault(thing.id, [])
            value = thing.attrs["voltage"]
            if not seq or seq[-1] != value:
                seq.append(value)
            ends[thing.id] = thing.site.text
    utility = [histories[i] for i, at in ends.items() if at == "plant/power/utilities.receive"]
    grid = [histories[i] for i, at in ends.items() if at == "plant/power/grid_bus.receive"]
    ok = bool(utility) and bool(grid)
    detail = "" if ok else "no electricity reached the outputs"
    if ok and any(seq != [15000, 6600, 415] for seq in utility):
        ok = False
        detail = f"utility branch stepped {utility}"
    if ok and any(seq != [15000, 132000] for seq in grid):
        ok = False
        detail = f"grid branch stepped {grid}"
    report(7, "voltage steps 15000->6600->415 and 15000->132000", ok, detail)


def test_criterion_8_history_ledger():
    ok = True
    detail = ""

    def record(unit, action, at):
        return ReplacementRecord("P101", unit, action, at, "j.kim", "gulf-maint")

    log = ReplacementLog()
    try:
        log.append(record("pump-1", "receive", "2021-03-01T08:00:00Z"))
        log.append(record("pump-1", "install", "2021-03-02T09:30:00Z"))
        log.append(record("pump-2", "receive", "2023-06-10T10:00:00Z"))
        log.append(record("pump-1", "remove", "2023-06-11T07:15:00Z"))
        log.append(record("pump-2", "install", "2023-06-11T13:45:00Z"))
    except AppendError as exc:
        ok = False
        detail = f"valid history rejected: {exc}"
    if ok and log.installed_at("P101", "2022-01-01T00:00:00Z") != "pump-1":
        ok = False
        detail = "wrong unit before replacement"
    if ok and log.installed_at("P101", "2024-01-01T00:00:00Z") != "pump-2":
        ok = False
        detail = "wrong unit after replacement"
    if ok:
        try:
            log.append(record("pump-3", "install", "2024-05-01T00:00:00Z"))
            ok = False
            detail = "install-before-receive accepted"
        except AppendError as exc:
            if exc.code != "E_ORDER":
                ok = False
                detail = f"expected E_ORDER, got {exc.code}"
    if ok:
        try:
            log.append(record("pump-3", "receive", "2024-04-01T00:00:00Z"))
            log.append(record("pump-3", "install", "2024-05-01T00:00:00Z"))
            ok = False
            detail = "double occupancy accepted"
        except AppendError as exc:
            if exc.code != "E_OCCUPIED":
                ok = False
                detail = f"expected E_OCCUPIED, got {exc.code}"
    report(8, "pump replacement ledger accepts/rejects exactly", ok, detail)


def test_criterion_9_round_trips():
    ok = True
    detail = ""
    for name in CORPUS_NAMES:
        model = load_corpus_model(name)
        reparsed, diags = load_model(print_model(model), name)
        if reparsed is None or model_signature(reparsed) != model_signature(model):
            ok = False
            detail = f"{name} print/parse round trip not isomorphic"
        for show in (True, False):
            problems = dot_check(model_to_dot(model, show_implicit=show))
            if problems:
                ok = False
                detail = f"{name} DOT invalid: {problems[0]}"
    tvm = load_corpus_model("tvm")
    from fmkit.behavior import compile_program

    automaton = compile_program(
        tvm.behavior("cash_purchase").program, {e.name for e in tvm.events}
    )
    if dot_check(behavior_to_dot(automaton)):
        ok = False
        detail = "behavior DOT invalid"
    for _, scenario_name, _ in GOLDEN_RUNS:
        text = golden_text(scenario_name)
        if write_trace(read_trace(text)) != text:
            ok = False
            detail = f"{scenario_name} trace JSONL round trip differs"
    report(9, "DSL, trace, and DOT round trips hold", ok, detail)

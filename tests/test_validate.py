from __future__ import annotations

import json

import pytest

from fmkit.canon import load_model
from fmkit.model import Endpoint, FlowArc, Model, Stage
from fmkit.validate import check_legality, check_reachability, check_structure, validate


def codes(diags):
    return [d.code for d in diags]


def test_corpus_models_validate_ok(tvm, plant, turbine):
    for model in (tvm, plant, turbine):
        report = validate(model)
        assert report.ok
        assert not report.diagnostics


def test_plant_machine_count(plant):
    report = validate(plant)
    assert report.stats.n_machines == sum(1 for _ in plant.machines()) == 45
    assert report.stats.n_spheres == 4


def test_injected_illegal_arc():
    # transfer -> process is not a legal intra-machine step; the parser and
    # canonicalizer would never produce it, so force the raw arc in.
    model, _ = load_model("thing w sphere s { machine m: w { transfer process receive } }")
    model.flows.append(
        FlowArc(
            Endpoint(("s", "m"), Stage.TRANSFER),
            Endpoint(("s", "m"), Stage.PROCESS),
            label="z",
            family="z",
        )
    )
    model.reindex()
    assert "E_LEGAL" in codes(check_legality(model))


def test_kind_crossing_flow_errors():
    model, _ = load_model(
        "thing w thing v sphere s { machine a: w { release transfer } machine b: v { transfer receive } }"
    )
    model.flows.append(
        FlowArc(
            Endpoint(("s", "a"), Stage.TRANSFER),
            Endpoint(("s", "b"), Stage.TRANSFER),
            label="x",
            family="x",
        )
    )
    model.reindex()
    assert "E_KIND" in codes(check_legality(model))


def test_guard_on_non_process_arc():
    source = (
        "thing w { ready: bool = true }\n"
        "sphere s { machine m: w { create release } "
        "flow s/m.create -> s/m.release when ready #g }"
    )
    model, diags = load_model(source)
    assert not any(d.is_error for d in diags)
    assert "E_GUARD_PLACEMENT" in codes(check_legality(model))


def test_unusual_trigger_target_warns():
    source = (
        "thing w\n"
        "sphere s { machine a: w { process } machine b: w { release transfer receive } "
        "trigger s/a.process => s/b.release #t }"
    )
    model, _ = load_model(source)
    diags = check_legality(model)
    assert "W_UNUSUAL_TRIGGER" in codes(diags)
    assert not any(d.is_error for d in diags)


def test_isolated_machine_warns():
    model, _ = load_model("thing w sphere s { machine m: w { create process } }")
    diags = check_structure(model)
    assert "W_ISOLATED" in codes(diags)
    assert not any(d.is_error for d in diags)


def test_unreachable_receive_warns():
    source = "thing w sphere s { machine m: w { receive process } flow s/m.receive -> s/m.process #a }"
    model, _ = load_model(source)
    diags = check_reachability(model)
    assert "W_UNREACHABLE" in codes(diags)


def test_tvm_has_no_unreachable_stages(tvm):
    assert check_reachability(tvm) == []


def test_empty_model_validates_clean():
    model, _ = load_model("")
    report = validate(model)
    assert report.ok
    assert report.diagnostics == ()
    assert report.stats.n_machines == 0


def test_spawn_coverage_checked():
    source = (
        "thing w thing loaded { amount: int }\n"
        "sphere s { machine a: w { process } machine b: loaded { create } "
        "trigger s/a.process => s/b.create #t }"
    )
    model, _ = load_model(source)
    assert "E_SPAWN" in codes(check_structure(model))


def test_guard_type_error_flagged():
    source = (
        "thing w { name: str = \"x\" }\n"
        "sphere s { machine a: w { process release } machine b: w { process } "
        "flow s/a.process -> s/b.process when name + 1 > 0 #g }"
    )
    model, diags = load_model(source)
    assert not any(d.is_error for d in diags)
    assert "E_GUARD" in codes(check_structure(model))


def test_dec_default_no_float_holds_is_flagged():
    big = "1" + "0" * 400
    model, diags = load_model(
        f"thing t {{ a: dec = {big}, n: int = {big} }}\n"
        "sphere s { machine m: t { create release } flow s/m.create -> s/m.release #x }"
    )
    assert not any(d.is_error for d in diags)
    found = [(d.code, d.message) for d in check_structure(model)]
    assert found == [("E_GUARD", "default of 't.a': int too large for a dec")]


def test_validate_deterministic(tvm):
    assert validate(tvm) == validate(tvm)


def test_report_json_shape(tvm):
    payload = validate(tvm).to_json()
    text = json.dumps(payload, sort_keys=True)
    parsed = json.loads(text)
    assert set(parsed) == {"diagnostics", "stats", "ok"}
    assert set(parsed["stats"]) == {"n_spheres", "n_machines", "n_flows", "n_triggers"}
    assert parsed["ok"] is True


def test_report_ok_false_with_error():
    model, _ = load_model("thing w sphere s { machine m: w { transfer process receive } }")
    model.flows.append(
        FlowArc(
            Endpoint(("s", "m"), Stage.TRANSFER),
            Endpoint(("s", "m"), Stage.PROCESS),
            label="z",
            family="z",
        )
    )
    model.reindex()
    assert not validate(model).ok


def test_validated_model_simulates_without_structural_errors(tvm):
    # Everything the simulator resolves at runtime is pre-validated.
    from fmkit.simulate import Scenario, SimConfig, Simulation

    sim = Simulation(tvm, Scenario(()), SimConfig(max_ticks=5))
    for arc in tvm.flows:
        assert tvm.find_machine(arc.src.path) is not None
        assert tvm.find_machine(arc.dst.path) is not None
    for trig in tvm.triggers:
        assert tvm.find_machine(trig.dst.path) is not None
    assert sim.live() is False


def test_reachability_requires_a_canonical_model():
    with pytest.raises(ValueError) as exc:
        check_reachability(Model({}, [], [], [], [], []))
    assert str(exc.value) == "check_reachability requires a canonical model"

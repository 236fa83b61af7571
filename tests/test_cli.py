from __future__ import annotations

import builtins
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest
from conftest import KIND_MODEL, golden_text
from oracle import run_oracle

from fmkit import behavior, cli, jsonl
from fmkit.canon import load_model
from fmkit.cli import main
from fmkit.export import read_trace, write_trace
from fmkit.model import Endpoint, Stage
from fmkit.simulate import Injection, Scenario, SimConfig, run
from fmkit.validate import validate

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_tvm_ok(capsys):
    code, out, err = run_cli(capsys, "check", str(CORPUS / "tvm.fm"))
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["stats"]["n_machines"] == 28


def test_check_illegal_model_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.fm"
    bad.write_text(
        "thing w sphere s { machine m: w { create process } flow s/m.process -> s/m.create #x }"
    )
    code, out, err = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert "no-legal-expansion" in err


def test_check_missing_file_exits_two(capsys):
    code, out, err = run_cli(capsys, "check", "no/such/file.fm")
    assert code == 2
    assert "cannot read" in err


def test_sim_observe_happy_path(capsys, tmp_path):
    trace_path = tmp_path / "out.jsonl"
    code, out, err = run_cli(
        capsys,
        "sim", str(CORPUS / "tvm.fm"),
        "--scenario", str(CORPUS / "tvm_exact.fms"),
        "--ticks", "200",
        "--trace", str(trace_path),
        "--behavior", "cash_purchase",
        "--mode", "observe",
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["conforms"] is True
    assert trace_path.read_text() == golden_text("tvm_exact")


def test_sim_nonconforming_exits_one(capsys, tmp_path):
    # Cash arrives and is processed with no session: occurrences without a
    # leading prompt violate the program in observe mode.
    scenario = tmp_path / "rogue.fms"
    scenario.write_text("inject cash at passenger/cash.create tick 0 { amount = 5, fare = 5 }\n")
    code, out, err = run_cli(
        capsys,
        "sim", str(CORPUS / "tvm.fm"),
        "--scenario", str(scenario),
        "--ticks", "100",
        "--trace", str(tmp_path / "t.jsonl"),
        "--behavior", "cash_purchase",
        "--mode", "observe",
    )
    assert code == 1
    verdict = json.loads(out)
    assert verdict["conforms"] is False
    assert verdict["first_violation"]["observed"] == "cash_in"


def test_verdict_with_non_ascii_event_names_is_what_dumps_writes(capsys, tmp_path):
    # The verdict writer encodes each event name once, as the encoder does:
    # non-ASCII text as \u escapes.
    source = (CORPUS / "tvm.fm").read_text(encoding="utf-8").replace("cash_in", "café_in")
    model_path = tmp_path / "tvm.fm"
    model_path.write_text(source, encoding="utf-8")
    trace_path = tmp_path / "t.jsonl"
    code, out, err = run_cli(
        capsys,
        "sim", str(model_path),
        "--scenario", str(CORPUS / "tvm_exact.fms"),
        "--trace", str(trace_path),
        "--behavior", "cash_purchase",
        "--mode", "observe",
    )
    model, _ = load_model(source, str(model_path))
    verdict = behavior.check(read_trace(trace_path.read_text(encoding="utf-8")), model.events,
                             model.behavior("cash_purchase").program)
    assert "café_in" in {occ.event for occ in verdict.occurrences}
    assert (code, out, err) == (0, jsonl.dumps(verdict.to_json()) + "\n", "")
    assert "caf\\u00e9_in" in out
    odd = tuple(behavior.Occurrence(name, i, i + 1, i) for i, name in enumerate(["café", "日本", 'a"b\\c', "café"]))
    for shown in (verdict, behavior.Verdict(True, None, odd, False)):
        cli._print_verdict(shown)
        assert capsys.readouterr().out == jsonl.dumps(shown.to_json()) + "\n"


def test_sim_enforce_mode_conforms(capsys, tmp_path):
    scenario = tmp_path / "rogue.fms"
    scenario.write_text("inject cash at passenger/cash.create tick 0 { amount = 5, fare = 5 }\n")
    code, out, err = run_cli(
        capsys,
        "sim", str(CORPUS / "tvm.fm"),
        "--scenario", str(scenario),
        "--ticks", "100",
        "--trace", str(tmp_path / "t.jsonl"),
        "--behavior", "cash_purchase",
        "--mode", "enforce",
    )
    assert code == 0
    assert json.loads(out)["conforms"] is True


# `fmkit sim --behavior cash_purchase` in both modes, then `fmkit conform` on
# the trace it wrote, pinned as (sim exit code, sha256 prefix of sim stdout,
# sha256 prefix of the trace file, conform exit code).  Both commands print
# nothing on stderr, and conform prints the verdict sim printed.
ROGUE_CASH = "inject cash at passenger/cash.create tick 0 { amount = 5, fare = 5 }\n"
SIM_CONFORM_OUTPUT = {
    ("tvm_cancel", "observe"): (0, "1147c375448bf6a2", "3daa2dea4cf6b8a9", 0),
    ("tvm_cancel", "enforce"): (0, "1147c375448bf6a2", "3daa2dea4cf6b8a9", 0),
    ("tvm_exact", "observe"): (0, "796c14566639c6f1", "ca6986c911482564", 0),
    ("tvm_exact", "enforce"): (0, "796c14566639c6f1", "ca6986c911482564", 0),
    ("tvm_insufficient", "observe"): (0, "191368ad6e91dd9e", "d6dfb2dd9822d50c", 0),
    ("tvm_insufficient", "enforce"): (0, "191368ad6e91dd9e", "d6dfb2dd9822d50c", 0),
    ("tvm_topup", "observe"): (0, "9ce1b0c67878df91", "192860cb7a50e6ed", 0),
    ("tvm_topup", "enforce"): (0, "9ce1b0c67878df91", "192860cb7a50e6ed", 0),
    ("rogue_cash", "observe"): (1, "f8db2e8dbed15685", "6b8ca35170bdba9d", 1),
    ("rogue_cash", "enforce"): (0, "43d9d15e0b7c4006", "674946244d9c4daa", 0),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("scenario, mode", sorted(SIM_CONFORM_OUTPUT))
def test_sim_and_conform_output_is_pinned(capsys, tmp_path, scenario, mode):
    if scenario == "rogue_cash":
        scenario_path = tmp_path / "rogue.fms"
        scenario_path.write_text(ROGUE_CASH)
    else:
        scenario_path = CORPUS / f"{scenario}.fms"
    model, trace = str(CORPUS / "tvm.fm"), tmp_path / "t.jsonl"
    code, out, err = run_cli(
        capsys,
        "sim", model, "--scenario", str(scenario_path), "--trace", str(trace),
        "--behavior", "cash_purchase", "--mode", mode,
    )
    conform_code, conform_out, conform_err = run_cli(
        capsys, "conform", model, "--behavior", "cash_purchase", "--trace", str(trace)
    )
    assert (code, _sha(out), _sha(trace.read_text()), conform_code) == SIM_CONFORM_OUTPUT[(scenario, mode)]
    assert (err, conform_err, conform_out) == ("", "", out)


def test_sim_enforce_prints_the_gates_verdict_without_a_rescan(capsys, tmp_path, monkeypatch):
    def rescan(*args):
        raise AssertionError("sim --mode enforce scanned its trace again")

    monkeypatch.setattr(behavior, "detect_occurrences", rescan)
    monkeypatch.setattr(behavior, "check", rescan)
    code, out, err = run_cli(
        capsys,
        "sim", str(CORPUS / "tvm.fm"), "--scenario", str(CORPUS / "tvm_cancel.fms"),
        "--trace", str(tmp_path / "t.jsonl"), "--behavior", "cash_purchase", "--mode", "enforce",
    )
    assert (code, _sha(out), err) == (0, SIM_CONFORM_OUTPUT[("tvm_cancel", "enforce")][1], "")


BIG_INT = "1" + "0" * 400  # no float holds it
ARCS = "sphere s {{ machine m: t {{ create process release }} flow s/m.create -> s/m.process #in flow s/m.process -> s/m.release{} #y }}\n"


def test_sim_int_too_large_for_a_dec_is_no_traceback(capsys, tmp_path):
    scenario = tmp_path / "one.fms"
    scenario.write_text("inject t at s/m.create tick 0\n")
    default = tmp_path / "default.fm"
    default.write_text(f"thing t {{ a: dec = {BIG_INT} }}\n" + ARCS.format(""))
    message = "<model>:1:1: error[E_GUARD]: default of 't.a': int too large for a dec\n"
    assert run_cli(capsys, "sim", str(default), "--scenario", str(scenario)) == (1, "", message)
    guard = tmp_path / "guard.fm"
    guard.write_text(f"thing t {{ n: int = {BIG_INT}, a: dec = 1.0 }}\n" + ARCS.format(" when n + a > 0.0"))
    code, out, err = run_cli(capsys, "sim", str(guard), "--scenario", str(scenario))
    assert (code, err) == (0, "")
    assert '{"action":"blocked","arc":"y","at":"s/m.process","kind":"t","thing":1,"tick":2}' in out.splitlines()
    injected = tmp_path / "injected.fms"
    injected.write_text(f"inject t at s/m.create tick 0 {{ a = {BIG_INT} }}\n")
    dec = tmp_path / "dec.fm"
    dec.write_text("thing t { a: dec }\n" + ARCS.format(""))
    message = f"{injected}:1:1: error[E_SCENARIO]: attribute 'a': int too large for a dec\n"
    assert run_cli(capsys, "sim", str(dec), "--scenario", str(injected)) == (2, "", message)


# An assign and a spawn that store an int no float holds in a dec attribute:
# validation cannot know the value, so the simulator blocks those records.
STORED_BIG_INT = (
    f"thing t {{ n: int = {BIG_INT}, a: dec = 1.0 }}\n"
    "sphere s { machine m: t { create process release assign { a = n } } machine k: t { create process }\n"
    "  flow s/m.create -> s/m.process #in flow s/m.process -> s/m.release #y flow s/k.create -> s/k.process #kin\n"
    "  trigger s/m.process => s/k.create spawn { a = n } #sp }\n"
)


def test_sim_int_too_large_for_a_dec_stored_by_assign_or_spawn_is_blocked(capsys, tmp_path):
    model = tmp_path / "stored.fm"
    model.write_text(STORED_BIG_INT)
    scenario = tmp_path / "one.fms"
    scenario.write_text("inject t at s/m.create tick 0\n")
    assert run_cli(capsys, "check", str(model))[0] == 0
    code, out, err = run_cli(capsys, "sim", str(model), "--scenario", str(scenario))
    assert (code, err) == (0, "")
    assert out.splitlines()[2:5] == [
        '{"action":"blocked","arc":null,"at":"s/m.process","kind":"t","thing":1,"tick":2}',
        '{"action":"blocked","arc":"sp","at":"s/m.process","kind":"t","thing":1,"tick":2}',
        '{"action":"move","arc":"y","at":"s/m.release","kind":"t","thing":1,"tick":2}',
    ]


# The same spawn into a machine of another kind, whose dec attributes are not
# the source kind's: the spawned kind decides which values become floats.
SPAWNED_BIG_INT = "thing u { b: dec = 1.0 }\n" + STORED_BIG_INT.replace("k: t", "k: u").replace("{ a = n } #sp", "{ b = n } #sp")


def test_int_too_large_for_a_dec_blocks_as_the_oracle_does():
    for source in (STORED_BIG_INT, SPAWNED_BIG_INT):
        model, diags = load_model(source)
        assert diags == [] and validate(model).ok
        scenario = Scenario((Injection(0, "t", Endpoint(("s", "m"), Stage.CREATE), ()),))
        trace = write_trace(run(model, scenario, SimConfig(max_ticks=20)))
        assert trace == run_oracle(model, scenario, max_ticks=20)
        assert sum(1 for line in trace.splitlines() if '"blocked"' in line) == 2


def test_sim_plant_without_behavior(capsys, tmp_path):
    trace_path = tmp_path / "plant.jsonl"
    code, out, err = run_cli(
        capsys,
        "sim", str(CORPUS / "plant.fm"),
        "--scenario", str(CORPUS / "plant_water.fms"),
        "--ticks", "60",
        "--trace", str(trace_path),
    )
    assert code == 0
    assert trace_path.read_text() == golden_text("plant_water")


def test_sim_bad_scenario_exits_two(capsys, tmp_path):
    scenario = tmp_path / "bad.fms"
    scenario.write_text("inject cash at passenger/cash.create tick 0\n")  # missing attrs
    code, out, err = run_cli(
        capsys,
        "sim", str(CORPUS / "tvm.fm"), "--scenario", str(scenario),
    )
    assert code == 2
    assert "lacks required attribute" in err


@pytest.mark.parametrize(
    "flag, value, message",
    [("--ticks", "-1", "fmkit: sim --ticks must be >= 0, got -1"),
     ("--dwell", "0", "fmkit: sim --dwell must be >= 1, got 0"),
     ("--mode", "enforce", "fmkit: sim --mode enforce needs --behavior")],
)
def test_sim_out_of_range_flag_exits_two(capsys, flag, value, message):
    code, out, err = run_cli(
        capsys,
        "sim", str(CORPUS / "tvm.fm"), "--scenario", str(CORPUS / "tvm_exact.fms"), flag, value,
    )
    assert code == 2
    assert out == ""
    assert err == message + "\n"


def test_dot_model_stdout(capsys):
    code, out, err = run_cli(capsys, "dot", str(CORPUS / "tvm.fm"))
    assert code == 0
    assert out.startswith("digraph model {")


def test_dot_behavior(capsys):
    code, out, err = run_cli(capsys, "dot", str(CORPUS / "tvm.fm"), "--behavior", "cash_purchase")
    assert code == 0
    assert out.startswith("digraph behavior {")


def test_dot_unknown_behavior_exits_two(capsys):
    code, out, err = run_cli(capsys, "dot", str(CORPUS / "tvm.fm"), "--behavior", "nope")
    assert code == 2


@pytest.mark.parametrize("command", ["conform", "dot", "sim-enforce", "sim-observe"])
def test_behavior_past_the_state_limit_is_one_diagnostic(capsys, tmp_path, monkeypatch, command):
    monkeypatch.setattr(behavior, "MAX_STATES", 4)
    model = str(CORPUS / "tvm.fm")
    trace = tmp_path / "t.jsonl"
    trace.write_text(golden_text("tvm_exact"))
    sim = ["sim", model, "--scenario", str(CORPUS / "tvm_exact.fms"), "--behavior", "cash_purchase"]
    argv = {
        "conform": ["conform", model, "--behavior", "cash_purchase", "--trace", str(trace)],
        "dot": ["dot", model, "--behavior", "cash_purchase"],
        "sim-enforce": sim + ["--mode", "enforce"],
        "sim-observe": sim,
    }[command]
    code, out, err = run_cli(capsys, *argv)
    line = (CORPUS / "tvm.fm").read_text().splitlines().index("behavior cash_purchase {") + 1
    message = "behavior 'cash_purchase': the behavior's automaton needs more than 4 states"
    assert (code, out, err) == (1, "", f"{model}:{line}:1: error[behavior-too-large]: {message}\n")


def test_conform_golden_trace(capsys, tmp_path):
    trace_path = tmp_path / "golden.jsonl"
    trace_path.write_text(golden_text("tvm_exact"))
    code, out, err = run_cli(
        capsys,
        "conform", str(CORPUS / "tvm.fm"),
        "--behavior", "cash_purchase",
        "--trace", str(trace_path),
    )
    assert code == 0
    assert json.loads(out)["conforms"] is True


def test_conform_malformed_trace_exits_two(capsys, tmp_path):
    trace_path = tmp_path / "bad.jsonl"
    trace_path.write_text('{"action":"move"}\n')
    code, out, err = run_cli(
        capsys,
        "conform", str(CORPUS / "tvm.fm"),
        "--behavior", "cash_purchase",
        "--trace", str(trace_path),
    )
    assert code == 2
    assert "line 1" in err


def test_conform_trace_with_a_late_bad_byte_prints_no_verdict(capsys, tmp_path):
    # The trace is scanned as it is read: thousands of valid lines, read
    # and scanned, come before the byte that is not UTF-8.
    trace_path = tmp_path / "late.jsonl"
    trace_path.write_bytes(golden_text("tvm_exact").encode("utf-8") * 100 + b'{"action":"\xff"}\n')
    code, out, err = run_cli(
        capsys, "conform", str(CORPUS / "tvm.fm"), "--behavior", "cash_purchase", "--trace", str(trace_path)
    )
    assert (code, out, err) == (2, "", f"fmkit: cannot read {trace_path}: not valid UTF-8\n")


def test_history_point_query(capsys):
    code, out, err = run_cli(
        capsys,
        "history", str(CORPUS / "pump_history.fmh"),
        "--slot", "P101", "--at", "2022-01-01T00:00:00Z",
    )
    assert code == 0
    assert out.strip() == "pump-1"


def test_history_query_after_swap(capsys):
    code, out, err = run_cli(
        capsys,
        "history", str(CORPUS / "pump_history.fmh"),
        "--slot", "P101", "--at", "2024-01-01T00:00:00Z",
    )
    assert code == 0
    assert out.strip() == "pump-2"


def test_history_timeline(capsys):
    code, out, err = run_cli(
        capsys, "history", str(CORPUS / "pump_history.fmh"), "--slot", "P101", "--timeline",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_history_append_rejection(capsys, tmp_path):
    log_path = tmp_path / "log.fmh"
    log_path.write_text((CORPUS / "pump_history.fmh").read_text())
    record = json.dumps(
        {
            "slot": "P101", "unit": "pump-3", "action": "install",
            "at": "2024-02-01T00:00:00Z", "performer": "x", "contractor": "y",
        }
    )
    code, out, err = run_cli(capsys, "history", str(log_path), "--append", record)
    assert code == 1
    assert "E_ORDER" in err
    assert log_path.read_text() == (CORPUS / "pump_history.fmh").read_text()


def test_history_append_accepted(capsys, tmp_path):
    log_path = tmp_path / "log.fmh"
    log_path.write_text((CORPUS / "pump_history.fmh").read_text())
    record = json.dumps(
        {
            "slot": "P101", "unit": "pump-2", "action": "remove",
            "at": "2025-01-01T00:00:00Z", "performer": "x", "contractor": "y",
        }
    )
    code, out, err = run_cli(capsys, "history", str(log_path), "--append", record)
    assert code == 0
    assert len(log_path.read_text().splitlines()) == 6


def test_cli_outputs_are_deterministic(capsys):
    first = run_cli(capsys, "dot", str(CORPUS / "plant.fm"))
    second = run_cli(capsys, "dot", str(CORPUS / "plant.fm"))
    assert first == second
    c1 = run_cli(capsys, "check", str(CORPUS / "turbine.fm"))
    c2 = run_cli(capsys, "check", str(CORPUS / "turbine.fm"))
    assert c1 == c2


# Each command in a fresh interpreter under two hash seeds: neither the
# order of sets and dicts keyed by strings nor identity hashes may reach an
# output.  Paths are relative to corpus/.
HASH_SEED_COMMANDS = {
    "check": ["check", "plant.fm"],
    "dot": ["dot", "plant.fm"],
    "dot-authored": ["dot", "plant.fm", "--no-show-implicit"],
    "dot-behavior": ["dot", "tvm.fm", "--behavior", "cash_purchase"],
    "sim": ["sim", "plant.fm", "--scenario", "plant_water.fms", "--ticks", "200"],
    "sim-observe": ["sim", "tvm.fm", "--scenario", "tvm_topup.fms", "--behavior", "cash_purchase"],
    "sim-enforce": ["sim", "tvm.fm", "--scenario", "tvm_cancel.fms", "--behavior", "cash_purchase", "--mode", "enforce"],
    "conform": ["conform", "tvm.fm", "--behavior", "cash_purchase", "--trace", "../tests/golden/tvm_topup.jsonl"],
}


@pytest.mark.parametrize("command", HASH_SEED_COMMANDS)
def test_outputs_do_not_depend_on_the_hash_seed(command):
    argv = HASH_SEED_COMMANDS[command]

    def run(seed: str) -> tuple[int, str, str]:
        env = dict(os.environ, PYTHONPATH=str(CORPUS.parent / "src"), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-m", "fmkit.cli", *argv], capture_output=True, text=True, env=env, cwd=CORPUS)
        return done.returncode, done.stdout, done.stderr

    first = run("0")
    assert first[0] == 0 and first[1]
    assert run("12345") == first


def test_usage_error_exits_two(capsys):
    code = main(["sim", str(CORPUS / "tvm.fm")])  # missing --scenario
    capsys.readouterr()
    assert code == 2


GOOD_RECORD = {"tick": 1, "action": "move", "thing": 1, "kind": "cash", "at": "tvm/cash.receive", "arc": "23"}


@pytest.mark.parametrize(
    "field,value",
    [
        ("tick", True),
        ("tick", "1"),
        ("thing", True),
        ("thing", "x"),
        ("kind", 7),
        ("at", False),
        ("arc", 23),
        ("action", ["move"]),
    ],
    ids=["tick-bool", "tick-str", "thing-bool", "thing-str", "kind-int", "at-bool", "arc-int", "action-list"],
)
def test_conform_rejects_mistyped_field(capsys, tmp_path, field, value):
    trace_path = tmp_path / "bad.jsonl"
    trace_path.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(dict(GOOD_RECORD, **{field: value})) + "\n")
    code, out, err = run_cli(
        capsys,
        "conform", str(CORPUS / "tvm.fm"),
        "--behavior", "cash_purchase",
        "--trace", str(trace_path),
    )
    assert code == 2
    assert "line 2" in err and field in err
    assert out == ""


DEEP = "[" * 100_000


def test_conform_deeply_nested_line_exits_two(capsys, tmp_path):
    trace_path = tmp_path / "deep.jsonl"
    trace_path.write_text(json.dumps(GOOD_RECORD) + "\n" + DEEP + "\n")
    code, out, err = run_cli(
        capsys,
        "conform", str(CORPUS / "tvm.fm"),
        "--behavior", "cash_purchase",
        "--trace", str(trace_path),
    )
    assert code == 2
    assert "line 2: not valid JSON: nesting too deep" in err
    assert out == ""


def _ledger_with(tmp_path, line: str) -> pathlib.Path:
    log_path = tmp_path / "log.fmh"
    log_path.write_text((CORPUS / "pump_history.fmh").read_text() + line + "\n")
    return log_path


def test_history_deeply_nested_line_exits_two(capsys, tmp_path):
    log_path = _ledger_with(tmp_path, DEEP)
    code, out, err = run_cli(capsys, "history", str(log_path), "--slot", "P101", "--timeline")
    assert code == 2
    assert "line 6: not valid JSON: nesting too deep" in err
    assert out == ""


def test_history_append_deeply_nested_value_is_rejected(capsys, tmp_path):
    log_path = _ledger_with(tmp_path, "")
    before = log_path.read_text()
    code, out, err = run_cli(capsys, "history", str(log_path), "--append", DEEP)
    assert code == 1
    assert "append rejected: not valid JSON: nesting too deep" in err
    assert log_path.read_text() == before


@pytest.mark.parametrize("stamp", ["9999-12-31T23:59:59-01:00", "0001-01-01T00:00:00+01:00"])
def test_history_stamp_out_of_range_in_utc_is_one_line(capsys, tmp_path, stamp):
    reason = f"timestamp '{stamp}' is out of range in UTC"
    message = f"bad-timestamp: {reason}"
    log_path = _ledger_with(tmp_path, "")
    before = log_path.read_text()
    query = run_cli(capsys, "history", str(log_path), "--slot", "P101", "--at", stamp)
    assert query == (2, "", f"fmkit: {message}\n")
    append = run_cli(capsys, "history", str(log_path), "--append", json.dumps(dict(GOOD_LEDGER_RECORD, at=stamp)))
    assert append == (1, "", f"fmkit: append rejected: {message}\n")
    assert log_path.read_text() == before
    bad_log = _ledger_with(tmp_path, json.dumps(dict(GOOD_LEDGER_RECORD, at=stamp)))
    load = run_cli(capsys, "history", str(bad_log), "--slot", "P101", "--timeline")
    assert load == (2, "", f"fmkit: {bad_log}: bad-timestamp: line 6: {reason}\n")


def _digits_past_the_int_limit() -> str:
    """An integer literal one digit longer than int() converts from text;
    the decoder raises a plain ValueError on it."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        pytest.skip("this Python converts integers of any length")
    return "9" * (limit + 1)


def test_conform_integer_past_the_digit_limit_exits_two(capsys, tmp_path):
    trace_path = tmp_path / "huge.jsonl"
    huge = json.dumps(GOOD_RECORD, separators=(",", ":")).replace('"tick":1', f'"tick":{_digits_past_the_int_limit()}')
    trace_path.write_text(json.dumps(GOOD_RECORD) + "\n" + huge + "\n")
    result = run_cli(capsys, "conform", str(CORPUS / "tvm.fm"), "--behavior", "cash_purchase", "--trace", str(trace_path))
    assert result == (2, "", f"fmkit: {trace_path}: line 2: not valid JSON: number is out of range\n")


def test_history_integer_past_the_digit_limit_is_a_bad_record(capsys, tmp_path):
    log_path = _ledger_with(tmp_path, f'{{"x":{_digits_past_the_int_limit()}}}')
    result = run_cli(capsys, "history", str(log_path), "--slot", "P101", "--timeline")
    assert result == (2, "", f"fmkit: {log_path}: bad-record: line 6: not valid JSON: number is out of range\n")


def test_history_append_integer_past_the_digit_limit_is_rejected(capsys, tmp_path):
    log_path = _ledger_with(tmp_path, "")
    before = log_path.read_text()
    result = run_cli(capsys, "history", str(log_path), "--append", f'{{"x":{_digits_past_the_int_limit()}}}')
    assert result == (1, "", "fmkit: append rejected: not valid JSON: number is out of range\n")
    assert log_path.read_text() == before


GOOD_LEDGER_RECORD = {
    "slot": "P102", "unit": "pump-9", "action": "receive",
    "at": "2024-01-01T00:00:00Z", "performer": "x", "contractor": "y",
}


@pytest.mark.parametrize(
    "field,value",
    [
        ("slot", 1),
        ("unit", ["pump-9"]),
        ("action", None),
        ("at", 5),
        ("performer", 1),
        ("contractor", True),
        ("note", 3),
    ],
    ids=["slot-int", "unit-list", "action-null", "at-int", "performer-int", "contractor-bool", "note-int"],
)
def test_history_rejects_mistyped_record_field(capsys, tmp_path, field, value):
    log_path = _ledger_with(tmp_path, json.dumps(dict(GOOD_LEDGER_RECORD, **{field: value})))
    code, out, err = run_cli(capsys, "history", str(log_path), "--slot", "P101", "--timeline")
    assert code == 2
    assert "line 6" in err and f"'{field}' must be a string" in err
    assert out == ""


def test_history_rejects_a_line_that_is_not_an_object(capsys, tmp_path):
    log_path = _ledger_with(tmp_path, "1")
    code, out, err = run_cli(capsys, "history", str(log_path), "--slot", "P101", "--timeline")
    assert code == 2
    assert "line 6" in err and "expected a JSON object" in err


def test_history_append_non_object_is_rejected(capsys, tmp_path):
    log_path = _ledger_with(tmp_path, "")
    before = log_path.read_text()
    code, out, err = run_cli(capsys, "history", str(log_path), "--append", "1")
    assert code == 1
    assert "append rejected: bad-record: expected a JSON object" in err
    assert log_path.read_text() == before


def test_check_deep_nesting_exits_one_with_diagnostic(capsys, tmp_path):
    model_path = tmp_path / "deep.fm"
    model_path.write_text(
        "thing t { n: int }\n"
        "sphere s {\n"
        "  machine m: t { create transfer }\n"
        f"  flow s/m.create -> s/m.transfer when {'(' * 3000}n > 0{')' * 3000}\n"
        "}\n"
    )
    code, out, err = run_cli(capsys, "check", str(model_path))
    assert code == 1
    assert out == ""
    assert f"{model_path}:4:" in err
    assert "error[nesting-too-deep]: nesting is deeper than 200 levels" in err
    assert "Traceback" not in err and "RecursionError" not in err


# Superscripts and other digits that are not decimal used to start a number
# that int() or float() then refused, ending in a ValueError traceback.

SMALL_MODEL = (
    "thing t { n: int = 0 }\n"
    "sphere s {\n"
    "  machine m: t { create transfer }\n"
    "  flow s/m.create -> s/m.transferGUARD #f\n"
    "}\n"
)


@pytest.mark.parametrize(
    "source,where",
    [
        ("thing t { a: int = ² }\n", ":1:20:"),
        ("thing t { a: dec = 1.² }\n", ":1:22:"),
        (SMALL_MODEL.replace("GUARD", " when n > ²"), ":4:44:"),
    ],
    ids=["int-default", "dec-default", "guard"],
)
def test_check_non_decimal_digit_is_a_lex_error(capsys, tmp_path, source, where):
    model_path = tmp_path / "m.fm"
    model_path.write_text(source, encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(model_path))
    assert code == 1
    assert out == ""
    assert f"{model_path}{where} error[lex-error]: unexpected character '²'" in err
    assert "Traceback" not in err and "ValueError" not in err


def test_sim_non_decimal_tick_is_a_lex_error(capsys, tmp_path):
    # Scenario problems are usage errors: sim exits 2 for them, as for any
    # other bad scenario.
    model_path = tmp_path / "m.fm"
    model_path.write_text(SMALL_MODEL.replace("GUARD", ""), encoding="utf-8")
    scenario = tmp_path / "s.fms"
    scenario.write_text("inject t at s/m.create tick ²\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "sim", str(model_path), "--scenario", str(scenario))
    assert code == 2
    assert out == ""
    assert f"{scenario}:1:29: error[lex-error]: unexpected character '²'" in err
    assert "Traceback" not in err and "ValueError" not in err


# Each scenario finding points at the 'inject' of its line; the third line
# below is indented by two blanks.
SCENARIO_FINDINGS = {
    "unresolved-target": ("inject cash at passenger/till.create tick 0 { amount = 5, fare = 5 }",
                          "injection target passenger/till.create: "),
    "not-create": ("inject cash at tvm/cash.receive tick 0 { amount = 5, fare = 5 }",
                   "injection target tvm/cash.receive is not a create stage"),
    "wrong-kind": ("inject ticket at passenger/cash.create tick 0",
                   "injection of 'ticket' into a machine of kind 'cash'"),
    "unknown-kind": ("inject ghost at passenger/cash.create tick 0", "unknown thing kind 'ghost'"),
    "missing-attr": ("inject cash at passenger/cash.create tick 0 { amount = 5 }",
                     "injection of 'cash' lacks required attribute 'fare'"),
    "unknown-attr": ("inject cash at passenger/cash.create tick 0 { amount = 5, fare = 5, tip = 1 }",
                     "'cash' has no attribute 'tip'"),
    "mistyped-attr": ('inject cash at passenger/cash.create tick 0 { amount = "5", fare = 5 }',
                      "attribute 'amount' expects int"),
}


@pytest.mark.parametrize("case", sorted(SCENARIO_FINDINGS))
def test_sim_scenario_finding_points_at_its_line(capsys, tmp_path, case):
    line, message = SCENARIO_FINDINGS[case]
    scenario = tmp_path / "s.fms"
    scenario.write_text(f"inject start_request at passenger/start.create tick 0\n// next\n  {line}\n")
    code, out, err = run_cli(capsys, "sim", str(CORPUS / "tvm.fm"), "--scenario", str(scenario))
    assert code == 2
    assert out == ""
    assert f"{scenario}:3:3: error[E_SCENARIO]: {message}" in err


# A value whose type its attribute cannot hold used to pass validation and
# end the simulation in a TypeError at a guard 'x > 0'.
MISTYPED_FLOWS = "  flow s/m.create -> s/m.process\n  flow s/m.process -> s/m.release when x > 0\n"
MISTYPED = {
    "default": ('thing w { x: int = "oops" }\n'
                "sphere s {\n"
                "  machine m: w { create process release }\n" + MISTYPED_FLOWS + "}\n",
                "default of 'w.x': expected int, got str"),
    "assign": ("thing w { x: int = 1 }\n"
               "sphere s {\n"
               '  machine m: w { create process release assign { x = "s" } }\n' + MISTYPED_FLOWS + "}\n",
               "assign 'x' on s/m: expected int, got str"),
    "spawn": ("thing w\n"
              "thing v { x: int }\n"
              "sphere s {\n"
              "  machine a: w { create process }\n"
              "  machine m: v { create process release }\n"
              "  flow s/a.create -> s/a.process\n"
              '  trigger s/a.process => s/m.create spawn { x = "s" } #go\n' + MISTYPED_FLOWS + "}\n",
              "spawn attribute 'x' on trigger 'go': expected int, got str"),
}


@pytest.mark.parametrize("case", sorted(MISTYPED))
def test_mistyped_value_is_a_diagnostic_not_a_traceback(capsys, tmp_path, case):
    source, message = MISTYPED[case]
    model_path = tmp_path / "m.fm"
    model_path.write_text(source, encoding="utf-8")
    scenario = tmp_path / "s.fms"
    entry = "s/a" if case == "spawn" else "s/m"
    scenario.write_text(f"inject w at {entry}.create tick 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(model_path))
    assert code == 1
    assert json.loads(out)["diagnostics"][0]["message"] == message
    code, out, err = run_cli(capsys, "sim", str(model_path), "--scenario", str(scenario))
    assert code == 1
    assert out == ""
    assert f"error[E_GUARD]: {message}" in err


# `fmkit check` output pinned byte for byte: the corpus models, and a model
# with one finding of most validation codes (E_LEGAL cannot come from
# source).  Findings carry the fixed `<model>:1:1` location for now.

CHECK_OUTPUT = {
    "tvm": '{"diagnostics":[],"ok":true,"stats":{"n_flows":70,"n_machines":28,"n_spheres":3,"n_triggers":13}}\n',
    "plant": '{"diagnostics":[],"ok":true,"stats":{"n_flows":219,"n_machines":45,"n_spheres":4,"n_triggers":4}}\n',
    "turbine": '{"diagnostics":[],"ok":true,"stats":{"n_flows":134,"n_machines":33,"n_spheres":1,"n_triggers":11}}\n',
}


@pytest.mark.parametrize("name", sorted(CHECK_OUTPUT))
def test_check_corpus_output_is_pinned(capsys, name):
    assert run_cli(capsys, "check", str(CORPUS / f"{name}.fm")) == (0, CHECK_OUTPUT[name], "")


# The corpus outputs nothing above pins, as (exit code, sha256 prefix of
# stdout, stderr): DOT in both modes and of a behaviour, dwell-2 traces, and
# history queries.  Corpus file names stand for their paths.
CORPUS_OUTPUT = {
    ("dot", "plant.fm"): (0, "fa344ed164747d34", ""),
    ("dot", "plant.fm", "--no-show-implicit"): (0, "f99e8e1291743016", ""),
    ("dot", "turbine.fm"): (0, "2d267575368701a6", ""),
    ("dot", "turbine.fm", "--no-show-implicit"): (0, "af19bb327cc78db4", ""),
    ("dot", "tvm.fm"): (0, "0a7fd36e36b55593", ""),
    ("dot", "tvm.fm", "--no-show-implicit"): (0, "d51204808084ab86", ""),
    ("dot", "tvm.fm", "--behavior", "cash_purchase"): (0, "155973d23fb55149", ""),
    ("sim", "plant.fm", "--scenario", "plant_water.fms", "--dwell", "2"): (0, "823e278190f881fc", ""),
    ("sim", "tvm.fm", "--scenario", "tvm_cancel.fms", "--dwell", "2"): (0, "fdba8b94ac93e41b", ""),
    ("sim", "tvm.fm", "--scenario", "tvm_exact.fms", "--dwell", "2"): (0, "2888efc1c2453e91", ""),
    ("sim", "tvm.fm", "--scenario", "tvm_insufficient.fms", "--dwell", "2"): (0, "6742ddca1e7145ea", ""),
    ("sim", "tvm.fm", "--scenario", "tvm_topup.fms", "--dwell", "2"): (0, "6c5387584fee2478", ""),
    ("history", "pump_history.fmh", "--slot", "P101", "--at", "2024-01-01T00:00:00Z"): (0, "fe03311f01b5aac3", ""),
    ("history", "pump_history.fmh", "--slot", "P101", "--timeline"): (0, "f4e02476f830a577", ""),
}


@pytest.mark.parametrize("argv", sorted(CORPUS_OUTPUT), ids="_".join)
def test_corpus_output_is_pinned(capsys, argv):
    paths = [str(CORPUS / arg) if arg.endswith((".fm", ".fms", ".fmh")) else arg for arg in argv]
    code, out, err = run_cli(capsys, *paths)
    assert (code, _sha(out), err) == CORPUS_OUTPUT[argv]


FINDINGS_MODEL = """\
thing w { n: int, s: str = "x" }
thing v
sphere s {
  machine a: w { create process release transfer }
  machine c: v { create process }
  machine d: w { receive process }
  machine e: v { process }
  flow s/a.create -> s/a.process when n > 0 #p
  flow s/a.process -> s/a.release when s + 1 > 0 #g
  flow s/a.transfer -> s/c.process #k
  flow s/d.receive -> s/d.process #u
  trigger s/c.process => s/a.create #sp
  trigger s/c.process => s/a.release #rel
}
"""
FINDINGS = [
    ("error", "E_GUARD_PLACEMENT", "arc 'p': guards may only leave a process stage"),
    ("error", "E_KIND", "arc 'k': flow changes kind w -> v"),
    ("warning", "W_UNUSUAL_TRIGGER", "trigger 'rel' targets release; expected create or process"),
    ("error", "E_GUARD", "guard on arc 'g': '+' needs numeric operands, got str and int"),
    ("error", "E_SPAWN", "trigger 'sp' spawns w without required attribute 'n'"),
    ("warning", "W_ISOLATED", "machine s/e has no arcs"),
] + [
    ("warning", "W_UNREACHABLE", f"{ep} is unreachable from any create, inbound transfer, or trigger target")
    for ep in ("s/a.transfer", "s/d.receive", "s/d.process", "s/e.process")
]


def test_check_findings_output_is_pinned(capsys, tmp_path):
    model_path = tmp_path / "findings.fm"
    model_path.write_text(FINDINGS_MODEL)
    diagnostics = ",".join(
        f'{{"code":"{code}","col":1,"file":"<model>","line":1,"message":"{message}","severity":"{severity}"}}'
        for severity, code, message in FINDINGS
    )
    stats = '{"n_flows":6,"n_machines":4,"n_spheres":1,"n_triggers":2}'
    out = f'{{"diagnostics":[{diagnostics}],"ok":false,"stats":{stats}}}\n'
    err = "".join(f"<model>:1:1: {severity}[{code}]: {message}\n" for severity, code, message in FINDINGS)
    assert run_cli(capsys, "check", str(model_path)) == (1, out, err)


# sim, dot and conform skip the warnings-only checks for a model that
# passes, yet print a failing model's diagnostics exactly as check does,
# warnings included and in check's order.
FAILING_MODELS = {
    "kind": (KIND_MODEL, ["E_KIND", "W_ISOLATED", "W_UNREACHABLE", "W_UNREACHABLE"]),
    "findings": (FINDINGS_MODEL, [code for _, code, _ in FINDINGS]),
}


# Each command's arguments after the model's path.
FAILING_COMMANDS = {
    "sim": ["sim", "--scenario", str(CORPUS / "tvm_exact.fms")],
    "dot": ["dot"],
    "dot-behavior": ["dot", "--behavior", "b"],
    "conform": ["conform", "--behavior", "b", "--trace", str(CORPUS.parent / "tests" / "golden" / "tvm_exact.jsonl")],
}


@pytest.mark.parametrize("command", FAILING_COMMANDS)
@pytest.mark.parametrize("name", sorted(FAILING_MODELS))
def test_failing_model_prints_what_check_prints(capsys, tmp_path, name, command):
    text, codes = FAILING_MODELS[name]
    command = FAILING_COMMANDS[command]
    model_path = tmp_path / "model.fm"
    model_path.write_text(text)
    code, _, err = run_cli(capsys, "check", str(model_path))
    assert code == 1
    assert [line.split("[")[1].split("]")[0] for line in err.splitlines()] == codes
    assert run_cli(capsys, command[0], str(model_path), *command[1:]) == (1, "", err)


# Exit-2 paths, each printing exactly one stderr line and nothing on stdout.
# Placeholders: {tvm} the model, {exact} a scenario, {ledger} the corpus
# ledger, {missing} a path that does not exist, {dir} a directory.
EXIT_TWO = {
    "sim-unreadable-scenario": (
        ["sim", "{tvm}", "--scenario", "{missing}"],
        "fmkit: cannot read {missing}: No such file or directory",
    ),
    "sim-trace-into-a-directory": (
        ["sim", "{tvm}", "--scenario", "{exact}", "--trace", "{dir}"],
        "fmkit: cannot write {dir}: Is a directory",
    ),
    "conform-unreadable-trace": (
        ["conform", "{tvm}", "--behavior", "cash_purchase", "--trace", "{missing}"],
        "fmkit: cannot read {missing}: No such file or directory",
    ),
    "history-unreadable-log": (
        ["history", "{missing}", "--slot", "P101", "--timeline"],
        "fmkit: cannot read {missing}: No such file or directory",
    ),
    "history-without-slot-or-append": (
        ["history", "{ledger}"],
        "fmkit: history needs --slot (with --at or --timeline) or --append",
    ),
    "history-slot-without-at-or-timeline": (
        ["history", "{ledger}", "--slot", "P101"],
        "fmkit: history --slot needs --at or --timeline",
    ),
    # A file holding the byte 0xff, which no UTF-8 text holds.
    "check-model-not-utf-8": (
        ["check", "{binary}"],
        "fmkit: cannot read {binary}: not valid UTF-8",
    ),
    "sim-scenario-not-utf-8": (
        ["sim", "{tvm}", "--scenario", "{binary}"],
        "fmkit: cannot read {binary}: not valid UTF-8",
    ),
    "conform-trace-not-utf-8": (
        ["conform", "{tvm}", "--behavior", "cash_purchase", "--trace", "{binary}"],
        "fmkit: cannot read {binary}: not valid UTF-8",
    ),
    "history-log-not-utf-8": (
        ["history", "{binary}", "--slot", "P101", "--timeline"],
        "fmkit: cannot read {binary}: not valid UTF-8",
    ),
}


@pytest.mark.parametrize("case", sorted(EXIT_TWO))
def test_exit_two_path_prints_one_line(capsys, tmp_path, case):
    names = {
        "tvm": str(CORPUS / "tvm.fm"),
        "exact": str(CORPUS / "tvm_exact.fms"),
        "ledger": str(CORPUS / "pump_history.fmh"),
        "missing": str(tmp_path / "missing"),
        "dir": str(tmp_path),
        "binary": str(tmp_path / "binary"),
    }
    (tmp_path / "binary").write_bytes(b"\xff\n")
    argv, line = EXIT_TWO[case]
    argv = [arg.format(**names) for arg in argv]
    assert run_cli(capsys, *argv) == (2, "", line.format(**names) + "\n")


def test_history_append_that_cannot_write_the_log_exits_two(capsys, tmp_path, monkeypatch):
    log_path = tmp_path / "log.fmh"
    before = (CORPUS / "pump_history.fmh").read_text()
    log_path.write_text(before)

    def read_only_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            raise PermissionError(13, "Permission denied", file)
        return builtins.open(file, mode, *args, **kwargs)

    # Tests may run as root, where a read-only mode bit does not stop a write.
    monkeypatch.setattr(cli, "open", read_only_open, raising=False)
    record = json.dumps(
        {
            "slot": "P101", "unit": "pump-2", "action": "remove",
            "at": "2025-01-01T00:00:00Z", "performer": "x", "contractor": "y",
        }
    )
    code, out, err = run_cli(capsys, "history", str(log_path), "--append", record)
    assert (code, out, err) == (2, "", f"fmkit: cannot write {log_path}: Permission denied\n")
    assert log_path.read_text() == before


def test_history_append_with_no_room_for_a_new_file_writes_in_place(capsys, tmp_path, monkeypatch):
    import tempfile

    log_path = tmp_path / "log.fmh"
    before = (CORPUS / "pump_history.fmh").read_text()
    log_path.write_text(before)

    def no_new_file(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(tempfile, "mkstemp", no_new_file)
    assert run_cli(capsys, "history", str(log_path), "--append", json.dumps(GOOD_LEDGER_RECORD)) == (0, "", "")
    after = log_path.read_text().splitlines(keepends=True)
    assert "".join(after[:-1]) == before and json.loads(after[-1]) == GOOD_LEDGER_RECORD
    assert [p.name for p in tmp_path.iterdir()] == ["log.fmh"]


@pytest.mark.parametrize("limit", [0, 312])
def test_history_append_past_a_file_size_limit_leaves_the_log_whole(tmp_path, limit):
    # The log is 624 bytes: under either limit a write in place would leave
    # it empty or cut short.
    resource = pytest.importorskip("resource")
    import signal

    log_path = tmp_path / "log.fmh"
    before = (CORPUS / "pump_history.fmh").read_bytes()
    log_path.write_bytes(before)

    def limited() -> None:
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

    env = dict(os.environ, PYTHONPATH=str(CORPUS.parent / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "fmkit.cli", "history", str(log_path), "--append", json.dumps(GOOD_LEDGER_RECORD)],
        capture_output=True, text=True, env=env, preexec_fn=limited,
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"fmkit: cannot write {log_path}: File too large\n")
    assert log_path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["log.fmh"]


def test_history_append_through_a_symlink_replaces_the_target(capsys, tmp_path):
    target = tmp_path / "log.fmh"
    target.write_text((CORPUS / "pump_history.fmh").read_text())
    target.chmod(0o640)
    link = tmp_path / "link.fmh"
    link.symlink_to(target)
    assert run_cli(capsys, "history", str(link), "--append", json.dumps(GOOD_LEDGER_RECORD)) == (0, "", "")
    assert link.is_symlink()
    assert len(target.read_text().splitlines()) == 6
    assert target.stat().st_mode & 0o7777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.fmh", "log.fmh"]

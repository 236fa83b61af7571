"""`fmkit sim` writes each record as the simulator makes it and keeps no
trace: what reaches the output, when, and what a run holds in memory."""
from __future__ import annotations

import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest
from fuzz import random_model, random_scenario

import fmkit
from fmkit import behavior, cli, jsonl
from fmkit.canon import load_model
from fmkit.cli import main
from fmkit.export import read_trace, write_trace
from fmkit.parser import parse_scenario
from fmkit.simulate import SimConfig, Simulation
from fmkit.validate import validate

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
MODES = ("none", "observe", "enforce")
ROGUE_CASH = "inject cash at passenger/cash.create tick 0 { amount = 5, fare = 5 }\n"


def _literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return json.dumps(value)


def _scenario_text(scenario) -> str:
    lines = []
    for inj in scenario.injections:
        attrs = ", ".join(f"{name} = {_literal(value)}" for name, value in inj.attrs)
        lines.append(f"inject {inj.kind} at {inj.target} tick {inj.tick}" + (f" {{ {attrs} }}" if attrs else ""))
    return "\n".join(lines) + "\n"


def _fuzz_cases(tmp_path: pathlib.Path):
    """(model path, scenario path) for each of seeds 0-7 whose random model validates."""
    for seed in range(8):
        source = random_model(seed)
        model, _ = load_model(source, f"<fuzz-{seed}>")
        if model is None or not validate(model).ok:
            continue
        model_path, scenario_path = tmp_path / f"fuzz{seed}.fm", tmp_path / f"fuzz{seed}.fms"
        model_path.write_text(source)
        scenario_path.write_text(_scenario_text(random_scenario(model, seed)))
        yield model_path, scenario_path


def _cases(tmp_path: pathlib.Path):
    """(model path, scenario path, behaviour or None) over the corpus
    scenarios, one that breaks the tvm chronology, and random models."""
    rogue = tmp_path / "rogue.fms"
    rogue.write_text(ROGUE_CASH)
    for scenario in [*sorted(CORPUS.glob("tvm_*.fms")), rogue]:
        yield CORPUS / "tvm.fm", scenario, "cash_purchase"
    yield CORPUS / "plant.fm", CORPUS / "plant_water.fms", None
    for model_path, scenario_path in _fuzz_cases(tmp_path):
        yield model_path, scenario_path, None


def _load(model_path: pathlib.Path, scenario_path: pathlib.Path):
    model, _ = load_model(model_path.read_text(), str(model_path))
    scenario, _ = parse_scenario(scenario_path.read_text(), str(scenario_path))
    return model, scenario


def _argv(model_path, scenario_path, ticks: int, behavior_name, mode: str) -> list[str]:
    argv = ["sim", str(model_path), "--scenario", str(scenario_path), "--ticks", str(ticks)]
    if mode != "none":
        argv += ["--behavior", behavior_name, "--mode", mode]
    return argv


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sim_writes_the_bytes_of_write_trace_in_every_mode(capsys, tmp_path):
    seen = 0
    for model_path, scenario_path, name in _cases(tmp_path):
        model, scenario = _load(model_path, scenario_path)
        for mode in MODES if name is not None else ("none",):
            gate = behavior.enforce(model, model.behavior(name).program) if mode == "enforce" else None
            expected = write_trace(fmkit.run(model, scenario, SimConfig(max_ticks=120, gate=gate)))
            argv = _argv(model_path, scenario_path, 120, name, mode)
            code, out, err = run_cli(capsys, argv)
            assert err == "" and code in (0, 1)
            trace_text = out if mode == "none" else out[: out.rindex("\n", 0, -1) + 1]
            assert trace_text == expected, (argv, mode)
            trace_path = tmp_path / "t.jsonl"
            code_to_file, out_to_file, err = run_cli(capsys, [*argv, "--trace", str(trace_path)])
            assert (code_to_file, err) == (code, "")
            assert trace_path.read_bytes() == expected.encode("utf-8"), (argv, mode)
            assert out_to_file == out[len(trace_text):]
            seen += 1
    assert seen >= 15  # the corpus cases alone give 13


def test_sim_observe_verdict_is_check_of_the_trace_it_wrote(capsys, monkeypatch, tmp_path):
    check = behavior.check

    def held(*args):
        raise AssertionError("sim --mode observe checked a held trace")

    codes = set()
    for model_path, scenario_path, name in _cases(tmp_path):
        if name is None:
            continue
        model, _ = _load(model_path, scenario_path)
        trace_path = tmp_path / "t.jsonl"
        argv = [*_argv(model_path, scenario_path, 200, name, "observe"), "--trace", str(trace_path)]
        with monkeypatch.context() as patch:
            patch.setattr(behavior, "check", held)
            patch.setattr(behavior, "detect_occurrences", held)
            code, out, err = run_cli(capsys, argv)
        verdict = check(read_trace(trace_path.read_text()), model.events, model.behavior(name).program)
        assert out == jsonl.dumps(verdict.to_json()) + "\n" and err == ""
        assert code == (0 if verdict.conforms else 1)
        codes.add(code)
    assert codes == {0, 1}


class _FirstWrite(io.StringIO):
    """Notes how many ticks the simulator had stepped at the first write."""

    def __init__(self, steps: list[int]) -> None:
        super().__init__()
        self.steps, self.steps_at_first_write = steps, None

    def write(self, text: str) -> int:
        if self.steps_at_first_write is None:
            self.steps_at_first_write = len(self.steps)
        return super().write(text)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("to_file", [False, True])
def test_first_line_is_written_before_the_second_tick(monkeypatch, tmp_path, mode, to_file):
    steps: list[int] = []
    step = Simulation.step

    def counted(self):
        steps.append(self.tick)
        return step(self)

    monkeypatch.setattr(Simulation, "step", counted)
    sink = _FirstWrite(steps)
    argv = _argv(CORPUS / "tvm.fm", CORPUS / "tvm_exact.fms", 200, "cash_purchase", mode)
    if to_file:
        def opener(path, how="r", **kwargs):
            return sink if how == "w" else open(path, how, **kwargs)

        monkeypatch.setattr(cli, "open", opener, raising=False)
        argv += ["--trace", str(tmp_path / "t.jsonl")]
    else:
        monkeypatch.setattr(sys, "stdout", sink)
    assert main(argv) == 0
    assert len(steps) > 30
    assert sink.steps_at_first_write is not None and sink.steps_at_first_write < 2


# Ten waters circulate for good in the plant's cooling loop (turbine_cool,
# headerE, makeup_tanks, headerD): injected over the first 100 ticks, they
# keep making records and no other thing is ever spawned, so a run of ten
# times the ticks has about ten times the records and the same live things.
COOLING = "".join(
    f'inject water at plant/inflow.create tick {tick} {{ use = "cooling", loop = "turbine" }}\n'
    for tick in range(0, 100, 10)
)


def test_sim_memory_follows_the_live_things_not_the_run_length(tmp_path):
    scenario, trace_path = tmp_path / "cooling.fms", tmp_path / "t.jsonl"
    scenario.write_text(COOLING)

    def peak(ticks: int) -> tuple[int, int]:
        argv = ["sim", str(CORPUS / "plant.fm"), "--scenario", str(scenario), "--ticks", str(ticks)]
        tracemalloc.start()
        try:
            assert main([*argv, "--trace", str(trace_path)]) == 0
            return tracemalloc.get_traced_memory()[1], len(trace_path.read_bytes().splitlines())
        finally:
            tracemalloc.stop()

    peak(300)  # loads the modules the command needs
    short_peak, short_records = peak(300)
    long_peak, long_records = peak(3000)
    assert 9 * short_records < long_records < 13 * short_records
    assert long_peak < 1.5 * short_peak, (short_peak, long_peak)


def _python(*argv: str, unbuffered: bool) -> subprocess.Popen:
    # Unbuffered, a write larger than the pipe can be cut short with no
    # error; the command must still see the closed reader on a later write.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "fmkit.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )


def _long_line_model(path: pathlib.Path, n: int = 1500) -> pathlib.Path:
    """A chain of n machines, whose DOT text is far larger than a pipe holds."""
    lines = ["thing w", "sphere s {", "  machine m0: w { create process }"]
    lines += [f"  machine m{i}: w {{ process }}" for i in range(1, n)]
    lines.append("  flow s/m0.create -> s/m0.process #a0")
    lines += [f"  flow s/m{i - 1}.process -> s/m{i}.process #a{i}" for i in range(1, n)]
    path.write_text("\n".join(lines) + "\n}\n")
    return path


@pytest.mark.parametrize("command", ["sim", "dot"])
def test_reader_closing_stdout_early_exits_two_without_a_traceback(tmp_path, command):
    if command == "sim":
        argv = ["sim", str(CORPUS / "plant.fm"), "--scenario", str(CORPUS / "plant_water.fms"), "--ticks", "1000"]
    else:
        argv = ["dot", str(_long_line_model(tmp_path / "line.fm"))]
    for unbuffered in (False, True):
        proc = _python(*argv, unbuffered=unbuffered)
        first = proc.stdout.readline()
        proc.stdout.close()  # as `| head -n 1` does
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2, unbuffered
        assert first.startswith(b"{" if command == "sim" else b"digraph")
        assert err == "fmkit: cannot write output: Broken pipe\n", unbuffered


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_sim_trace_write_failing_mid_run_exits_two(capsys):
    argv = ["sim", str(CORPUS / "plant.fm"), "--scenario", str(CORPUS / "plant_water.fms"), "--ticks", "200"]
    code, out, err = run_cli(capsys, [*argv, "--trace", "/dev/full"])
    assert (code, out, err) == (2, "", "fmkit: cannot write /dev/full: No space left on device\n")

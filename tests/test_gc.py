"""Loading, validating, printing and exporting a model, and every ``fmkit``
command but ``sim``, leave no reference cycles: reference counting frees
everything they build, so none of them leaves work (or memory) for the
cyclic collector.  ``sim`` leaves only what the simulator's site table
(``simulate.ModelIndex``) leaves by itself: where flows loop, a site and the
hops into and out of it refer to each other (plant's steam loop), and a
model without loops (tvm) leaves nothing.  That depends on the model, not
on the length of the run, and the model itself is never held in a cycle.
This is what lets ``fmkit.cli.main`` keep the collector paused while a
command runs."""
from __future__ import annotations

import gc
import json
import shutil
from pathlib import Path

import pytest

from conftest import CORPUS, GOLDEN, KIND_MODEL

from fmkit.canon import load_model
from fmkit.cli import main
from fmkit.export import dot_check, model_to_dot
from fmkit.printer import print_model
from fmkit.simulate import ModelIndex
from fmkit.validate import validate

MODELS = sorted(CORPUS.glob("*.fm"))

CALLS = {
    "load_model": lambda path, model, dot: load_model(path.read_text(), str(path)),
    "validate": lambda path, model, dot: validate(model),
    "model_to_dot": lambda path, model, dot: model_to_dot(model),
    "model_to_dot_authored": lambda path, model, dot: model_to_dot(model, show_implicit=False),
    "print_model": lambda path, model, dot: print_model(model),
    "dot_check": lambda path, model, dot: dot_check(dot),
}


def cyclic_garbage(call) -> int:
    """What the cyclic collector finds after ``call()``, with the collector
    off while it runs.  Call it once first: first-use caches are not garbage."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("call", CALLS)
@pytest.mark.parametrize("path", MODELS, ids=lambda path: path.stem)
def test_call_leaves_no_cyclic_garbage(path, call):
    model, _ = load_model(path.read_text(), str(path))
    dot = model_to_dot(model)
    CALLS[call](path, model, dot)
    assert cyclic_garbage(lambda: CALLS[call](path, model, dot)) == 0


TVM, PUMP = str(CORPUS / "tvm.fm"), str(CORPUS / "pump_history.fmh")
APPEND = {"slot": "P101", "unit": "pump-2", "action": "remove", "at": "2025-01-01T00:00:00Z", "performer": "x", "contractor": "y"}
# Every command but sim, as (argv, exit code); "BAD" stands for KIND_MODEL's
# path and "LOG" for a fresh copy of the corpus ledger.
COMMANDS = {
    "dot": (["dot", TVM], 0),
    "dot-authored": (["dot", TVM, "--no-show-implicit"], 0),
    "dot-behavior": (["dot", TVM, "--behavior", "cash_purchase"], 0),
    "conform": (["conform", TVM, "--behavior", "cash_purchase", "--trace", str(GOLDEN / "tvm_exact.jsonl")], 0),
    "history-query": (["history", "LOG", "--slot", "P101", "--timeline"], 0),
    "history-append": (["history", "LOG", "--append", json.dumps(APPEND)], 0),
    "check-failing": (["check", "BAD"], 1),
}
# sim in each mode; the plain plant run reaches both tick limits the test gives it.
SIMS = {
    "plain": ["sim", str(CORPUS / "plant.fm"), "--scenario", str(CORPUS / "plant_water.fms")],
    "plain-tvm": ["sim", TVM, "--scenario", str(CORPUS / "tvm_exact.fms")],
    "observe": ["sim", TVM, "--scenario", str(CORPUS / "tvm_exact.fms"), "--behavior", "cash_purchase"],
    "enforce": ["sim", TVM, "--scenario", str(CORPUS / "tvm_exact.fms"), "--behavior", "cash_purchase", "--mode", "enforce"],
}


def with_paths(template: list[str], tmp_path) -> list[str]:
    """``template`` with BAD, LOG and MISSING replaced by paths in ``tmp_path``."""
    (tmp_path / "bad.fm").write_text(KIND_MODEL)
    paths = {"BAD": "bad.fm", "LOG": "log.fmh", "MISSING": "missing.fm"}
    return [str(tmp_path / paths[arg]) if arg in paths else arg for arg in template]


@pytest.mark.parametrize("path", MODELS, ids=lambda path: path.stem)
def test_check_command_leaves_no_cyclic_garbage(path, capsys):
    argv = ["check", str(path)]
    assert main(argv) == 0  # the first call builds the argument parser
    assert cyclic_garbage(lambda: main(argv)) == 0
    assert capsys.readouterr().out.count('"ok":true') == 2


@pytest.mark.parametrize("command", COMMANDS)
def test_command_leaves_no_cyclic_garbage(command, capsys, tmp_path):
    template, want = COMMANDS[command]
    argv = with_paths(template, tmp_path)

    def call() -> None:
        shutil.copyfile(PUMP, tmp_path / "log.fmh")
        assert main(argv) == want

    call()
    assert cyclic_garbage(call) == 0
    capsys.readouterr()


def site_table_garbage(path: str) -> int:
    """What building the site table of the model at ``path`` leaves."""
    text = Path(path).read_text(encoding="utf-8")
    ModelIndex(load_model(text, path)[0])
    return cyclic_garbage(lambda: ModelIndex(load_model(text, path)[0]))


def test_only_a_looping_model_leaves_a_site_table_cycle():
    assert site_table_garbage(TVM) == 0
    assert site_table_garbage(SIMS["plain"][1]) > 0


@pytest.mark.parametrize("mode", SIMS)
def test_sim_cyclic_garbage_does_not_grow_with_the_run(mode, capsys, tmp_path):
    def garbage(ticks: int) -> int:
        argv = SIMS[mode] + ["--ticks", str(ticks), "--trace", str(tmp_path / "trace.jsonl")]
        main(argv)
        return cyclic_garbage(lambda: main(argv))

    # Exactly what the model's site table leaves by itself, at any length.
    assert garbage(200) == garbage(1000) == site_table_garbage(SIMS[mode][1])
    capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("argv,code", [
    (["check", str(CORPUS / "tvm.fm")], 0),
    (["check", "BAD"], 1),
    (["check", "MISSING"], 2),
], ids=["exit0", "exit1", "exit2"])
def test_main_leaves_the_collector_as_it_found_it(enabled, argv, code, capsys, tmp_path):
    argv = with_paths(argv, tmp_path)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()

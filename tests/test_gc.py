"""Loading, validating, printing and exporting a model, and a whole
``fmkit check``, leave no reference cycles: reference counting frees
everything they build, so none of them leaves work (or memory) for the
cyclic collector."""
from __future__ import annotations

import gc

import pytest

from conftest import CORPUS

from fmkit.canon import load_model
from fmkit.cli import main
from fmkit.export import dot_check, model_to_dot
from fmkit.printer import print_model
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


@pytest.mark.parametrize("path", MODELS, ids=lambda path: path.stem)
def test_check_command_leaves_no_cyclic_garbage(path, capsys):
    argv = ["check", str(path)]
    assert main(argv) == 0  # the first call builds the argument parser
    assert cyclic_garbage(lambda: main(argv)) == 0
    assert capsys.readouterr().out.count('"ok":true') == 2

"""Every fmkit exception survives pickling with the same text, code and
attributes, so an error raised in a worker process can be sent back."""
from __future__ import annotations

import importlib
import pickle
import pkgutil

import pytest

import fmkit
from fmkit import behavior, canon, export, exprs, history, jsonl, model, parser, simulate
from fmkit.diagnostics import SourceSpan, error

SPAN = SourceSpan("m.fm", 2, 3, 2, 9)

ERRORS = [
    model.ModelError("subdiagram requires a canonical model"),
    model.ResolutionError("unknown-sphere", "x", "x/m.create"),
    model.UnknownLabelError(["b", "a"]),
    canon.CanonError(error("no-legal-expansion", "no legal chain from s/m.process to s/m.create", SPAN)),
    history.HistoryError("bad-record", "line 3: not an object"),
    history.AppendError("double-install", "slot 'pump' already holds 'P1'"),
    history.UnknownSlotError("pump"),
    export.TraceParseError(4, "unknown action 'jump'"),
    jsonl.JSONLineError("not valid JSON: Expecting value"),
    parser._TooDeep(SPAN),
    simulate.SimError("max_ticks must be >= 0"),
    behavior.BehaviorError("behavior-too-large", "the behavior's automaton needs more than 65536 states"),
    exprs.TypeError_("'+' needs numbers, got str and int"),
    exprs.EvalError("division by zero"),
]


@pytest.mark.parametrize("exc", ERRORS, ids=lambda exc: type(exc).__name__)
def test_exception_round_trips_through_pickle(exc):
    clone = pickle.loads(pickle.dumps(exc))
    assert type(clone) is type(exc)
    assert str(clone) == str(exc)
    assert clone.args == exc.args
    assert vars(clone) == vars(exc)


def test_every_exception_class_is_listed():
    defined = set()
    for info in pkgutil.iter_modules(fmkit.__path__):
        module = importlib.import_module(f"fmkit.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == module.__name__:
                defined.add(value)
    assert defined == {type(exc) for exc in ERRORS}

from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from fmkit.canon import load_model
from fmkit.parser import parse_scenario
from fmkit.simulate import check_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# A model that fails validation: an E_KIND error, an unconnected machine
# (W_ISOLATED) and two unreachable stages (W_UNREACHABLE).
KIND_MODEL = """\
thing w
thing v
sphere s {
  machine a: w { create release }
  machine b: v { transfer process }
  machine c: w { process }
  flow s/a.create -> s/a.release #in
  flow s/a.release -> s/b.transfer #k
}
"""


def load_corpus_model(name: str):
    path = CORPUS / f"{name}.fm"
    model, diags = load_model(path.read_text(), str(path))
    assert model is not None, [d.render() for d in diags]
    assert not any(d.is_error for d in diags)
    return model


def load_corpus_scenario(model, name: str):
    path = CORPUS / f"{name}.fms"
    scenario, diags = parse_scenario(path.read_text(), str(path))
    diags += check_scenario(model, scenario)
    assert not any(d.is_error for d in diags), [d.render() for d in diags]
    return scenario


@pytest.fixture(scope="session")
def tvm():
    return load_corpus_model("tvm")


@pytest.fixture(scope="session")
def plant():
    return load_corpus_model("plant")


@pytest.fixture(scope="session")
def turbine():
    return load_corpus_model("turbine")


def golden_text(name: str) -> str:
    return (GOLDEN / f"{name}.jsonl").read_text()


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.line(line)

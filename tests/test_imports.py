"""Import boundaries: each command loads only the modules it runs, and the
``fmkit`` namespace resolves its exported names on first access."""
from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

# Imports ``fmkit.cli`` and then either runs ``main(argv)`` with stdout
# discarded or, for argv None, imports ``fmkit.history``; prints the exit
# code and the names of every loaded module.
PROBE = """
import io, json, sys
import fmkit.cli
argv = json.loads(sys.argv[1])
code = None
if argv is None:
    from fmkit import history
else:
    sys.stdout = io.StringIO()
    code = fmkit.cli.main(argv)
    sys.stdout = sys.__stdout__
print(json.dumps([code, sorted(sys.modules)]))
"""


def fresh_python(code: str, *args: str):
    """The JSON value printed last by ``code`` run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, cwd=ROOT, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def loaded_modules(argv):
    code, modules = fresh_python(PROBE, json.dumps(argv))
    return code, set(modules)


def test_history_entry_point_loads_no_toolkit():
    _, modules = loaded_modules(None)
    assert {"fmkit.cli", "fmkit.history", "fmkit.jsonl"} <= modules
    loaded = modules & {"fmkit.parser", "fmkit.simulate", "fmkit.behavior", "fmkit.export", "dataclasses", "inspect"}
    assert loaded == set()


def test_history_command_loads_only_the_ledger():
    code, modules = loaded_modules(["history", str(CORPUS / "pump_history.fmh"), "--slot", "P101", "--timeline"])
    assert code == 0
    # fmkit.diagnostics holds the base of the ledger's record class.
    expected = {"fmkit", "fmkit.cli", "fmkit.diagnostics", "fmkit.history", "fmkit.jsonl"}
    assert {m for m in modules if m.startswith("fmkit")} == expected


def test_check_loads_no_simulator_behavior_or_export():
    code, modules = loaded_modules(["check", str(CORPUS / "tvm.fm")])
    assert code == 0
    assert "fmkit.validate" in modules
    assert modules & {"fmkit.simulate", "fmkit.behavior", "fmkit.export"} == set()


def test_sim_without_behavior_loads_no_behavior_or_history():
    code, modules = loaded_modules(["sim", str(CORPUS / "plant.fm"), "--scenario", str(CORPUS / "plant_water.fms")])
    assert code == 0
    assert {"fmkit.simulate", "fmkit.export"} <= modules
    assert modules & {"fmkit.behavior", "fmkit.history"} == set()


def test_dot_without_behavior_loads_no_behavior():
    code, modules = loaded_modules(["dot", str(CORPUS / "plant.fm")])
    assert code == 0
    assert "fmkit.export" in modules
    assert "fmkit.behavior" not in modules


TVM = str(CORPUS / "tvm.fm")
TOOLKIT_COMMANDS = {
    "check": ["check", TVM],
    "sim": ["sim", TVM, "--scenario", str(CORPUS / "tvm_exact.fms"), "--ticks", "200", "--behavior", "cash_purchase"],
    "dot": ["dot", TVM, "--behavior", "cash_purchase"],
    "conform": ["conform", TVM, "--behavior", "cash_purchase", "--trace", str(ROOT / "tests/golden/tvm_exact.jsonl")],
}


@pytest.mark.parametrize("command", TOOLKIT_COMMANDS)
def test_commands_load_no_dataclasses_or_inspect(command):
    # Each dataclass decoration execs its generated methods at import, and
    # dataclasses itself imports inspect: records are NamedTuples or
    # __slots__ classes instead.
    code, modules = loaded_modules(TOOLKIT_COMMANDS[command])
    assert code == 0
    assert "fmkit.model" in modules
    assert modules & {"dataclasses", "inspect"} == set()


def test_every_exported_name_imports():
    import fmkit

    for name in fmkit.__all__:
        namespace: dict = {}
        exec(f"from fmkit import {name}", namespace)
        assert namespace[name] is getattr(fmkit, name)
        assert vars(fmkit)[name] is namespace[name]  # resolved once, then cached
    namespace = {}
    exec("from fmkit import *", namespace)
    assert set(fmkit.__all__) <= set(namespace)


def test_exported_names_are_the_home_module_objects():
    import importlib

    import fmkit
    from fmkit import canon, model, parser, printer, simulate

    # Loading the submodule fmkit.validate leaves the package name the function.
    assert fmkit.validate is importlib.import_module("fmkit.validate").validate
    assert fmkit.load_model is canon.load_model
    assert fmkit.Model is model.Model
    assert fmkit.parse_scenario is parser.parse_scenario
    assert fmkit.print_model is printer.print_model
    assert fmkit.run is simulate.run
    assert fmkit.__version__ == "0.1.0"


def test_validate_submodule_leaves_the_function_exported():
    found = fresh_python(
        "import json, fmkit.validate; from fmkit import validate; print(json.dumps(validate.__module__))"
    )
    assert found == "fmkit.validate"


def test_namespace_dir_and_unknown_name():
    import fmkit

    listed, exported = fresh_python("import json, fmkit; print(json.dumps([dir(fmkit), fmkit.__all__]))")
    assert set(exported) <= set(listed)
    with pytest.raises(AttributeError):
        fmkit.nope
    with pytest.raises(ImportError):
        exec("from fmkit import nope", {})

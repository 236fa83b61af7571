"""fmkit: parse, validate, simulate, and check flow-machine models.

Each exported name is imported from its home module on first access
(PEP 562), so ``import fmkit.cli`` loads none of the toolkit up front.
"""
import sys
from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "canon": ("CanonError", "canonicalize", "load_model"),
    "model": ("Endpoint", "EventDef", "Model", "Region", "Stage", "resolve_endpoint", "subdiagram"),
    "parser": ("parse", "parse_scenario"),
    "printer": ("model_signature", "print_model"),
    "simulate": ("Scenario", "SimConfig", "Simulation", "eval_guard", "run"),
    "validate": ("validate",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _Package(type(sys)):
    def __setattr__(self, name: str, value) -> None:
        # Loading submodule fmkit.validate must not rebind the function.
        if not (name == "validate" and isinstance(value, type(sys))):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

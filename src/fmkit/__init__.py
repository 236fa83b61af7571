"""fmkit: parse, validate, simulate, and check flow-machine models."""

from .canon import CanonError, canonicalize, load_model
from .model import (
    Endpoint,
    EventDef,
    Model,
    Region,
    Stage,
    resolve_endpoint,
    subdiagram,
)
from .parser import parse, parse_scenario
from .printer import model_signature, print_model
from .simulate import Scenario, SimConfig, Simulation, eval_guard, run
from .validate import validate

__version__ = "0.1.0"

__all__ = [
    "CanonError",
    "Endpoint",
    "EventDef",
    "Model",
    "Region",
    "Scenario",
    "SimConfig",
    "Simulation",
    "Stage",
    "canonicalize",
    "eval_guard",
    "load_model",
    "model_signature",
    "parse",
    "parse_scenario",
    "print_model",
    "resolve_endpoint",
    "run",
    "subdiagram",
    "validate",
    "__version__",
]

"""Spans and counts around fmkit's public functions, installed from outside.

Nothing here edits fmkit: the traced child process replaces module
attributes with timing wrappers (every alias a module imported is replaced
too), wraps the enforcement gate in a proxy that implements the ``Gate``
protocol, and times the simulator through a subclass.  Spans are kept in
memory as per-name totals, with the name of the span that caused them, and
are written out once when the child ends.
"""
from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.parents: dict[str, set] = defaultdict(set)
        self.samples: dict[str, list] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, time covered by child spans]

    def enter(self, name: str) -> float:
        self.parents[name].add(self._stack[-1][0] if self._stack else None)
        self._stack.append([name, 0.0])
        return perf_counter()

    def leave(self, start: float, sample: bool = False) -> None:
        elapsed = perf_counter() - start
        name, covered = self._stack.pop()
        self.total[name] += elapsed
        self.self_time[name] += elapsed - covered
        self.calls[name] += 1
        if sample:
            self.samples[name].append(elapsed)
        if self._stack:
            self._stack[-1][1] += elapsed

    def wrap(self, name: str, fn, count=None, sample: bool = False):
        """A function that records a span around ``fn`` and, when ``count``
        is given, feeds it the result to update counters."""

        def traced(*args, **kwargs):
            start = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                self.leave(start, sample)
            if count is not None:
                count(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` and every fmkit alias of the same object."""
        original = getattr(module, attr, None)
        if original is None:
            return
        traced = self.wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "fmkit" or mod_name.startswith("fmkit."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        setattr(module, attr, traced)

    def spans(self) -> list[dict]:
        return [
            {
                "name": name,
                "caused_by": sorted(p or "" for p in self.parents[name]),
                "calls": self.calls[name],
                "errors": self.errors[name],
                "total_s": self.total[name],
                "self_s": self.self_time[name],
            }
            for name in sorted(self.calls)
        ]


def _module_defining(name: str, preferred: str):
    """The fmkit module that defines function ``name``: ``preferred`` if it
    still does, else whichever module does (functions may move)."""
    mod = sys.modules.get(preferred)
    if mod is not None and hasattr(mod, name):
        return mod
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name.startswith("fmkit.") and getattr(getattr(mod, name, None), "__module__", None) == mod_name:
            return mod
    return None


def _count_tokens(tracer: Tracer, result) -> None:
    tracer.counts["lexer.tokens"] += len(result[0])


def _count_model(tracer: Tracer, model) -> None:
    tracer.counts["canon.flow_arcs"] += len(model.flows)
    tracer.counts["canon.implicit_arcs"] += sum(1 for arc in model.flows if arc.is_implicit)
    tracer.counts["model.endpoints"] += sum(len(m.stages()) for _, m in model.machines())


def _count_report(tracer: Tracer, report) -> None:
    tracer.counts["validate.diagnostics"] += len(report.diagnostics)


def _count_automaton(tracer: Tracer, automaton) -> None:
    tracer.counts["behavior.states"] += automaton.n_states
    tracer.counts["behavior.transitions"] += len(automaton.transitions)


def _count_occurrences(tracer: Tracer, found) -> None:
    tracer.counts["behavior.occurrences"] += len(found)


def _count_bytes(key: str):
    def count(tracer: Tracer, text) -> None:
        tracer.counts[key] += len(text.encode("utf-8"))

    return count


# (module, function, span name, counter fed the result)
FUNCTIONS = [
    ("fmkit.lexer", "tokenize", "lexer.tokenize", _count_tokens),
    ("fmkit.parser", "parse", "parser.parse", None),
    ("fmkit.simulate", "parse_scenario", "parser.scenario", None),
    ("fmkit.canon", "canonicalize", "canon.canonicalize", _count_model),
    ("fmkit.validate", "check_legality", "validate.legality", None),
    ("fmkit.validate", "check_structure", "validate.structure", None),
    ("fmkit.validate", "check_reachability", "validate.reachability", None),
    ("fmkit.validate", "validate", "validate.validate", _count_report),
    ("fmkit.simulate", "check_scenario", "simulate.check_scenario", None),
    ("fmkit.behavior", "compile_program", "behavior.compile", _count_automaton),
    ("fmkit.behavior", "detect_occurrences", "behavior.scan", _count_occurrences),
    ("fmkit.behavior", "check", "behavior.check", None),
    ("fmkit.export", "write_trace", "export.write_trace", _count_bytes("export.trace_bytes")),
    ("fmkit.export", "read_trace", "export.read_trace", None),
    ("fmkit.export", "model_to_dot", "export.model_to_dot", _count_bytes("export.dot_bytes")),
    ("fmkit.export", "behavior_to_dot", "export.behavior_to_dot", _count_bytes("export.dot_bytes")),
    ("fmkit.export", "dot_check", "export.dot_check", None),
]

# ReplacementLog methods: (method, span name, keep per-call samples)
LEDGER_METHODS = [
    ("append", "history.append", True),
    ("installed_at", "history.installed_at", True),
    ("timeline", "history.timeline", False),
    ("to_lines", "history.to_lines", False),
]


def install(tracer: Tracer) -> None:
    """Wrap every traced fmkit function; call after importing fmkit.cli."""
    import importlib

    for module_name in {m for m, *_ in FUNCTIONS}:
        importlib.import_module(module_name)
    for module_name, attr, name, count in FUNCTIONS:
        module = _module_defining(attr, module_name)
        if module is not None:
            tracer.patch(module, attr, name, count)

    from fmkit import history

    log_cls = history.ReplacementLog
    for attr, name, sample in LEDGER_METHODS:
        setattr(log_cls, attr, tracer.wrap(name, getattr(log_cls, attr), sample=sample))
    log_cls.from_lines = staticmethod(tracer.wrap("history.from_lines", log_cls.from_lines))


class GateProxy:
    """Implements the simulator's Gate protocol around a real gate, timing
    and counting each call."""

    def __init__(self, gate, tracer: Tracer) -> None:
        self.gate = gate
        self.tracer = tracer

    def permits(self, arc_label: str) -> bool:
        start = self.tracer.enter("behavior.gate_permits")
        try:
            allowed = self.gate.permits(arc_label)
        finally:
            self.tracer.leave(start)
        if not allowed:
            self.tracer.counts["behavior.gate_denials"] += 1
        return allowed

    def observe(self, event) -> None:
        start = self.tracer.enter("behavior.gate_observe")
        try:
            self.gate.observe(event)
        finally:
            self.tracer.leave(start)


def timed_simulation(simulation_cls, tracer: Tracer):
    """A Simulation subclass whose init, step, enabled_moves and live are
    spans, and which counts ticks, moves, things scanned and peak things."""

    class TimedSimulation(simulation_cls):
        def __init__(self, *args, **kwargs) -> None:
            start = tracer.enter("simulate.init")
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.leave(start)

        def step(self):
            start = tracer.enter("simulate.step")
            try:
                events = super().step()
            finally:
                tracer.leave(start)
            tracer.counts["simulate.ticks"] += 1
            tracer.counts["simulate.moves"] += sum(1 for e in events if e.action == "move")
            tracer.counts["simulate.peak_things"] = max(tracer.counts["simulate.peak_things"], len(self.things))
            return events

        def enabled_moves(self, *args, **kwargs):
            tracer.counts["simulate.things_scanned"] += len(self.things)
            start = tracer.enter("simulate.enabled_moves")
            try:
                return super().enabled_moves(*args, **kwargs)
            finally:
                tracer.leave(start)

        def live(self):
            start = tracer.enter("simulate.live")
            try:
                return super().live()
            finally:
                tracer.leave(start)

    return TimedSimulation


def layer_metrics(tracer: Tracer, import_s: float) -> dict:
    """The per-layer figures of one traced child, by metric name."""
    t, c = tracer.total, tracer.counts

    def p50_us(name: str) -> float:
        samples = tracer.samples.get(name)
        return statistics.median(samples) * 1e6 if samples else 0.0

    def p99_us(name: str) -> float:
        samples = sorted(tracer.samples.get(name, ()))
        return samples[min(len(samples) - 1, int(0.99 * len(samples)))] * 1e6 if samples else 0.0

    scanned = c["simulate.things_scanned"]
    return {
        "cli.import_s": import_s,
        "lexer.tokenize_s": t["lexer.tokenize"],
        "lexer.tokens": c["lexer.tokens"],
        "parser.parse_s": t["parser.parse"],
        "parser.scenario_s": t["parser.scenario"],
        "canon.canonicalize_s": t["canon.canonicalize"],
        "canon.flow_arcs": c["canon.flow_arcs"],
        "canon.implicit_arcs": c["canon.implicit_arcs"],
        "model.endpoints": c["model.endpoints"],
        "validate.legality_s": t["validate.legality"],
        "validate.structure_s": t["validate.structure"],
        "validate.reachability_s": t["validate.reachability"],
        "validate.diagnostics": c["validate.diagnostics"],
        "simulate.init_s": t["simulate.init"],
        "simulate.step_s": t["simulate.step"],
        "simulate.enabled_moves_s": t["simulate.enabled_moves"],
        "simulate.live_s": t["simulate.live"],
        "simulate.check_scenario_s": t["simulate.check_scenario"],
        "simulate.ticks": c["simulate.ticks"],
        "simulate.records": c["simulate.records"],
        "simulate.peak_things": c["simulate.peak_things"],
        "simulate.things_scanned": scanned,
        "simulate.move_yield": c["simulate.moves"] / scanned if scanned else 0.0,
        "behavior.gate_permits_calls": tracer.calls.get("behavior.gate_permits", 0),
        "behavior.gate_permits_s": t["behavior.gate_permits"],
        "behavior.gate_observe_s": t["behavior.gate_observe"],
        "behavior.gate_denials": c["behavior.gate_denials"],
        "behavior.scan_s": t["behavior.scan"],
        "behavior.occurrences": c["behavior.occurrences"],
        "behavior.check_s": t["behavior.check"],
        "behavior.compile_s": t["behavior.compile"],
        "behavior.states": c["behavior.states"],
        "behavior.transitions": c["behavior.transitions"],
        "export.write_trace_s": t["export.write_trace"],
        "export.trace_bytes": c["export.trace_bytes"],
        "export.read_trace_s": t["export.read_trace"],
        "export.model_to_dot_s": t["export.model_to_dot"],
        "export.behavior_to_dot_s": t["export.behavior_to_dot"],
        "export.dot_check_s": t["export.dot_check"],
        "export.dot_bytes": c["export.dot_bytes"],
        "history.from_lines_s": t["history.from_lines"],
        "history.append_p50_us": p50_us("history.append"),
        "history.append_p99_us": p99_us("history.append"),
        "history.rejects": tracer.errors["history.append"],
        "history.installed_at_p50_us": p50_us("history.installed_at"),
        "history.timeline_s": t["history.timeline"],
        "history.to_lines_s": t["history.to_lines"],
    }

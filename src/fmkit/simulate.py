"""Deterministic discrete-tick token simulation.

Things dwell one (configurable) tick per stage and then move along flow
arcs; a thing expanded onto a shorthand chain follows its own chain to the
end, which keeps shared transfer stages unambiguous.  Triggers fire when a
thing completes its dwell at the trigger's source: a trigger into a create
stage spawns a new thing, while a trigger into any other stage deposits an
enable there — and a stage targeted by such a trigger releases waiting
things only against enables, which also waive their remaining dwell.

Every choice is resolved by the canonical order (arc label, then thing id),
so runs are bit-identical across repeats and platforms.

A tick touches only the things that can change:

* Completion calendar.  Whenever a thing arrives somewhere (spawn or move)
  its id goes into the bucket of the tick its dwell completes.  A tick
  completes the things of its own bucket, in id order, skipping stale
  entries: a thing that has been consumed, or that left early through an
  enable and so arrived again since.
* Parked things.  A thing that is past its dwell, has no candidate arc and
  whose guards raised no error (so it emitted no ``blocked`` record) is
  parked: move selection and ``live()`` skip it from then on.  Candidates
  depend on the location, the chain position and the guards; guards read
  only attributes, and attributes change only when a dwell completes, which
  for a parked thing has already happened at this location.  Only a move
  changes the location, so a parked thing can never move again (it can
  still be consumed).  A thing at an enable-gated stage is examined before
  its dwell is over, since an enable waives the dwell; it is never parked
  then, because its completion may still assign attributes.
* ``self.things`` is iterated in dict order, which is id order: ids are
  monotone and a consumed thing is never re-inserted.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Optional, Protocol

from . import exprs
from .ast import Injection, Scenario  # noqa: F401  (Injection re-exported)
from .diagnostics import Diagnostic, SourceSpan, error
from .model import Endpoint, Model, Stage, TriggerArc, resolve_endpoint, ResolutionError
from .parser import parse_scenario  # noqa: F401  (re-exported)

Value = exprs.Value


class SimError(Exception):
    pass


class TraceEvent(NamedTuple):
    """One trace record.  A named tuple: it is built once per record the
    simulator emits or a trace file holds, and a tuple is the cheapest
    immutable record to build; it also equals a plain tuple of its values."""

    tick: int
    action: str  # spawn | move | consume | trigger-fired | blocked | quiescent
    thing: Optional[int]
    kind: Optional[str]
    at: Optional[str]
    arc: Optional[str]

    def to_json(self) -> dict:
        return {
            "tick": self.tick,
            "action": self.action,
            "thing": self.thing,
            "kind": self.kind,
            "at": self.at,
            "arc": self.arc,
        }


Trace = list  # of TraceEvent


class Gate(Protocol):
    """Behavior enforcement hook consulted before region arcs act."""

    def permits(self, arc_label: str) -> bool: ...

    def observe(self, event: TraceEvent) -> None: ...


@dataclass
class SimConfig:
    max_ticks: int = 1000
    stage_dwell: int = 1
    gate: Optional[Gate] = None

    def __post_init__(self) -> None:
        if self.max_ticks < 0:
            raise SimError("max_ticks must be >= 0")
        if self.stage_dwell < 1:
            raise SimError("stage_dwell must be >= 1")


@dataclass
class Thing:
    id: int
    kind: str
    attrs: dict[str, Value]
    loc: Endpoint
    born_tick: int
    arrival_tick: int
    # Chain bookkeeping: the family and index of the last flow arc taken.
    chain_family: Optional[str] = None
    chain_index: int = 0
    chain_len: int = 0

    @property
    def mid_chain(self) -> bool:
        return self.chain_family is not None and self.chain_index + 1 < self.chain_len


@dataclass
class _PendingFiring:
    enqueued: int
    label: str
    trigger: TriggerArc
    source_id: int
    spawn_values: dict[str, Value]


def eval_guard(guard: exprs.Expr, thing: Thing) -> bool:
    """Evaluate an arc guard against a thing.  Raises exprs.EvalError on
    division by zero; callers treat that as guard-false plus a blocked
    trace record."""
    return bool(exprs.evaluate(guard, thing.attrs))


class Simulation:
    """One run's worth of mutable state over an immutable model."""

    def __init__(self, model: Model, scenario: Scenario, config: SimConfig) -> None:
        self.model = model
        self.config = config
        self.tick = 0
        self.things: dict[int, Thing] = {}
        self.next_id = 1
        self.pending_enables: dict[Endpoint, list[int]] = {}
        self.pending_firings: list[_PendingFiring] = []
        self.gated = model.gated_endpoints()
        self._calendar: dict[int, list[int]] = {}  # completion tick -> thing ids
        self._parked: set[int] = set()
        self.injections = sorted(
            scenario.injections, key=lambda inj: inj.tick
        )  # stable: ties keep declaration order
        self._next_injection = 0
        self.trace: Trace = []
        self._emit_batch(self._apply_injections())

    # Event plumbing -------------------------------------------------------

    def _emit(self, event: TraceEvent) -> None:
        self.trace.append(event)
        if self.config.gate is not None:
            self.config.gate.observe(event)

    def _emit_batch(self, events: Iterable[TraceEvent]) -> None:
        for e in events:
            self._emit(e)

    # Spawning -------------------------------------------------------------

    def _spawn(self, kind_name: str, target: Endpoint, values: dict[str, Value]) -> tuple[Thing, TraceEvent]:
        kind = self.model.kinds[kind_name]
        attrs: dict[str, Value] = {}
        for spec in kind.attrs:
            if spec.name in values:
                v = values[spec.name]
            elif spec.default is not None:
                v = spec.default
            else:
                raise SimError(f"spawn of {kind_name} lacks attribute '{spec.name}'")
            if spec.type == "dec" and isinstance(v, int) and not isinstance(v, bool):
                v = float(v)
            attrs[spec.name] = v
        thing = Thing(self.next_id, kind_name, attrs, target, self.tick, self.tick)
        self.next_id += 1
        self.things[thing.id] = thing
        self._schedule(thing)
        return thing, TraceEvent(self.tick, "spawn", thing.id, kind_name, str(target), None)

    def _apply_injections(self) -> list[TraceEvent]:
        events: list[TraceEvent] = []
        while self._next_injection < len(self.injections):
            inj = self.injections[self._next_injection]
            if inj.tick > self.tick:
                break
            self._next_injection += 1
            _, event = self._spawn(inj.kind, inj.target, dict(inj.attrs))
            events.append(event)
        return events

    def _schedule(self, thing: Thing) -> None:
        """Enter a thing that has just arrived in its completion bucket."""
        self._calendar.setdefault(thing.arrival_tick + self.config.stage_dwell, []).append(thing.id)

    # Move candidates ------------------------------------------------------

    def _arc_candidates(self, thing: Thing, blocked: Optional[list[TraceEvent]]):
        """Flow arcs this thing could take right now, in canonical order,
        before dwell/enable eligibility is applied."""
        if thing.mid_chain:
            label = f"{thing.chain_family}.{thing.chain_index + 1}"
            arc = self.model.flow(label)
            return [arc] if arc is not None else []
        out = []
        for arc in self.model.flows_from(thing.loc):
            if not arc.is_chain_head:
                continue
            if arc.guard is not None:
                try:
                    if not eval_guard(arc.guard, thing):
                        continue
                except exprs.EvalError:
                    if blocked is not None:
                        blocked.append(
                            TraceEvent(self.tick, "blocked", thing.id, thing.kind, str(thing.loc), arc.label)
                        )
                    continue
            out.append(arc)
        return out

    def enabled_moves(self, blocked: Optional[list[TraceEvent]] = None) -> list[tuple[Thing, object]]:
        """Every (thing, arc) pair eligible to move this tick, sorted by
        (arc label, thing id).  A thing at an enable-gated stage is listed
        only while an enable is available for it."""
        tick = self.tick
        dwell = self.config.stage_dwell
        gated = self.gated
        parked = self._parked
        if blocked is None:
            blocked = []  # parking must see blocked records the caller drops
        moves: list[tuple[Thing, object]] = []
        budget = {ep: sum(1 for t in ticks if t < tick) for ep, ticks in self.pending_enables.items()}
        claimed: dict[Endpoint, int] = {}
        for thing in self.things.values():
            if thing.id in parked:
                continue
            loc = thing.loc
            dwelling = tick < thing.arrival_tick + dwell
            if loc in gated:
                # An enable both releases the thing and waives its dwell.
                if claimed.get(loc, 0) >= budget.get(loc, 0):
                    continue
            elif dwelling:
                continue
            n_blocked = len(blocked)
            arcs = self._arc_candidates(thing, blocked)
            if not arcs:
                if not dwelling and len(blocked) == n_blocked:
                    parked.add(thing.id)
                continue
            if loc in gated:
                claimed[loc] = claimed.get(loc, 0) + 1
            moves.extend((thing, arc) for arc in arcs)
        moves.sort(key=lambda pair: (pair[1].label, pair[0].id))
        return moves

    # Stepping -------------------------------------------------------------

    def step(self) -> list[TraceEvent]:
        """Advance one tick; returns the trace events it produced."""
        start = len(self.trace)
        self.tick += 1
        gate = self.config.gate

        self._emit_batch(self._apply_injections())

        # Dwell completions: assigns evaluate, then triggers enqueue.
        dwell = self.config.stage_dwell
        completing = []
        for thing_id in sorted(set(self._calendar.pop(self.tick, ()))):
            thing = self.things.get(thing_id)
            if thing is not None and thing.arrival_tick + dwell == self.tick:
                completing.append(thing)
        new_firings: list[_PendingFiring] = []
        for thing in completing:
            machine = self.model.find_machine(thing.loc.path) if thing.loc.stage is Stage.PROCESS else None
            if machine is not None:
                for name, expr in machine.assigns:
                    try:
                        value = exprs.evaluate(expr, thing.attrs)
                    except exprs.EvalError:
                        self._emit(TraceEvent(self.tick, "blocked", thing.id, thing.kind, str(thing.loc), None))
                        continue
                    spec = self.model.kinds[thing.kind].attr(name)
                    if spec is not None and spec.type == "dec" and isinstance(value, int):
                        value = float(value)
                    thing.attrs[name] = value
            for trig in self.model.triggers_from(thing.loc):
                if trig.guard is not None:
                    try:
                        if not eval_guard(trig.guard, thing):
                            continue
                    except exprs.EvalError:
                        self._emit(TraceEvent(self.tick, "blocked", thing.id, thing.kind, str(thing.loc), trig.label))
                        continue
                values: dict[str, Value] = {}
                failed = False
                for name, expr in trig.spawn_attrs:
                    try:
                        values[name] = exprs.evaluate(expr, thing.attrs)
                    except exprs.EvalError:
                        self._emit(TraceEvent(self.tick, "blocked", thing.id, thing.kind, str(thing.loc), trig.label))
                        failed = True
                        break
                if not failed:
                    new_firings.append(_PendingFiring(self.tick, trig.label, trig, thing.id, values))
        new_firings.sort(key=lambda f: (f.label, f.source_id))
        self.pending_firings.extend(new_firings)

        # Firing phase: spawn, enable, consume.  Firings a gate denies stay
        # queued and retry on later ticks.
        consumed: set[int] = set()
        still_pending: list[_PendingFiring] = []
        for firing in self.pending_firings:
            if gate is not None and not gate.permits(firing.label):
                still_pending.append(firing)
                continue
            trig = firing.trigger
            source = self.things.get(firing.source_id)
            source_kind = source.kind if source is not None else None
            self._emit(
                TraceEvent(self.tick, "trigger-fired", firing.source_id, source_kind, str(trig.dst), firing.label)
            )
            if trig.dst.stage is Stage.CREATE:
                target_kind = self.model.find_machine(trig.dst.path).kind
                _, event = self._spawn(target_kind, trig.dst, firing.spawn_values)
                self._emit(event)
            else:
                self.pending_enables.setdefault(trig.dst, []).append(self.tick)
            if trig.consuming and source is not None and source.loc == trig.src:
                consumed.add(source.id)
        self.pending_firings = still_pending
        for thing_id in sorted(consumed):
            thing = self.things.pop(thing_id)
            self._parked.discard(thing_id)
            self._emit(TraceEvent(self.tick, "consume", thing.id, thing.kind, str(thing.loc), None))

        # Moves: first guard-passing arc per thing, canonical order overall.
        blocked: list[TraceEvent] = []
        candidates = self.enabled_moves(blocked)
        self._emit_batch(blocked)
        moved: set[int] = set()
        for thing, arc in candidates:
            if thing.id in moved or thing.id not in self.things:
                continue
            if gate is not None and not gate.permits(arc.label):
                continue
            if thing.loc in self.gated:
                ticks = self.pending_enables.get(thing.loc, [])
                idx = next((i for i, t in enumerate(ticks) if t < self.tick), None)
                if idx is None:
                    continue
                ticks.pop(idx)
                if not ticks:
                    del self.pending_enables[thing.loc]
            moved.add(thing.id)
            thing.loc = arc.dst
            thing.arrival_tick = self.tick
            thing.chain_family = arc.family
            thing.chain_index = arc.index
            thing.chain_len = arc.chain_len
            self._schedule(thing)
            self._emit(TraceEvent(self.tick, "move", thing.id, thing.kind, str(arc.dst), arc.label))

        return self.trace[start:]

    # Liveness -------------------------------------------------------------

    def live(self) -> bool:
        """False once nothing can ever happen again (quiescence)."""
        if self._next_injection < len(self.injections):
            return True
        gate = self.config.gate
        for firing in self.pending_firings:
            if gate is None or gate.permits(firing.label):
                return True
        dwell = self.config.stage_dwell
        parked = self._parked
        for thing in self.things.values():
            if thing.id in parked:
                continue
            if self.tick < thing.arrival_tick + dwell:
                # Still dwelling: completion may fire triggers or, once
                # assigns run, open a guarded arc.
                if thing.mid_chain or self.model.flows_from(thing.loc) or self.model.triggers_from(thing.loc):
                    return True
                continue
            arcs = self._arc_candidates(thing, None)
            if not arcs:
                continue
            if thing.loc in self.gated:
                if not any(t <= self.tick for t in self.pending_enables.get(thing.loc, [])):
                    continue
            if gate is None or any(gate.permits(a.label) for a in arcs):
                return True
        return False

    def copy(self) -> "Simulation":
        """Cheap fork for what-if exploration; the gate is not forked."""
        clone = object.__new__(Simulation)
        clone.model = self.model
        clone.config = replace(self.config)
        clone.tick = self.tick
        clone.things = {i: replace(t, attrs=dict(t.attrs)) for i, t in self.things.items()}
        clone.next_id = self.next_id
        clone.pending_enables = {ep: list(ts) for ep, ts in self.pending_enables.items()}
        clone.pending_firings = list(self.pending_firings)
        clone.gated = self.gated
        clone._calendar = {tick: list(ids) for tick, ids in self._calendar.items()}
        clone._parked = set(self._parked)
        clone.injections = self.injections
        clone._next_injection = self._next_injection
        clone.trace = list(self.trace)
        return clone


def run(model: Model, scenario: Scenario, config: Optional[SimConfig] = None) -> Trace:
    """Step until quiescence or max_ticks; quiescence is recorded as a final
    trace event."""
    config = config or SimConfig()
    sim = Simulation(model, scenario, config)
    while sim.tick < config.max_ticks and sim.live():
        sim.step()
    if not sim.live():
        sim._emit(TraceEvent(sim.tick, "quiescent", None, None, None, None))
    return sim.trace


# Scenario checks -----------------------------------------------------------


def check_scenario(model: Model, scenario: Scenario) -> list[Diagnostic]:
    """Injections must target create stages of existing machines with the
    right kind, and must cover every attribute lacking a default."""
    diags: list[Diagnostic] = []
    for inj in scenario.injections:
        span = inj.span or SourceSpan("<scenario>", 1, 1, 1, 1)  # built in code, not parsed
        if inj.tick < 0:
            diags.append(error("E_SCENARIO", f"injection tick {inj.tick} is negative", span))
        try:
            ep = resolve_endpoint(model, str(inj.target))
        except ResolutionError as exc:
            diags.append(error("E_SCENARIO", f"injection target {inj.target}: {exc}", span))
            continue
        if ep.stage is not Stage.CREATE:
            diags.append(error("E_SCENARIO", f"injection target {ep} is not a create stage", span))
        machine = model.find_machine(ep.path)
        if machine is not None and machine.kind != inj.kind:
            diags.append(
                error("E_SCENARIO", f"injection of '{inj.kind}' into a machine of kind '{machine.kind}'", span)
            )
        kind = model.kinds.get(inj.kind)
        if kind is None:
            diags.append(error("E_SCENARIO", f"unknown thing kind '{inj.kind}'", span))
            continue
        given = {name for name, _ in inj.attrs}
        for attr in kind.attrs:
            if attr.name not in given and attr.default is None:
                diags.append(
                    error("E_SCENARIO", f"injection of '{inj.kind}' lacks required attribute '{attr.name}'", span)
                )
        for name, value in inj.attrs:
            spec = kind.attr(name)
            if spec is None:
                diags.append(error("E_SCENARIO", f"'{inj.kind}' has no attribute '{name}'", span))
            elif not exprs.assignable(exprs.Lit(value).type, spec.type):
                diags.append(error("E_SCENARIO", f"attribute '{name}' expects {spec.type}", span))
    return diags

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
* Sites.  Each thing carries the ``Site`` of its location from
  ``Model.index`` (set on spawn and on move) and the next ``Hop`` of the
  chain it is on.  A step reads its text, gated flag, chain-head hops,
  triggers and assigns from the site, and a move follows the hop to its
  destination site, so no endpoint is hashed or rendered per record.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple, Optional, Protocol

from . import exprs
from .ast import Injection, Scenario  # noqa: F401  (Injection re-exported)
from .diagnostics import Diagnostic, SourceSpan, error
from .model import Endpoint, Hop, Model, ResolutionError, Site, Stage, TriggerArc, resolve_path
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
    arrival_tick: int
    # Where the thing is, and the next hop of its chain (None at the end).
    site: Site
    next: Optional[Hop] = None


def eval_guard(guard: exprs.Expr, thing: Thing) -> bool:
    """Evaluate an arc guard against a thing.  Raises exprs.EvalError on
    division by zero; callers treat that as guard-false plus a blocked
    trace record."""
    return bool(exprs.evaluate(guard, thing.attrs))


def _coerce(value: Value, name: str, dec: frozenset[str]) -> Value:
    """An int stored in a ``dec`` attribute becomes a float (a bool stays).
    One no float holds raises EvalError, as a failed evaluation does."""
    if type(value) is not int or name not in dec:
        return value
    if not exprs.fits(value, "dec"):
        raise exprs.EvalError(f"attribute '{name}': int too large for a dec")
    return float(value)


# A trigger that fired at a dwell's end and waits for the firing phase:
# (label, source thing id, trigger, spawn values), queued in that order.
_Firing = tuple[str, int, TriggerArc, dict[str, Value]]
_new = tuple.__new__  # skips NamedTuple's Python-level __new__
_by_label = attrgetter("label")


class Simulation:
    """One run's worth of mutable state over an immutable model."""

    def __init__(self, model: Model, scenario: Scenario, config: SimConfig) -> None:
        self.model = model
        self.index = model.index
        self.config = config
        self.tick = 0
        self.things: dict[int, Thing] = {}
        self.next_id = 1
        self.pending_enables: dict[Endpoint, list[int]] = {}
        self.pending_firings: list[_Firing] = []
        self._calendar: dict[int, list[int]] = {}  # completion tick -> thing ids
        self._parked: set[int] = set()
        self.injections = sorted(
            scenario.injections, key=lambda inj: inj.tick
        )  # stable: ties keep declaration order
        self._next_injection = 0
        self.trace: Trace = []
        for event in self._apply_injections():
            self._emit(event)

    # Event plumbing -------------------------------------------------------

    def _emit(self, event: TraceEvent) -> None:
        self.trace.append(event)
        if self.config.gate is not None:
            self.config.gate.observe(event)

    # Spawning -------------------------------------------------------------

    def _spawn(self, kind_name: str, target: Endpoint, values: dict[str, Value]) -> tuple[Thing, TraceEvent]:
        kind = self.model.kinds[kind_name]
        dec = self.index.dec[kind_name]
        attrs: dict[str, Value] = {}
        for spec in kind.attrs:
            if spec.name in values:
                v = values[spec.name]
            elif spec.default is not None:
                v = spec.default
            else:
                raise SimError(f"spawn of {kind_name} lacks attribute '{spec.name}'")
            attrs[spec.name] = _coerce(v, spec.name, dec)
        site = self.index.site(target)
        thing = Thing(self.next_id, kind_name, attrs, self.tick, site)
        self.next_id += 1
        self.things[thing.id] = thing
        self._calendar.setdefault(self.tick + self.config.stage_dwell, []).append(thing.id)
        return thing, _new(TraceEvent, (self.tick, "spawn", thing.id, kind_name, site.text, None))

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

    # Move candidates ------------------------------------------------------

    def _open_heads(self, thing: Thing, blocked: Optional[list[TraceEvent]]) -> list[Hop]:
        """The chain-head hops at the thing's site whose guards pass, in
        label order; a guard that raises adds a ``blocked`` record."""
        out = []
        for hop in thing.site.heads:
            if hop.guard is not None:
                try:
                    if not eval_guard(hop.guard, thing):
                        continue
                except exprs.EvalError:
                    if blocked is not None:
                        record = (self.tick, "blocked", thing.id, thing.kind, thing.site.text, hop.label)
                        blocked.append(_new(TraceEvent, record))
                    continue
            out.append(hop)
        return out

    def enabled_moves(self, blocked: Optional[list[TraceEvent]] = None) -> list[tuple[Thing, Hop]]:
        """Every (thing, hop) pair eligible to move this tick, sorted by
        (arc label, thing id): things are visited in id order, grouped by
        hop, and the hops sorted by label.  A thing at an enable-gated stage
        is listed only while an enable is available for it."""
        tick = self.tick
        dwell = self.config.stage_dwell
        parked = self._parked
        if blocked is None:
            blocked = []  # parking must see blocked records the caller drops
        by_hop: dict[Hop, list[Thing]] = {}
        budget = {ep: sum(1 for t in ticks if t < tick) for ep, ticks in self.pending_enables.items()}
        claimed: dict[Endpoint, int] = {}
        for thing in self.things.values():
            if thing.id in parked:
                continue
            site = thing.site
            dwelling = tick < thing.arrival_tick + dwell
            if site.gated:
                # An enable both releases the thing and waives its dwell.
                if claimed.get(site.ep, 0) >= budget.get(site.ep, 0):
                    continue
            elif dwelling:
                continue
            hops = (thing.next,) if thing.next is not None else ()
            if not hops:
                n_blocked = len(blocked)
                hops = self._open_heads(thing, blocked)
                if not hops:
                    if not dwelling and len(blocked) == n_blocked:
                        parked.add(thing.id)
                    continue
            if site.gated:
                claimed[site.ep] = claimed.get(site.ep, 0) + 1
            for hop in hops:
                by_hop.setdefault(hop, []).append(thing)
        return [(thing, hop) for hop in sorted(by_hop, key=_by_label) for thing in by_hop[hop]]

    # Stepping -------------------------------------------------------------

    def step(self) -> list[TraceEvent]:
        """Advance one tick; returns the trace events it produced."""
        start = len(self.trace)
        self.tick += 1
        tick = self.tick
        gate = self.config.gate
        emit = self.trace.append if gate is None else self._emit

        for event in self._apply_injections():
            emit(event)

        # Dwell completions: assigns evaluate, then triggers enqueue.
        dwell = self.config.stage_dwell
        completing = []
        for thing_id in sorted(set(self._calendar.pop(tick, ()))):
            thing = self.things.get(thing_id)
            if thing is not None and thing.arrival_tick + dwell == tick:
                completing.append(thing)
        new_firings: list[_Firing] = []
        for thing in completing:
            site = thing.site
            for name, expr in site.assigns:
                try:
                    thing.attrs[name] = _coerce(exprs.evaluate(expr, thing.attrs), name, self.index.dec[thing.kind])
                except exprs.EvalError:
                    emit(_new(TraceEvent, (tick, "blocked", thing.id, thing.kind, site.text, None)))
            for trig in site.triggers:
                try:
                    if trig.guard is not None and not eval_guard(trig.guard, thing):
                        continue
                    values = {name: exprs.evaluate(expr, thing.attrs) for name, expr in trig.spawn_attrs}
                    if values and trig.dst.stage is Stage.CREATE:
                        dec = self.index.dec[self.model.find_machine(trig.dst.path).kind]
                        values = {name: _coerce(v, name, dec) for name, v in values.items()}
                except exprs.EvalError:
                    emit(_new(TraceEvent, (tick, "blocked", thing.id, thing.kind, site.text, trig.label)))
                    continue
                new_firings.append((trig.label, thing.id, trig, values))
        new_firings.sort(key=lambda f: f[:2])
        self.pending_firings.extend(new_firings)

        # Firing phase: spawn, enable, consume.  Firings a gate denies stay
        # queued and retry on later ticks.
        consumed: set[int] = set()
        still_pending: list[_Firing] = []
        for firing in self.pending_firings:
            label, source_id, trig, values = firing
            if gate is not None and not gate.permits(label):
                still_pending.append(firing)
                continue
            source = self.things.get(source_id)
            source_kind = source.kind if source is not None else None
            emit(_new(TraceEvent, (tick, "trigger-fired", source_id, source_kind, str(trig.dst), label)))
            if trig.dst.stage is Stage.CREATE:
                target_kind = self.model.find_machine(trig.dst.path).kind
                _, event = self._spawn(target_kind, trig.dst, values)
                emit(event)
            else:
                self.pending_enables.setdefault(trig.dst, []).append(tick)
            if trig.consuming and source is not None and source.site.ep == trig.src:
                consumed.add(source.id)
        self.pending_firings = still_pending
        for thing_id in sorted(consumed):
            thing = self.things.pop(thing_id)
            self._parked.discard(thing_id)
            emit(_new(TraceEvent, (tick, "consume", thing.id, thing.kind, thing.site.text, None)))

        # Moves: first guard-passing arc per thing, canonical order overall.
        blocked: list[TraceEvent] = []
        candidates = self.enabled_moves(blocked)
        for event in blocked:
            emit(event)
        moved: set[int] = set()
        for thing, hop in candidates:
            if thing.id in moved:
                continue
            if gate is not None and not gate.permits(hop.label):
                continue
            site = thing.site
            if site.gated:
                ticks = self.pending_enables.get(site.ep, [])
                idx = next((i for i, t in enumerate(ticks) if t < tick), None)
                if idx is None:
                    continue
                ticks.pop(idx)
                if not ticks:
                    del self.pending_enables[site.ep]
            moved.add(thing.id)
            dst = hop.dst
            thing.site, thing.next = dst, hop.next
            thing.arrival_tick = tick
            emit(_new(TraceEvent, (tick, "move", thing.id, thing.kind, dst.text, hop.label)))
        if moved:
            self._calendar.setdefault(tick + dwell, []).extend(moved)

        return self.trace[start:]

    # Liveness -------------------------------------------------------------

    def live(self) -> bool:
        """False once nothing can ever happen again (quiescence)."""
        if self._next_injection < len(self.injections):
            return True
        gate = self.config.gate
        for firing in self.pending_firings:
            if gate is None or gate.permits(firing[0]):
                return True
        dwell = self.config.stage_dwell
        parked = self._parked
        for thing in self.things.values():
            if thing.id in parked:
                continue
            site = thing.site
            if self.tick < thing.arrival_tick + dwell:
                # Still dwelling: completion may fire triggers or open a
                # guarded arc (a mid-chain thing's next hop leaves too).
                if site.leaves:
                    return True
                continue
            hops = [thing.next] if thing.next is not None else self._open_heads(thing, None)
            if not hops:
                continue
            if site.gated and not any(t <= self.tick for t in self.pending_enables.get(site.ep, [])):
                continue
            if gate is None or any(gate.permits(hop.label) for hop in hops):
                return True
        return False


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
        target = inj.target
        try:
            machine = resolve_path(model, target.path, target.stage.value, str(target))
        except ResolutionError as exc:
            diags.append(error("E_SCENARIO", f"injection target {target}: {exc}", span))
            continue
        if target.stage is not Stage.CREATE:
            diags.append(error("E_SCENARIO", f"injection target {target} is not a create stage", span))
        if machine.kind != inj.kind:
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
            elif not exprs.fits(value, spec.type):
                diags.append(error("E_SCENARIO", f"attribute '{name}': int too large for a dec", span))
    return diags

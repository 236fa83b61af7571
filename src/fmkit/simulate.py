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

* Completion calendar.  A dwell's end does work only at a site with
  assigns or triggers (``Site.completes``), so only an arrival (spawn or
  move) at such a site puts the thing's id into the bucket of the tick its
  dwell completes; an arrival anywhere else is never visited again by
  completion.  A tick completes the things of its own bucket, in id order,
  skipping stale entries: a thing that has been consumed, or that left
  early through an enable and so arrived again since.
* Parked things.  A thing that is past its dwell, has no candidate arc and
  whose guards raised no error (so it emitted no ``blocked`` record) is
  parked: it leaves ``_active``, the live things that are not parked, which
  move selection and ``live()`` walk, and stays only in ``self.things``.
  Candidates depend on the location, the chain position and the guards;
  guards read only attributes, and attributes change only when a dwell
  completes, which for a parked thing has already happened at this
  location.  Only a move changes the location, so a parked thing can never
  move again and never re-enters ``_active`` (it can still be consumed,
  which removes it from both).  A thing at an enable-gated stage is
  examined before its dwell is over, since an enable waives the dwell; it
  is never parked then, because its completion may still assign attributes.
* ``self.things`` and ``_active`` are iterated in dict order, which is id
  order: ids are monotone and a thing that leaves is never re-inserted.
* Sites.  Each thing carries the ``Site`` of its location from the
  run's ``ModelIndex`` (set on spawn and on move) and the next ``Hop`` of the
  chain it is on.  A site carries its text, its machine's kind, gated
  flag, chain-head hops, triggers and assigns, which a step reads, and a
  move follows the hop to its destination site.  ``Endpoint`` caches
  nothing, so a step neither renders nor hashes one per thing: every
  record's ``at`` is the text of a site, built once per endpoint (the
  records at one endpoint share one string), and pending enables are kept
  by site.
* Enables.  A gated site's pending enables are a queue of deposit ticks,
  oldest first.  An enable deposited at tick t is usable from t+1, and the
  oldest is used first; every pending enable is usable by the next tick, so
  ``live()`` asks only whether the site holds one.
"""
from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Iterator, NamedTuple, Optional, Protocol

from . import exprs
from .ast import Injection, Scenario  # noqa: F401  (Injection re-exported)
from .diagnostics import Diagnostic, Record, SourceSpan, error
from .model import Endpoint, FlowArc, Machine, Model, ResolutionError, Stage, TriggerArc, resolve_path
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
        return self._asdict()


Trace = list  # of TraceEvent
_by_label = attrgetter("label")


class Hop:
    """A flow arc with its destination site and its chain's next hop."""

    __slots__ = ("arc", "label", "guard", "dst", "next")

    def __init__(self, arc: FlowArc) -> None:
        self.arc, self.label, self.guard = arc, arc.label, arc.guard


class Site:
    """A stage as the simulator reads it: its text, its machine's kind, whether it waits
    on an enable (a trigger into a stage other than create targets it), its chain-head
    hops and triggers in label order, its machine's assigns (process only), whether any arc leaves it,
    and whether a dwell's end here does any work (assigns or triggers), so an arrival enters the calendar."""

    __slots__ = ("ep", "text", "kind", "gated", "heads", "triggers", "assigns", "leaves", "completes")

    def __init__(self, ep: Endpoint, machine: Machine, gated: bool) -> None:
        self.ep, self.text, self.kind, self.gated = ep, str(ep), machine.kind, gated
        self.assigns = machine.assigns if ep.stage is Stage.PROCESS else ()
        self.heads, self.triggers, self.leaves = (), (), False
        self.completes = bool(self.assigns)


class ModelIndex:
    """One ``Site`` per stage of every machine and one ``Hop`` per flow arc, plus
    each kind's ``dec`` attribute names: what a simulator step reads.  Every arc
    of a canonical model joins two stages of their machines; any other is a SimError."""

    def __init__(self, model: Model) -> None:
        self.dec = {k.name: frozenset(a.name for a in k.attrs if a.type == "dec") for k in model.kinds.values()}
        gated = {t.dst for t in model.triggers if t.dst.stage is not Stage.CREATE}
        self.sites: dict[Endpoint, Site] = {}
        for path, machine in model.machines():
            for stage in machine.stages():
                ep = Endpoint(path, stage)
                self.sites[ep] = Site(ep, machine, ep in gated)
        hops = {a.label: Hop(a) for a in model.flows}
        for hop in sorted(hops.values(), key=_by_label):
            arc = hop.arc
            src, hop.dst = self._ends(arc)
            hop.next = hops.get(f"{arc.family}.{arc.index + 1}") if arc.index + 1 < arc.chain_len else None
            src.leaves = True
            if arc.is_chain_head:
                src.heads += (hop,)
        for trig in sorted(model.triggers, key=_by_label):
            src = self._ends(trig)[0]
            src.triggers += (trig,)
            src.leaves = src.completes = True

    def _ends(self, arc: FlowArc | TriggerArc) -> tuple[Site, Site]:
        for ep in (arc.src, arc.dst):
            if ep not in self.sites:
                raise SimError(f"arc '{arc.label}' joins {ep}, which is not a stage of its machine")
        return self.sites[arc.src], self.sites[arc.dst]


class Gate(Protocol):
    """Behavior enforcement hook consulted before region arcs act."""

    def permits(self, arc_label: str) -> bool: ...

    def observe(self, event: TraceEvent) -> None: ...


class SimConfig(Record):
    __slots__ = _fields = ("max_ticks", "stage_dwell", "gate")

    def __init__(self, max_ticks: int = 1000, stage_dwell: int = 1, gate: Optional[Gate] = None) -> None:
        if max_ticks < 0:
            raise SimError("max_ticks must be >= 0")
        if stage_dwell < 1:
            raise SimError("stage_dwell must be >= 1")
        self.max_ticks, self.stage_dwell, self.gate = max_ticks, stage_dwell, gate


class Thing(Record):
    # site is where the thing is, and next the next hop of its chain (None at the end).
    __slots__ = _fields = ("id", "kind", "attrs", "arrival_tick", "site", "next")

    def __init__(
        self, id: int, kind: str, attrs: dict[str, Value], arrival_tick: int, site: Site, next: Optional[Hop] = None
    ) -> None:
        self.id, self.kind, self.attrs, self.arrival_tick = id, kind, attrs, arrival_tick
        self.site, self.next = site, next


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


class Simulation:
    """One run's worth of mutable state over an immutable model.

    ``trace`` gathers every record the run emits, in order, until its
    owner clears it: a loop of ``step()`` and ``live()`` finds the whole
    trace there, while `stream` hands each tick's records on and clears it."""

    def __init__(self, model: Model, scenario: Scenario, config: SimConfig) -> None:
        self.model = model
        self.index = ModelIndex(model)
        self.config = config
        self.tick = 0
        self.things: dict[int, Thing] = {}
        self.next_id = 1
        self.pending_enables: dict[Site, list[int]] = {}  # gated site -> enable ticks, oldest first
        self.pending_firings: list[_Firing] = []
        self._calendar: dict[int, list[int]] = {}  # completion tick -> thing ids
        self._active: dict[int, Thing] = {}  # the live things not parked, in id order
        self.injections = sorted(
            scenario.injections, key=lambda inj: inj.tick
        )  # stable: ties keep declaration order
        self._next_injection = 0
        self.trace: Trace = []
        self._apply_injections()

    # Event plumbing -------------------------------------------------------

    def _emit(self, event: TraceEvent) -> None:
        self.trace.append(event)
        if self.config.gate is not None:
            self.config.gate.observe(event)

    # Spawning -------------------------------------------------------------

    def _spawn(self, kind_name: str, site: Site, values: dict[str, Value]) -> None:
        """Spawn at ``site`` with the given values (coerced already) and
        defaults for the rest, and emit the spawn record."""
        kind = self.model.kinds[kind_name]
        dec = self.index.dec[kind_name]
        attrs: dict[str, Value] = {}
        for spec in kind.attrs:
            if spec.name in values:
                attrs[spec.name] = values[spec.name]
            elif spec.default is not None:
                attrs[spec.name] = _coerce(spec.default, spec.name, dec)
            else:
                raise SimError(f"spawn of {kind_name} lacks attribute '{spec.name}'")
        thing = Thing(self.next_id, kind_name, attrs, self.tick, site)
        self.next_id += 1
        self.things[thing.id] = self._active[thing.id] = thing
        if site.completes:
            self._calendar.setdefault(self.tick + self.config.stage_dwell, []).append(thing.id)
        self._emit(_new(TraceEvent, (self.tick, "spawn", thing.id, kind_name, site.text, None)))

    def _apply_injections(self) -> None:
        while self._next_injection < len(self.injections):
            inj = self.injections[self._next_injection]
            if inj.tick > self.tick:
                break
            self._next_injection += 1
            dec = self.index.dec.get(inj.kind)
            if dec is None:
                raise SimError(f"injection of undeclared kind '{inj.kind}'")
            site = self.index.sites.get(inj.target)
            if site is None:
                raise SimError(f"injection target {inj.target} is not a stage of the model")
            values = {name: _coerce(v, name, dec) for name, v in inj.attrs}
            self._spawn(inj.kind, site, values)

    # Move candidates ------------------------------------------------------

    def _open_heads(self, thing: Thing, blocked: list[TraceEvent]) -> list[Hop]:
        """The chain-head hops at the thing's site whose guards pass, in
        label order; a guard that raises adds a ``blocked`` record."""
        out = []
        for hop in thing.site.heads:
            if hop.guard is not None:
                try:
                    if not eval_guard(hop.guard, thing):
                        continue
                except exprs.EvalError:
                    record = (self.tick, "blocked", thing.id, thing.kind, thing.site.text, hop.label)
                    blocked.append(_new(TraceEvent, record))
                    continue
            out.append(hop)
        return out

    def enabled_moves(self, blocked: list[TraceEvent]) -> list[tuple[Thing, Hop]]:
        """Every (thing, hop) pair eligible to move this tick, sorted by
        (arc label, thing id): things are visited in id order, grouped by
        hop, and the hops sorted by label.  A thing at an enable-gated stage
        is listed only while an enable is available for it."""
        tick = self.tick
        dwell = self.config.stage_dwell
        active = self._active
        parked: list[int] = []
        by_hop: dict[Hop, list[Thing]] = {}
        budget = {site: bisect_left(ticks, tick) for site, ticks in self.pending_enables.items()}
        claimed: dict[Site, int] = {}
        for thing in active.values():
            site = thing.site
            dwelling = tick < thing.arrival_tick + dwell
            if site.gated:
                # An enable both releases the thing and waives its dwell.
                if claimed.get(site, 0) >= budget.get(site, 0):
                    continue
            elif dwelling:
                continue
            hop = thing.next
            if hop is not None:  # mid-chain: its one hop
                by_hop.setdefault(hop, []).append(thing)
            else:
                n_blocked = len(blocked)
                hops = self._open_heads(thing, blocked)
                if not hops:
                    if not dwelling and len(blocked) == n_blocked:
                        parked.append(thing.id)
                    continue
                for hop in hops:
                    by_hop.setdefault(hop, []).append(thing)
            if site.gated:
                claimed[site] = claimed.get(site, 0) + 1
        for thing_id in parked:
            del active[thing_id]
        return [(thing, hop) for hop in sorted(by_hop, key=_by_label) for thing in by_hop[hop]]

    # Stepping -------------------------------------------------------------

    def step(self) -> list[TraceEvent]:
        """Advance one tick; returns the trace events it produced."""
        start = len(self.trace)
        self.tick += 1
        tick = self.tick
        gate = self.config.gate
        emit = self.trace.append if gate is None else self._emit
        self._apply_injections()

        # Dwell completions: assigns evaluate, then triggers enqueue.
        dwell = self.config.stage_dwell
        new_firings: list[_Firing] = []
        for thing_id in sorted(set(self._calendar.pop(tick, ()))):
            thing = self.things.get(thing_id)
            if thing is None or thing.arrival_tick + dwell != tick:
                continue  # consumed, or left early through an enable
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
                        dec = self.index.dec[self.index.sites[trig.dst].kind]
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
            dst = self.index.sites[trig.dst]
            emit(_new(TraceEvent, (tick, "trigger-fired", source_id, source_kind, dst.text, label)))
            if trig.dst.stage is Stage.CREATE:
                self._spawn(dst.kind, dst, values)
            else:
                self.pending_enables.setdefault(dst, []).append(tick)
            if trig.consuming and source is not None and source.site.ep == trig.src:
                consumed.add(source.id)
        self.pending_firings = still_pending
        for thing_id in sorted(consumed):
            thing = self.things.pop(thing_id)
            self._active.pop(thing_id, None)
            emit(_new(TraceEvent, (tick, "consume", thing.id, thing.kind, thing.site.text, None)))

        # Moves: first guard-passing arc per thing, canonical order overall.
        blocked: list[TraceEvent] = []
        candidates = self.enabled_moves(blocked)
        for event in blocked:
            emit(event)
        moved: set[int] = set()
        due: list[int] = []
        for thing, hop in candidates:
            if thing.id in moved:
                continue
            if gate is not None and not gate.permits(hop.label):
                continue
            site = thing.site
            if site.gated:
                # Within the budget, so the head is from an earlier tick.
                ticks = self.pending_enables[site]
                del ticks[0]
                if not ticks:
                    del self.pending_enables[site]
            moved.add(thing.id)
            dst = hop.dst
            thing.site, thing.next = dst, hop.next
            thing.arrival_tick = tick
            if dst.completes:
                due.append(thing.id)
            emit(_new(TraceEvent, (tick, "move", thing.id, thing.kind, dst.text, hop.label)))
        if due:
            self._calendar.setdefault(tick + dwell, []).extend(due)

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
        for thing in self._active.values():
            site = thing.site
            if self.tick < thing.arrival_tick + dwell:
                # Still dwelling: completion may fire triggers or open a
                # guarded arc (a mid-chain thing's next hop leaves too).
                if site.leaves:
                    return True
                continue
            hops = [thing.next] if thing.next is not None else self._open_heads(thing, [])
            if not hops:
                continue
            if site.gated and site not in self.pending_enables:
                continue
            if gate is None or any(gate.permits(hop.label) for hop in hops):
                return True
        return False


def stream(model: Model, scenario: Scenario, config: Optional[SimConfig] = None) -> Iterator[TraceEvent]:
    """Step until quiescence or max_ticks, yielding each tick's records as
    the tick makes them; quiescence is recorded as a final record.  The
    records leave ``sim.trace`` once yielded, so a run keeps none of them:
    its memory follows the live things, not the length of the run."""
    config = config or SimConfig()
    sim = Simulation(model, scenario, config)
    trace = sim.trace
    while True:
        yield from trace
        trace.clear()
        if sim.tick >= config.max_ticks or not sim.live():
            break
        sim.step()
    if not sim.live():
        sim._emit(TraceEvent(sim.tick, "quiescent", None, None, None, None))
        yield from trace


def run(model: Model, scenario: Scenario, config: Optional[SimConfig] = None) -> Trace:
    """The whole trace of `stream`, as one list."""
    return list(stream(model, scenario, config))


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

"""Reference for the simulator's step: ``Simulation`` as it was before the
completion calendar held only arrivals with work at dwell end and before
parked things left the scan.

``ReferenceSimulation`` keeps that version's ``_spawn``, ``enabled_moves``,
``step`` and ``live`` word for word over today's ``Simulation``: every
arrival enters the completion calendar, parked things are a set of ids
that every scan skips one by one, and a mid-chain thing joins its hop's
group through a one-element tuple.  Its trace, and the pairs its
``enabled_moves`` returns on each tick, must equal the simulator's.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from fmkit import exprs
from fmkit.model import Stage
from fmkit.simulate import (
    Hop, SimError, Simulation, Site, Thing, TraceEvent, Value, _by_label, _coerce, _Firing, _new, eval_guard,
)


class ReferenceSimulation(Simulation):
    def __init__(self, *args, **kwargs) -> None:
        self._parked: set[int] = set()
        super().__init__(*args, **kwargs)

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
        self.things[thing.id] = thing
        self._calendar.setdefault(self.tick + self.config.stage_dwell, []).append(thing.id)
        self._emit(_new(TraceEvent, (self.tick, "spawn", thing.id, kind_name, site.text, None)))


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
        budget = {site: bisect_left(ticks, tick) for site, ticks in self.pending_enables.items()}
        claimed: dict[Site, int] = {}
        for thing in self.things.values():
            if thing.id in parked:
                continue
            site = thing.site
            dwelling = tick < thing.arrival_tick + dwell
            if site.gated:
                # An enable both releases the thing and waives its dwell.
                if claimed.get(site, 0) >= budget.get(site, 0):
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
                claimed[site] = claimed.get(site, 0) + 1
            for hop in hops:
                by_hop.setdefault(hop, []).append(thing)
        return [(thing, hop) for hop in sorted(by_hop, key=_by_label) for thing in by_hop[hop]]


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
                # Within the budget, so the head is from an earlier tick.
                ticks = self.pending_enables[site]
                del ticks[0]
                if not ticks:
                    del self.pending_enables[site]
            moved.add(thing.id)
            dst = hop.dst
            thing.site, thing.next = dst, hop.next
            thing.arrival_tick = tick
            emit(_new(TraceEvent, (tick, "move", thing.id, thing.kind, dst.text, hop.label)))
        if moved:
            self._calendar.setdefault(tick + dwell, []).extend(moved)

        return self.trace[start:]

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
            hops = [thing.next] if thing.next is not None else self._open_heads(thing, [])
            if not hops:
                continue
            if site.gated and site not in self.pending_enables:
                continue
            if gate is None or any(gate.permits(hop.label) for hop in hops):
                return True
        return False


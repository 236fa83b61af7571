"""Brute-force reference interpreter used to mint golden traces.

Independent re-implementation of the tick semantics: every tick it
enumerates the complete enabled-move set from scratch with plain loops and
dictionaries, and (in strict mode) asserts the execution is unique, i.e.
no thing ever has more than one candidate arc.  It deliberately shares
nothing with fmkit.simulate beyond the model structures, so a bug in the
simulator cannot hide in the oracle.
"""
from __future__ import annotations

import json

from fmkit import exprs
from fmkit.model import Model, Stage


def _dec_overflows(spec, value) -> bool:
    """A non-bool int bound for a dec attribute that no float holds."""
    if spec is None or spec.type != "dec" or not isinstance(value, int) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return True
    return False


class OracleThing:
    def __init__(self, tid, kind, attrs, loc, tick):
        self.id = tid
        self.kind = kind
        self.attrs = attrs
        self.loc = loc
        self.arrival = tick
        self.last_family = None
        self.last_index = -1
        self.last_len = 0


class OracleSim:
    def __init__(self, model: Model, injections, dwell: int = 1, strict_unique: bool = False):
        # injections: list of (tick, kind, endpoint, attrs-dict)
        self.model = model
        self.dwell = dwell
        self.strict = strict_unique
        self.injections = sorted(injections, key=lambda i: i[0])
        self.used = 0
        self.tick = 0
        self.things: dict[int, OracleThing] = {}
        self.next_id = 1
        self.enables: dict[str, list[int]] = {}
        self.records: list[dict] = []
        self.gated = {str(t.dst) for t in model.triggers if t.dst.stage is not Stage.CREATE}
        self._inject()

    # -- helpers

    def _rec(self, action, thing=None, kind=None, at=None, arc=None):
        self.records.append(
            {"tick": self.tick, "action": action, "thing": thing, "kind": kind, "at": at, "arc": arc}
        )

    def _fill_attrs(self, kind_name, given):
        kind = self.model.kinds[kind_name]
        attrs = {}
        for spec in kind.attrs:
            if spec.name in given:
                value = given[spec.name]
            else:
                value = spec.default
            if spec.type == "dec" and isinstance(value, int) and not isinstance(value, bool):
                value = float(value)
            attrs[spec.name] = value
        return attrs

    def _spawn(self, kind_name, endpoint, given):
        thing = OracleThing(self.next_id, kind_name, self._fill_attrs(kind_name, given), endpoint, self.tick)
        self.next_id += 1
        self.things[thing.id] = thing
        self._rec("spawn", thing.id, kind_name, str(endpoint))

    def _inject(self):
        while self.used < len(self.injections) and self.injections[self.used][0] <= self.tick:
            _, kind, endpoint, attrs = self.injections[self.used]
            self.used += 1
            self._spawn(kind, endpoint, dict(attrs))

    def _candidates(self, thing, emit_blocked):
        """All flow arcs the thing could take, honoring chain-following, in
        label order; guards are tested in that order too, so a thing's
        ``blocked`` records come in label order."""
        if thing.last_family is not None and thing.last_index + 1 < thing.last_len:
            nxt = self.model.flow(f"{thing.last_family}.{thing.last_index + 1}")
            return [nxt] if nxt is not None else []
        found = []
        for arc in sorted(self.model.flows, key=lambda a: a.label):
            if arc.src != thing.loc or arc.index != 0:
                continue
            if arc.guard is not None:
                try:
                    passed = bool(exprs.evaluate(arc.guard, thing.attrs))
                except exprs.EvalError:
                    if emit_blocked:
                        self._rec("blocked", thing.id, thing.kind, str(thing.loc), arc.label)
                    continue
                if not passed:
                    continue
            found.append(arc)
        return found

    # -- one tick

    def step(self):
        self.tick += 1
        self._inject()

        # Dwell completions in id order: assigns, then trigger collection.
        firings = []
        for tid in sorted(self.things):
            thing = self.things[tid]
            if thing.arrival + self.dwell != self.tick:
                continue
            machine = self.model.find_machine(thing.loc.path)
            if machine is not None and thing.loc.stage is Stage.PROCESS:
                for name, expr in machine.assigns:
                    spec = self.model.kinds[thing.kind].attr(name)
                    try:
                        value = exprs.evaluate(expr, thing.attrs)
                    except exprs.EvalError:
                        value = None
                    if value is None or _dec_overflows(spec, value):
                        self._rec("blocked", thing.id, thing.kind, str(thing.loc))
                        continue
                    if spec is not None and spec.type == "dec" and isinstance(value, int):
                        value = float(value)
                    thing.attrs[name] = value
            triggers = sorted(
                (t for t in self.model.triggers if t.src == thing.loc), key=lambda t: t.label
            )
            for trig in triggers:
                if trig.guard is not None:
                    try:
                        if not bool(exprs.evaluate(trig.guard, thing.attrs)):
                            continue
                    except exprs.EvalError:
                        self._rec("blocked", thing.id, thing.kind, str(thing.loc), trig.label)
                        continue
                spawn_values = {}
                bad = False
                target = None
                if trig.dst.stage is Stage.CREATE:
                    target = self.model.kinds[self.model.find_machine(trig.dst.path).kind]
                for name, expr in trig.spawn_attrs:
                    try:
                        value = exprs.evaluate(expr, thing.attrs)
                    except exprs.EvalError:
                        value = None
                    if value is None or (target is not None and _dec_overflows(target.attr(name), value)):
                        self._rec("blocked", thing.id, thing.kind, str(thing.loc), trig.label)
                        bad = True
                        break
                    spawn_values[name] = value
                if not bad:
                    firings.append((trig.label, thing.id, trig, spawn_values))
        firings.sort(key=lambda f: (f[0], f[1]))

        consumed = set()
        for label, source_id, trig, spawn_values in firings:
            source = self.things.get(source_id)
            self._rec("trigger-fired", source_id, source.kind if source else None, str(trig.dst), label)
            if trig.dst.stage is Stage.CREATE:
                kind = self.model.find_machine(trig.dst.path).kind
                self._spawn(kind, trig.dst, spawn_values)
            else:
                self.enables.setdefault(str(trig.dst), []).append(self.tick)
            if trig.consuming and source is not None and source.loc == trig.src:
                consumed.add(source_id)
        for tid in sorted(consumed):
            thing = self.things.pop(tid)
            self._rec("consume", tid, thing.kind, str(thing.loc))

        # Moves: full enumeration, then canonical order.
        chosen = []
        claims: dict[str, int] = {}
        for tid in sorted(self.things):
            thing = self.things[tid]
            loc_key = str(thing.loc)
            if loc_key in self.gated:
                available = sum(1 for t in self.enables.get(loc_key, []) if t < self.tick)
                if claims.get(loc_key, 0) >= available:
                    continue
            elif self.tick < thing.arrival + self.dwell:
                continue
            arcs = self._candidates(thing, emit_blocked=True)
            if not arcs:
                continue
            if self.strict and len(arcs) > 1:
                raise AssertionError(
                    f"tick {self.tick}: thing {tid} has {len(arcs)} enabled moves; execution not unique"
                )
            if loc_key in self.gated:
                claims[loc_key] = claims.get(loc_key, 0) + 1
            chosen.append((arcs[0].label, tid, arcs[0]))
        chosen.sort(key=lambda c: (c[0], c[1]))
        for label, tid, arc in chosen:
            thing = self.things[tid]
            loc_key = str(thing.loc)
            if loc_key in self.gated:
                ticks = self.enables.get(loc_key, [])
                for i, created in enumerate(ticks):
                    if created < self.tick:
                        ticks.pop(i)
                        break
                else:
                    continue
                if not ticks:
                    del self.enables[loc_key]
            thing.loc = arc.dst
            thing.arrival = self.tick
            thing.last_family = arc.family
            thing.last_index = arc.index
            thing.last_len = arc.chain_len
            self._rec("move", tid, thing.kind, str(arc.dst), label)

    def live(self):
        if self.used < len(self.injections):
            return True
        for thing in self.things.values():
            mid = thing.last_family is not None and thing.last_index + 1 < thing.last_len
            if self.tick < thing.arrival + self.dwell:
                raw = mid or any(a.src == thing.loc for a in self.model.flows) or any(
                    t.src == thing.loc for t in self.model.triggers
                )
                if raw:
                    return True
                continue
            arcs = self._candidates(thing, emit_blocked=False)
            if not arcs:
                continue
            loc_key = str(thing.loc)
            if loc_key in self.gated and not any(
                t <= self.tick for t in self.enables.get(loc_key, [])
            ):
                continue
            return True
        return False

    def run(self, max_ticks):
        while self.tick < max_ticks and self.live():
            self.step()
        if not self.live():
            self._rec("quiescent")
        return self.records


def oracle_lines(records) -> str:
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)


def run_oracle(model, scenario, max_ticks, dwell: int = 1, strict_unique: bool = False) -> str:
    """Run the oracle over a fmkit Scenario; returns trace JSONL text."""
    injections = [(inj.tick, inj.kind, inj.target, dict(inj.attrs)) for inj in scenario.injections]
    sim = OracleSim(model, injections, dwell=dwell, strict_unique=strict_unique)
    return oracle_lines(sim.run(max_ticks))

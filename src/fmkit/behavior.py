"""Event regions, occurrence detection, and chronology control.

An event names a region of the model; it occurs when one thing traverses
every flow arc of that region.  Chronology programs compose events with
seq / choice / par / repeat-possible / interrupt and compile to a
deterministic automaton.  Conformance feeds detected occurrences through
the automaton: a trace conforms while no occurrence deviates from it
(an unfinished program is not a violation — a wrong step is).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .model import (
    Choice,
    Chrono,
    EventDef,
    Interrupt,
    Model,
    Par,
    Ref,
    Repeat,
    Seq,
)
from .simulate import TraceEvent


class BehaviorError(Exception):
    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code

    def __reduce__(self):
        return type(self), (self.code, *self.args)


@dataclass(frozen=True)
class Occurrence:
    event: str
    start: int
    end: int
    thing: int

    def to_json(self) -> dict:
        return {"event": self.event, "start": self.start, "end": self.end, "thing": self.thing}


class OccurrenceScanner:
    """Incremental detector shared by offline checking and the live gate.

    Tracks, per (event, thing), which region flow arcs that thing has
    traversed; emits an occurrence when the set is complete and resets so
    the same event can occur again.  A record is looked up by its action
    and its arc label or stage text, so it touches only the events whose
    region it lies in, still in event order.
    """

    def __init__(self, events: Sequence[EventDef]) -> None:
        self._flow_count = {e.name: len(e.region.flow_labels) for e in events}
        # Arc label or stage text -> names of the events it touches, in event
        # order.  The gate reads `by_arc` as its arc -> owners table.
        self._by_flow: dict[str, list[str]] = {}
        self.by_arc: dict[str, list[str]] = {}
        self._by_stage: dict[str, list[str]] = {}
        for e in events:
            stages = {str(ep) for ep in e.region.stages}
            for index, keys in ((self._by_flow, e.region.flow_labels), (self.by_arc, e.region.arc_labels), (self._by_stage, stages)):
                for key in keys:
                    index.setdefault(key, []).append(e.name)
        # event -> thing -> [start tick, flow labels traversed so far]
        self._progress: dict[str, dict[int, list]] = {e.name: {} for e in events}

    def feed(self, event: TraceEvent) -> list[Occurrence]:
        """Consume one trace record; return occurrences it completed."""
        out: list[Occurrence] = []
        thing = event.thing
        if thing is None:
            return out
        action = event.action
        if action == "move":
            names = self._by_flow.get(event.arc)
        elif action == "trigger-fired":
            names = self.by_arc.get(event.arc)
        elif action == "spawn" or action == "consume":
            names = self._by_stage.get(event.at)
        else:
            return out
        if names is None:
            return out
        for name in names:
            started = self._progress[name]
            entry = started.get(thing)
            if entry is None:
                entry = started[thing] = [event.tick, set()]
            if action == "move":
                # Only moves add to the traversed set, so only they complete.
                seen = entry[1]
                seen.add(event.arc)
                if len(seen) == self._flow_count[name]:
                    out.append(Occurrence(name, entry[0], event.tick, thing))
                    del started[thing]
        return out


def detect_occurrences(trace: Iterable[TraceEvent], events: Sequence[EventDef]) -> list[Occurrence]:
    """All occurrences in the trace, in completion order.

    Completion order is monotone in end tick and, for traces whose
    occurrences do not overlap, identical to start-tick order.  Events that
    one record completes come in event declaration order.  It is exactly
    the order in which an enforcement gate steps its run, so the gate's
    verdict is `check` of the trace it let through.
    """
    scanner = OccurrenceScanner(events)
    return [occ for record in trace for occ in scanner.feed(record)]


# Automaton ------------------------------------------------------------------

# The most states a behaviour's automaton, or one built on the way, may
# have: subset construction is exponential in the worst case (a program of
# nine events needs 833,863 states and 33 s).  The limit is hit in ~1 s.
MAX_STATES = 1 << 16


def _too_large() -> BehaviorError:
    return BehaviorError("behavior-too-large", f"the behavior's automaton needs more than {MAX_STATES} states")


@dataclass
class _Fragment:
    start: int
    finals: frozenset[int]
    nodes: frozenset[int]


class _NfaBuilder:
    def __init__(self) -> None:
        self.next_node = 0
        # (src, label-or-None, dst, is_watcher)
        self.edges: list[tuple[int, Optional[str], int, bool]] = []

    def node(self) -> int:
        self.next_node += 1
        return self.next_node - 1

    def edge(self, src: int, label: Optional[str], dst: int, watcher: bool = False) -> None:
        self.edges.append((src, label, dst, watcher))

    def build(self, node: Chrono, known: Optional[set[str]]) -> _Fragment:
        if isinstance(node, Ref):
            if known is not None and node.event not in known:
                raise BehaviorError("unresolved-ref", f"unknown event '{node.event}'")
            a, b = self.node(), self.node()
            self.edge(a, node.event, b)
            return _Fragment(a, frozenset({b}), frozenset({a, b}))
        if isinstance(node, Seq):
            frags = [self.build(c, known) for c in node.children]
            for left, right in zip(frags, frags[1:]):
                for f in left.finals:
                    self.edge(f, None, right.start)
            nodes = frozenset().union(*(f.nodes for f in frags))
            return _Fragment(frags[0].start, frags[-1].finals, nodes)
        if isinstance(node, Choice):
            frags = [self.build(c, known) for c in node.children]
            start = self.node()
            for f in frags:
                self.edge(start, None, f.start)
            finals = frozenset().union(*(f.finals for f in frags))
            nodes = frozenset({start}).union(*(f.nodes for f in frags))
            return _Fragment(start, finals, nodes)
        if isinstance(node, Par):
            frags = [self.build(c, known) for c in node.children]
            merged = frags[0]
            for other in frags[1:]:
                merged = self._shuffle(merged, other)
            return merged
        if isinstance(node, Repeat):
            inner = self.build(node.child, known)
            for f in inner.finals:
                self.edge(f, None, inner.start)
            if not node.possible:
                return inner
            start = self.node()
            self.edge(start, None, inner.start)
            return _Fragment(start, inner.finals | {start}, inner.nodes | {start})
        if isinstance(node, Interrupt):
            body = self.build(node.body, known)
            watcher = self.build(node.watcher, known)
            handler = self.build(node.handler, known)
            # Tag the watcher's own transitions so diagrams can dash them.
            self.edges = [
                (s, lbl, d, True if s in watcher.nodes and d in watcher.nodes and lbl is not None else w)
                for (s, lbl, d, w) in self.edges
            ]
            for f in watcher.finals:
                self.edge(f, None, handler.start)
            # The watcher is armed at every point during the body, not after
            # the body has completed.
            for s in body.nodes - body.finals:
                self.edge(s, None, watcher.start)
            nodes = body.nodes | watcher.nodes | handler.nodes
            return _Fragment(body.start, body.finals | handler.finals, nodes)
        raise BehaviorError("unresolved-ref", f"not a chronology node: {node!r}")

    def _shuffle(self, a: _Fragment, b: _Fragment) -> _Fragment:
        """Free interleaving of two fragments (both must complete)."""
        rows_a, finals_a = _determinize(self.edges, a.start, a.finals)
        rows_b, finals_b = _determinize(self.edges, b.start, b.finals)
        mapping: dict[tuple[int, int], int] = {}

        def get(pair: tuple[int, int]) -> int:
            if pair not in mapping:
                if len(mapping) == MAX_STATES:
                    raise _too_large()
                mapping[pair] = self.node()
            return mapping[pair]

        start = get((0, 0))
        pairs = [(0, 0)]
        seen = {pairs[0]}
        while pairs:
            pa, pb = pairs.pop()
            src = get((pa, pb))
            for label, dst, watcher in rows_a[pa]:
                nxt = (dst, pb)
                self.edge(src, label, get(nxt), watcher)
                if nxt not in seen:
                    seen.add(nxt)
                    pairs.append(nxt)
            for label, dst, watcher in rows_b[pb]:
                nxt = (pa, dst)
                self.edge(src, label, get(nxt), watcher)
                if nxt not in seen:
                    seen.add(nxt)
                    pairs.append(nxt)
        finals = frozenset(get((x, y)) for (x, y) in seen if x in finals_a and y in finals_b)
        nodes = frozenset(mapping.values())
        return _Fragment(start, finals, nodes)


def _determinize(
    edges: list, start: int, finals: frozenset[int]
) -> tuple[list[list[tuple[str, int, bool]]], set[int]]:
    """Subset construction (Rabin and Scott, 1959) of the NFA part reachable
    from ``start``.  States are numbered breadth-first from the start
    subset (state 0), a subset's successors in label order.  Returns, per state, its
    ``(label, target, watcher)`` rows in label order, and the accepting
    states.  A transition is a watcher one when any NFA edge behind it is.

    Labelled edges are indexed by source once, so a subset costs the edges
    out of its members, not every edge of the NFA.  A fragment being
    shuffled needs no restriction to its nodes: its nodes are fresh, and
    the edges that will join it to the rest are added after the shuffle.
    Raises BehaviorError past MAX_STATES states.
    """
    eps: dict[int, list[int]] = {}
    out: dict[int, list[tuple[str, int, bool]]] = {}
    for (s, label, d, w) in edges:
        if label is None:
            eps.setdefault(s, []).append(d)
        else:
            out.setdefault(s, []).append((label, d, w))
    closure: dict[int, frozenset[int]] = {}

    def close(node: int) -> frozenset[int]:
        found = closure.get(node)
        if found is None:
            seen = {node}
            stack = [node]
            while stack:
                for nxt in eps.get(stack.pop(), ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            found = closure[node] = frozenset(seen)
        return found

    # Per NFA node: its labelled edges with each target's closure.
    moves = {s: [(label, close(d), w) for (label, d, w) in row] for s, row in out.items()}
    start_set = close(start)
    states: dict[frozenset[int], int] = {start_set: 0}
    order = [start_set]
    rows: list[list[tuple[str, int, bool]]] = []
    for subset in order:  # grows while it is walked: breadth-first
        by_label: dict[str, list] = {}
        for s in subset:
            for label, targets, w in moves.get(s, ()):
                entry = by_label.get(label)
                if entry is None:
                    by_label[label] = [set(targets), w]
                else:
                    entry[0] |= targets
                    entry[1] = entry[1] or w
        row = []
        for label in sorted(by_label):
            targets, watcher = by_label[label]
            key = frozenset(targets)
            sid = states.get(key)
            if sid is None:
                if len(order) == MAX_STATES:
                    raise _too_large()
                sid = states[key] = len(order)
                order.append(key)
            row.append((label, sid, watcher))
        rows.append(row)
    accepting = {sid for sid, subset in enumerate(order) if not finals.isdisjoint(subset)}
    return rows, accepting


@dataclass(frozen=True)
class BehaviorAutomaton:
    """Deterministic automaton over event names; every live state accepts a
    valid prefix, `accepting` marks complete executions."""

    n_states: int
    start: int
    transitions: dict[tuple[int, str], int]
    accepting: frozenset[int]
    watcher_edges: frozenset[tuple[int, str]]

    @cached_property
    def labels_at(self) -> dict[int, frozenset[str]]:
        """The event labels each state allows; built on first use.  States
        with no way out are absent."""
        table: dict[int, list[str]] = {}
        for state, label in self.transitions:
            table.setdefault(state, []).append(label)
        return {state: frozenset(labels) for state, labels in table.items()}

    def allowed(self, state: int) -> list[str]:
        return sorted(self.labels_at.get(state, ()))

    def step(self, state: int, label: str) -> Optional[int]:
        return self.transitions.get((state, label))

    def accepts(self, labels: Sequence[str]) -> bool:
        """Language membership for a whole occurrence sequence."""
        state = self.start
        for label in labels:
            nxt = self.step(state, label)
            if nxt is None:
                return False
            state = nxt
        return state in self.accepting


def compile_program(program: Chrono, event_names: Optional[Iterable[str]] = None) -> BehaviorAutomaton:
    """Compile a chronology tree to its deterministic automaton."""
    known = set(event_names) if event_names is not None else None
    builder = _NfaBuilder()
    frag = builder.build(program, known)
    rows, accepting = _determinize(builder.edges, frag.start, frag.finals)
    transitions: dict[tuple[int, str], int] = {}
    watcher_edges: set[tuple[int, str]] = set()
    for sid, row in enumerate(rows):
        for label, dst, watcher in row:
            transitions[(sid, label)] = dst
            if watcher:
                watcher_edges.add((sid, label))
    return BehaviorAutomaton(len(rows), 0, transitions, frozenset(accepting), frozenset(watcher_edges))


# Conformance ----------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    tick: int
    expected: tuple[str, ...]
    observed: str

    def to_json(self) -> dict:
        return {"tick": self.tick, "expected": list(self.expected), "observed": self.observed}


@dataclass(frozen=True)
class Verdict:
    conforms: bool
    first_violation: Optional[Violation]
    occurrences: tuple[Occurrence, ...]
    completed: bool

    def to_json(self) -> dict:
        return {
            "conforms": self.conforms,
            "first_violation": self.first_violation.to_json() if self.first_violation else None,
            "occurrences": [o.to_json() for o in self.occurrences],
        }


class Run:
    """The automaton's run over occurrences, which `check` replays and the
    enforcement gate feeds live.  Past the first violation the state stays
    put, and occurrences are still recorded."""

    def __init__(self, program: Chrono | BehaviorAutomaton, events: Sequence[EventDef]) -> None:
        if not isinstance(program, BehaviorAutomaton):
            program = compile_program(program, {e.name for e in events})
        self.automaton = program
        self.state = program.start
        self.first_violation: Optional[Violation] = None
        self.occurrences: list[Occurrence] = []

    def step(self, occ: Occurrence) -> None:
        self.occurrences.append(occ)
        if self.first_violation is None:
            nxt = self.automaton.step(self.state, occ.event)
            if nxt is None:
                self.first_violation = Violation(occ.start, tuple(self.automaton.allowed(self.state)), occ.event)
            else:
                self.state = nxt

    def verdict(self) -> Verdict:
        ok = self.first_violation is None
        return Verdict(ok, self.first_violation, tuple(self.occurrences), ok and self.state in self.automaton.accepting)


def check(trace: Iterable[TraceEvent], events: Sequence[EventDef], program: Chrono | BehaviorAutomaton) -> Verdict:
    """Replay a trace's occurrences through the program's automaton."""
    run = Run(program, events)
    for occ in detect_occurrences(trace, events):
        run.step(occ)
    return run.verdict()


# Enforcement ----------------------------------------------------------------


class EnforcementGate(Run):
    """A run fed by its own scanner, and the move/firing filter the
    simulator consults: an arc outside every event region passes; a region
    arc passes while one of its events is allowed and no violation occurred."""

    def __init__(self, events: Sequence[EventDef], program: Chrono | BehaviorAutomaton) -> None:
        super().__init__(program, events)
        self.scanner = OccurrenceScanner(events)

    def permits(self, arc_label: str) -> bool:
        owners = self.scanner.by_arc.get(arc_label)
        if owners is None:
            return True
        if self.first_violation is not None:
            return False
        return not self.automaton.labels_at.get(self.state, frozenset()).isdisjoint(owners)

    def observe(self, event: TraceEvent) -> None:
        for occ in self.scanner.feed(event):
            self.step(occ)


def enforce(model: Model, program: Chrono | BehaviorAutomaton) -> EnforcementGate:
    """Build a fresh gate for one simulation run of this model."""
    return EnforcementGate(model.events, program)

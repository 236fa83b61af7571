"""Canonical in-memory representation of a flow-machine model.

A model is a tree of spheres holding machines; things move between the five
stages of a machine along flow arcs and jump between flows along trigger
arcs.  Values are treated as immutable once built, except that
canonicalization adds implicit stages to machines.  The parser builds the
kind, behavior, sphere, machine and endpoint records, with source spans that
equality and repr ignore; the canonicalizer builds the arcs and events.
"""
from __future__ import annotations

from collections import deque
from enum import Enum
from functools import cache
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .diagnostics import FrozenRecord, Record, SourceSpan, _set
from .exprs import Expr


class Stage(Enum):
    CREATE = "create"
    PROCESS = "process"
    RELEASE = "release"
    TRANSFER = "transfer"
    RECEIVE = "receive"
    __hash__ = object.__hash__  # members are singletons compared by identity; Enum's hash is a Python call

    def __str__(self) -> str:
        return self.value


STAGES_BY_NAME = {s.value: s for s in Stage}

# Legal single-step flows inside one machine.  Creation has no inbound flow:
# things only originate via triggers or scenario injection.
INTRA_EDGES = frozenset(
    {
        (Stage.CREATE, Stage.PROCESS),
        (Stage.CREATE, Stage.RELEASE),
        (Stage.RECEIVE, Stage.PROCESS),
        (Stage.RECEIVE, Stage.RELEASE),
        (Stage.PROCESS, Stage.RELEASE),
        (Stage.RELEASE, Stage.TRANSFER),
        (Stage.TRANSFER, Stage.RECEIVE),
    }
)

# The only legal flow between two machines.
INTER_EDGE = (Stage.TRANSFER, Stage.TRANSFER)


class ModelError(Exception):
    """Structural failure while building or querying a model."""


class ResolutionError(ModelError):
    """An endpoint path failed to resolve; carries the offending segment."""

    def __init__(self, code: str, segment: str, text: str) -> None:
        super().__init__(f"{code}: '{segment}' in '{text}'")
        self.code = code
        self.segment = segment
        self.text = text

    def __reduce__(self):
        return type(self), (self.code, self.segment, self.text)


class UnknownLabelError(ModelError):
    """A subdiagram request named labels absent from the model."""

    def __init__(self, missing: Sequence[str]) -> None:
        super().__init__("unknown labels: " + ", ".join(sorted(missing)))
        self.missing = tuple(sorted(missing))

    def __reduce__(self):
        return type(self), (self.missing,)


class AttrSpec(FrozenRecord):
    # type is one of exprs.SCALAR_TYPES, default a literal value (None when
    # the attribute has none), span the name's.
    __slots__ = ("name", "type", "default", "span")
    _fields = ("name", "type", "default")

    def __init__(self, name: str, type: str, default: object = None, span: Optional[SourceSpan] = None) -> None:
        _set(self, "name", name)
        _set(self, "type", type)
        _set(self, "default", default)
        _set(self, "span", span)


class ThingKind(FrozenRecord):
    __slots__ = ("name", "attrs", "span")
    _fields = ("name", "attrs")

    def __init__(self, name: str, attrs: tuple[AttrSpec, ...] = (), span: Optional[SourceSpan] = None) -> None:
        _set(self, "name", name)
        _set(self, "attrs", attrs)
        _set(self, "span", span)  # the name

    def attr_types(self) -> dict[str, str]:
        return {a.name: a.type for a in self.attrs}

    def attr(self, name: str) -> Optional[AttrSpec]:
        for a in self.attrs:
            if a.name == name:
                return a
        return None


class Endpoint(NamedTuple):
    """A (machine, stage) location addressed by its sphere path."""

    path: tuple[str, ...]  # sphere names followed by the machine name
    stage: Stage

    def __str__(self) -> str:
        return "/".join(self.path) + "." + self.stage.value


class Machine(Record):
    # The spans are those of the 'machine' token, the kind name and each
    # assign's attribute name; repeats are the stages written again after
    # their first mention (in source order), which the binder reports.
    __slots__ = ("name", "kind", "declared", "implicit", "assigns", "span", "kind_span", "assign_spans", "repeats")
    _fields = ("name", "kind", "declared", "implicit", "assigns")

    def __init__(
        self, name: str, kind: str, declared: tuple[Stage, ...], implicit: tuple[Stage, ...] = (),
        assigns: tuple[tuple[str, Expr], ...] = (), span: Optional[SourceSpan] = None,
        kind_span: Optional[SourceSpan] = None, assign_spans: tuple[SourceSpan, ...] = (),
        repeats: tuple[Stage, ...] = (),
    ) -> None:
        self.name, self.kind, self.declared, self.implicit, self.assigns = name, kind, declared, implicit, assigns
        self.span, self.kind_span, self.assign_spans, self.repeats = span, kind_span, assign_spans, repeats

    def stages(self) -> tuple[Stage, ...]:
        return tuple(self.declared) + tuple(s for s in self.implicit if s not in self.declared)

    def has_stage(self, stage: Stage) -> bool:
        return stage in self.declared or stage in self.implicit


class Sphere(Record):
    __slots__ = ("name", "children", "machines", "span")
    _fields = ("name", "children", "machines")

    def __init__(
        self, name: str, children: Optional[list[Sphere]] = None, machines: Optional[list[Machine]] = None,
        span: Optional[SourceSpan] = None,  # the 'sphere' token
    ) -> None:
        self.name, self.span = name, span
        self.children = [] if children is None else children
        self.machines = [] if machines is None else machines


class FlowArc(Record):
    # family, index, chain_len and authored_dst are expansion bookkeeping:
    # which authored arc this step belongs to.
    __slots__ = _fields = ("src", "dst", "label", "guard", "family", "index", "chain_len", "authored_dst")

    def __init__(
        self, src: Endpoint, dst: Endpoint, label: str, guard: Optional[Expr] = None, family: str = "",
        index: int = 0, chain_len: int = 1, authored_dst: Optional[Endpoint] = None,
    ) -> None:
        self.src, self.dst, self.label, self.guard = src, dst, label, guard
        self.family, self.index, self.chain_len, self.authored_dst = family, index, chain_len, authored_dst

    @property
    def is_implicit(self) -> bool:
        return self.index > 0

    @property
    def is_chain_head(self) -> bool:
        return self.index == 0


class TriggerArc(Record):
    __slots__ = _fields = ("src", "dst", "label", "guard", "spawn_attrs", "consuming")

    def __init__(
        self, src: Endpoint, dst: Endpoint, label: str, guard: Optional[Expr] = None,
        spawn_attrs: tuple[tuple[str, Expr], ...] = (), consuming: bool = False,
    ) -> None:
        self.src, self.dst, self.label, self.guard = src, dst, label, guard
        self.spawn_attrs, self.consuming = spawn_attrs, consuming


class Region(NamedTuple):
    """A subdiagram: a set of arcs (by label) plus their endpoint stages."""

    arc_labels: frozenset[str]
    stages: frozenset[Endpoint]
    flow_labels: frozenset[str]  # the subset of arc_labels that are flows

    @property
    def is_empty(self) -> bool:
        return not self.arc_labels


class EventDef(NamedTuple):
    name: str
    region: Region


# Chronology tree for behavior programs.


class Ref(FrozenRecord):
    __slots__ = _fields = ("event",)

    def __init__(self, event: str) -> None:
        _set(self, "event", event)


class _Group(FrozenRecord):
    __slots__ = ()

    def __init__(self, children: tuple[Chrono, ...]) -> None:
        _set(self, "children", children)


class Seq(_Group):
    __slots__ = _fields = ("children",)


class Choice(_Group):
    __slots__ = _fields = ("children",)


class Par(_Group):
    __slots__ = _fields = ("children",)


class Repeat(FrozenRecord):
    __slots__ = _fields = ("child", "possible")

    def __init__(self, child: Chrono, possible: bool = False) -> None:
        _set(self, "child", child)
        _set(self, "possible", possible)


class Interrupt(FrozenRecord):
    __slots__ = _fields = ("watcher", "handler", "body")

    def __init__(self, watcher: Chrono, handler: Chrono, body: Chrono) -> None:
        _set(self, "watcher", watcher)
        _set(self, "handler", handler)
        _set(self, "body", body)


Chrono = Union[Ref, Seq, Choice, Par, Repeat, Interrupt]


class BehaviorDecl(FrozenRecord):
    __slots__ = ("name", "program", "span")
    _fields = ("name", "program")

    def __init__(self, name: str, program: Chrono, span: Optional[SourceSpan] = None) -> None:
        _set(self, "name", name)
        _set(self, "program", program)
        _set(self, "span", span)  # the 'behavior' token


class Model(Record):
    # After the seven fields, the lookup maps built by reindex, through
    # which every name lookup goes; they stay out of equality and repr.
    __slots__ = (
        "kinds", "roots", "flows", "triggers", "events", "behaviors", "canonical",
        "_machines", "_flows_by_label", "_triggers_by_label", "_families",
    )
    _fields = __slots__[:7]

    def __init__(
        self, kinds: dict[str, ThingKind], roots: list[Sphere], flows: list[FlowArc], triggers: list[TriggerArc],
        events: list[EventDef], behaviors: list[BehaviorDecl], canonical: bool = False,
    ) -> None:
        self.kinds, self.roots, self.flows, self.triggers = kinds, roots, flows, triggers
        self.events, self.behaviors, self.canonical = events, behaviors, canonical
        self.reindex()

    def reindex(self) -> None:
        self._machines = {
            path + (m.name,): m for path, sphere in self.spheres() for m in sphere.machines
        }
        self._flows_by_label = {a.label: a for a in self.flows}
        # Chain families: each flow label's text before one of its '.'s,
        # mapped to the flow labels that extend it there, in flow order.
        self._families: dict[str, list[str]] = {}
        for label in self._flows_by_label:
            dot = label.find(".")
            while dot != -1:
                self._families.setdefault(label[:dot], []).append(label)
                dot = label.find(".", dot + 1)
        self._triggers_by_label = {t.label: t for t in self.triggers}

    def flow(self, label: str) -> Optional[FlowArc]:
        return self._flows_by_label.get(label)

    def trigger(self, label: str) -> Optional[TriggerArc]:
        return self._triggers_by_label.get(label)

    def event(self, name: str) -> Optional[EventDef]:
        for e in self.events:
            if e.name == name:
                return e
        return None

    def behavior(self, name: str) -> Optional[BehaviorDecl]:
        for b in self.behaviors:
            if b.name == name:
                return b
        return None

    def spheres(self) -> Iterator[tuple[tuple[str, ...], Sphere]]:
        """Depth-first walk yielding (path, sphere) pairs."""
        return walk_spheres(self.roots)

    def machines(self) -> Iterator[tuple[tuple[str, ...], Machine]]:
        """Yields (path-including-machine-name, machine) pairs, depth first."""
        return iter(self._machines.items())

    def find_machine(self, path: tuple[str, ...]) -> Optional[Machine]:
        return self._machines.get(path)


def walk_spheres(roots: Sequence[Sphere]) -> Iterator[tuple[tuple[str, ...], Sphere]]:
    """(path, sphere) for each sphere under ``roots``, depth first, children
    in source order."""
    stack = [((root.name,), root) for root in reversed(roots)]
    while stack:
        path, sphere = stack.pop()
        yield path, sphere
        stack.extend((path + (child.name,), child) for child in reversed(sphere.children))


def resolve_path(model: Model, path: tuple[str, ...], stage_text: str, text: str) -> Machine:
    """The machine at ``path`` if it has the stage ``stage_text``, from the
    path table; a miss walks the sphere tree to name the failing segment."""
    machine = model.find_machine(path)
    if machine is None:
        spheres = model.roots
        for seg in path[:-1]:
            sphere = next((s for s in spheres if s.name == seg), None)
            if sphere is None:
                raise ResolutionError("unknown-sphere", seg, text)
            spheres = sphere.children
        raise ResolutionError("unknown-machine", path[-1], text)
    stage = STAGES_BY_NAME.get(stage_text)
    if stage is None or not machine.has_stage(stage):
        raise ResolutionError("stage-not-declared", stage_text, text)
    return machine


def resolve_endpoint(model: Model, text: str) -> Endpoint:
    """Resolve ``sphere/.../machine.stage`` to the unique endpoint it names.

    Raises ResolutionError with code unknown-sphere, unknown-machine, or
    stage-not-declared, naming the first segment that failed.
    """
    head, dot, stage_text = text.rpartition(".")
    if not dot or not head:
        raise ResolutionError("stage-not-declared", text, text)
    path = tuple(head.split("/"))
    resolve_path(model, path, stage_text, text)
    return Endpoint(path, STAGES_BY_NAME[stage_text])


def expand_label(model: Model, label: str) -> list[str]:
    """A user label covers itself plus the derived labels of its chain: the
    flow labels that extend it past a '.', read from the family table."""
    out = [label] if label in model._flows_by_label or label in model._triggers_by_label else []
    out.extend(model._families.get(label, ()))
    return out


def subdiagram(model: Model, labels: Sequence[str]) -> Region:
    """Region with exactly the arcs named by ``labels`` (plus chain-derived
    labels) and those arcs' endpoint stages.  Raises UnknownLabelError listing
    every label that resolves to nothing.
    """
    if not model.canonical:
        raise ModelError("subdiagram requires a canonical model")
    missing = []
    arc_labels: set[str] = set()
    flow_labels: set[str] = set()
    stages: set[Endpoint] = set()
    for label in labels:
        found = expand_label(model, label)
        if not found:
            missing.append(label)
            continue
        for name in found:
            arc_labels.add(name)
            arc = model.flow(name)
            if arc is not None:
                flow_labels.add(name)
            else:
                arc = model.trigger(name)
            stages.update((arc.src, arc.dst))
    if missing:
        raise UnknownLabelError(missing)
    return Region(frozenset(arc_labels), frozenset(stages), frozenset(flow_labels))


@cache
def shortest_chain(src_stage: Stage, dst_stage: Stage, same_machine: bool) -> Optional[tuple[tuple[int, Stage], ...]]:
    """Unique shortest legal stage chain between two endpoints.

    Nodes are (machine-side, stage) with side 0 = source machine and side 1 =
    destination machine; for same-machine arcs only side 0 exists.  Returns
    the node tuple including both ends, or None when no legal chain exists.
    There are only 5 x 5 x 2 inputs, so each answer is computed once.  No two
    shortest chains tie, so the first one the search reaches is the answer:
    test_shortest_chain_unique_for_every_stage_pair (tests/test_model_core.py)
    lists every shortest chain of all 50 inputs to prove it.
    """
    start = (0, src_stage)
    goal = (0 if same_machine else 1, dst_stage)
    chains = {start: (start,)}  # node reached -> shortest chain from start to it
    queue = deque([start])
    while queue:
        node = queue.popleft()
        side, stage = node
        succs = [(side, b) for (a, b) in INTRA_EDGES if a is stage]
        if not same_machine and side == 0 and stage is Stage.TRANSFER:
            succs.append((1, Stage.TRANSFER))
        for nxt in succs:
            # The goal is tested before the visited set: a chain has at least
            # one arc, so it may end on the node where it starts.
            if nxt == goal:
                return chains[node] + (nxt,)
            if nxt not in chains:
                chains[nxt] = chains[node] + (nxt,)
                queue.append(nxt)
    return None

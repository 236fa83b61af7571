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
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from typing import Iterator, Optional, Sequence, Union

from .diagnostics import SourceSpan
from .exprs import Expr


class Stage(Enum):
    CREATE = "create"
    PROCESS = "process"
    RELEASE = "release"
    TRANSFER = "transfer"
    RECEIVE = "receive"

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


@dataclass(frozen=True)
class AttrSpec:
    name: str
    type: str  # one of exprs.SCALAR_TYPES
    default: object = None  # literal value, or None when the attr has no default
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)  # the name


@dataclass(frozen=True)
class ThingKind:
    name: str
    attrs: tuple[AttrSpec, ...] = ()
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)  # the name

    def attr_types(self) -> dict[str, str]:
        return {a.name: a.type for a in self.attrs}

    def attr(self, name: str) -> Optional[AttrSpec]:
        for a in self.attrs:
            if a.name == name:
                return a
        return None


@dataclass(frozen=True)
class Endpoint:
    """A (machine, stage) location addressed by its sphere path."""

    path: tuple[str, ...]  # sphere names followed by the machine name
    stage: Stage

    # Text and hash are built on first use and kept on the instance (they
    # are not fields, so equality and repr are unchanged).  Every trace
    # record at an endpoint then shares one string.
    _text = None
    _hash = None

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = "/".join(self.path) + "." + self.stage.value
            object.__setattr__(self, "_text", text)
        return text

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.path, self.stage))
            object.__setattr__(self, "_hash", value)
        return value

    def __getstate__(self) -> dict:
        # String hashes differ between processes: never pickle the cache.
        return {"path": self.path, "stage": self.stage}


@dataclass
class Machine:
    name: str
    kind: str
    declared: tuple[Stage, ...]
    implicit: tuple[Stage, ...] = ()
    assigns: tuple[tuple[str, Expr], ...] = ()
    # Source spans of the 'machine' token, the kind name and each assign's
    # attribute name, and the stages written again after their first
    # mention (in source order), which the binder reports.
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)
    kind_span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)
    assign_spans: tuple[SourceSpan, ...] = field(default=(), compare=False, repr=False)
    repeats: tuple[Stage, ...] = field(default=(), compare=False, repr=False)

    def stages(self) -> tuple[Stage, ...]:
        return tuple(self.declared) + tuple(s for s in self.implicit if s not in self.declared)

    def has_stage(self, stage: Stage) -> bool:
        return stage in self.declared or stage in self.implicit


@dataclass
class Sphere:
    name: str
    children: list["Sphere"] = field(default_factory=list)
    machines: list[Machine] = field(default_factory=list)
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)  # 'sphere'


@dataclass
class FlowArc:
    src: Endpoint
    dst: Endpoint
    label: str
    guard: Optional[Expr] = None
    # Expansion bookkeeping: which authored arc this step belongs to.
    family: str = ""
    index: int = 0
    chain_len: int = 1
    authored_src: Optional[Endpoint] = None
    authored_dst: Optional[Endpoint] = None

    @property
    def is_implicit(self) -> bool:
        return self.index > 0

    @property
    def is_chain_head(self) -> bool:
        return self.index == 0


@dataclass
class TriggerArc:
    src: Endpoint
    dst: Endpoint
    label: str
    guard: Optional[Expr] = None
    spawn_attrs: tuple[tuple[str, Expr], ...] = ()
    consuming: bool = False


@dataclass(frozen=True)
class Region:
    """A subdiagram: a set of arcs (by label) plus their endpoint stages."""

    arc_labels: frozenset[str]
    stages: frozenset[Endpoint]
    flow_labels: frozenset[str] = frozenset()  # the subset of arc_labels that are flows

    @property
    def is_empty(self) -> bool:
        return not self.arc_labels


@dataclass(frozen=True)
class EventDef:
    name: str
    region: Region
    qualities: tuple[tuple[str, object], ...] = ()


# Chronology tree for behavior programs.


@dataclass(frozen=True)
class Ref:
    event: str


@dataclass(frozen=True)
class Seq:
    children: tuple["Chrono", ...]


@dataclass(frozen=True)
class Choice:
    children: tuple["Chrono", ...]


@dataclass(frozen=True)
class Par:
    children: tuple["Chrono", ...]


@dataclass(frozen=True)
class Repeat:
    child: "Chrono"
    possible: bool = False


@dataclass(frozen=True)
class Interrupt:
    watcher: "Chrono"
    handler: "Chrono"
    body: "Chrono"


Chrono = Union[Ref, Seq, Choice, Par, Repeat, Interrupt]


@dataclass(frozen=True)
class BehaviorDecl:
    name: str
    program: Chrono
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)  # 'behavior'


@dataclass
class Model:
    kinds: dict[str, ThingKind]
    roots: list[Sphere]
    flows: list[FlowArc]
    triggers: list[TriggerArc]
    events: list[EventDef]
    behaviors: list[BehaviorDecl]
    canonical: bool = False

    # Lookup maps built by reindex; every name lookup reads one of them.
    _machines: dict[tuple[str, ...], Machine] = field(default_factory=dict, repr=False)
    _flows_by_label: dict[str, FlowArc] = field(default_factory=dict, repr=False)
    _triggers_by_label: dict[str, TriggerArc] = field(default_factory=dict, repr=False)
    # Chain families: each flow label's text before one of its '.'s, mapped
    # to the flow labels that extend it there, in flow order.
    _families: dict[str, list[str]] = field(default_factory=dict, repr=False)
    _index: Optional["ModelIndex"] = field(default=None, repr=False, compare=False)

    @property
    def index(self) -> "ModelIndex":
        """The simulator's site table: built on first use, dropped by reindex."""
        if self._index is None:
            self._index = ModelIndex(self)
        return self._index

    def reindex(self) -> None:
        self._index = None
        self._machines = {
            path + (m.name,): m for path, sphere in self.spheres() for m in sphere.machines
        }
        self._flows_by_label = {a.label: a for a in self.flows}
        self._families = {}
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

        def walk(sphere: Sphere, prefix: tuple[str, ...]) -> Iterator[tuple[tuple[str, ...], Sphere]]:
            path = prefix + (sphere.name,)
            yield path, sphere
            for child in sphere.children:
                yield from walk(child, path)

        for root in self.roots:
            yield from walk(root, ())

    def machines(self) -> Iterator[tuple[tuple[str, ...], Machine]]:
        """Yields (path-including-machine-name, machine) pairs, depth first."""
        return iter(self._machines.items())

    def find_machine(self, path: tuple[str, ...]) -> Optional[Machine]:
        return self._machines.get(path)


class Hop:
    """A flow arc with its destination site and its chain's next hop."""

    __slots__ = ("arc", "label", "guard", "dst", "next")

    def __init__(self, arc: FlowArc) -> None:
        self.arc, self.label, self.guard = arc, arc.label, arc.guard


class Site:
    """An endpoint as the simulator reads it (see ``ModelIndex.site``)."""

    __slots__ = ("ep", "text", "gated", "heads", "triggers", "assigns", "leaves")


class ModelIndex:
    """One ``Site`` per endpoint and one ``Hop`` per flow arc, plus each
    kind's ``dec`` attribute names: what a simulator step reads."""

    def __init__(self, model: Model) -> None:
        self.model = model
        self.dec = {k.name: frozenset(a.name for a in k.attrs if a.type == "dec") for k in model.kinds.values()}
        self._gated = {t.dst for t in model.triggers if t.dst.stage is not Stage.CREATE}
        self._hops = {a.label: Hop(a) for a in model.flows}
        # Hops and triggers by source endpoint, in label order.
        self._hops_from: dict[Endpoint, list[Hop]] = {}
        self._triggers_from: dict[Endpoint, list[TriggerArc]] = {}
        for hop in sorted(self._hops.values(), key=lambda h: h.label):
            self._hops_from.setdefault(hop.arc.src, []).append(hop)
        for trig in sorted(model.triggers, key=lambda t: t.label):
            self._triggers_from.setdefault(trig.src, []).append(trig)
        self.sites: dict[Endpoint, Site] = {}
        for hop in self._hops.values():
            arc = hop.arc
            hop.dst = self.site(arc.dst)
            hop.next = self._hops.get(f"{arc.family}.{arc.index + 1}") if arc.index + 1 < arc.chain_len else None

    def site(self, ep: Endpoint) -> Site:
        """The text of ``ep``, whether it waits on an enable (a trigger into a
        stage other than create targets it), its chain-head hops and triggers
        in label order, its machine's assigns (process only), any arc out."""
        site = self.sites.get(ep)
        if site is None:
            model = self.model
            site = self.sites[ep] = Site()
            hops = self._hops_from.get(ep, ())
            machine = model.find_machine(ep.path) if ep.stage is Stage.PROCESS else None
            site.ep, site.text, site.gated = ep, str(ep), ep in self._gated
            site.heads = tuple(hop for hop in hops if hop.arc.is_chain_head)
            site.triggers = tuple(self._triggers_from.get(ep, ()))
            site.assigns = machine.assigns if machine is not None else ()
            site.leaves = bool(hops or site.triggers)
        return site


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
                stages.add(arc.src)
                stages.add(arc.dst)
            else:
                trig = model.trigger(name)
                stages.add(trig.src)
                stages.add(trig.dst)
    if missing:
        raise UnknownLabelError(missing)
    return Region(frozenset(arc_labels), frozenset(stages), frozenset(flow_labels))


@cache
def shortest_chain(src_stage: Stage, dst_stage: Stage, same_machine: bool) -> Optional[tuple[tuple[int, Stage], ...]]:
    """Unique shortest legal stage chain between two endpoints.

    Nodes are (machine-side, stage) with side 0 = source machine and side 1 =
    destination machine; for same-machine arcs only side 0 exists.  Returns
    the node tuple including both ends, or None when no legal chain exists.
    There are only 5 x 5 x 2 inputs, so each answer is computed once.
    Raises ModelError if several shortest chains tie (the legality table is
    built so that this cannot happen; a meta-test asserts it).
    """
    start = (0, src_stage)
    goal = (0 if same_machine else 1, dst_stage)

    def successors(node: tuple[int, Stage]) -> list[tuple[int, Stage]]:
        side, stage = node
        out = [(side, b) for (a, b) in INTRA_EDGES if a is stage]
        if not same_machine and side == 0 and stage is Stage.TRANSFER:
            out.append((1, Stage.TRANSFER))
        return out

    # BFS collecting every shortest path; a chain must have at least one arc.
    best: Optional[int] = None
    paths: list[list[tuple[int, Stage]]] = []
    queue: deque[list[tuple[int, Stage]]] = deque([[start]])
    while queue:
        path = queue.popleft()
        if best is not None and len(path) > best + 1:
            break
        node = path[-1]
        if node == goal and len(path) > 1:
            if best is None:
                best = len(path) - 1
            if len(path) - 1 == best:
                paths.append(path)
            continue
        if best is not None and len(path) - 1 >= best:
            continue
        for nxt in successors(node):
            if nxt in path and nxt != goal:
                continue  # no revisits except to close a loop at the goal
            queue.append(path + [nxt])
    if not paths:
        return None
    if len(paths) > 1:
        raise ModelError(
            f"ambiguous expansion {src_stage}->{dst_stage} (same_machine={same_machine})"
        )
    return tuple(paths[0])

"""Syntax trees produced by the parser: the parts of a model that
canonicalization rewrites (authored arcs and events), and scenarios.
Spheres, machines, endpoints, thing kinds and behaviors need no rewriting,
so the parser builds their ``model`` records directly."""
from __future__ import annotations

from typing import NamedTuple, Optional

from .diagnostics import FrozenRecord, Record, SourceSpan, _set
from .exprs import Expr, Value
from .model import BehaviorDecl, Endpoint, Sphere, ThingKind


class ArcDecl(NamedTuple):
    is_flow: bool
    src: Endpoint
    dst: Endpoint
    guard: Optional[Expr]
    spawn_attrs: tuple[tuple[str, Expr, SourceSpan], ...]
    consuming: bool
    label: Optional[str]
    span: SourceSpan
    src_span: SourceSpan
    dst_span: SourceSpan


class EventDecl(NamedTuple):
    name: str
    labels: tuple[str, ...]
    span: SourceSpan


class ModelAst(Record):
    # arcs holds every sphere's arcs: a sphere's own in source order, then each child's.
    __slots__ = _fields = ("file", "kinds", "spheres", "arcs", "events", "behaviors")

    def __init__(
        self, file: str, kinds: Optional[list[ThingKind]] = None, spheres: Optional[list[Sphere]] = None,
        arcs: Optional[list[ArcDecl]] = None, events: Optional[list[EventDecl]] = None,
        behaviors: Optional[list[BehaviorDecl]] = None,
    ) -> None:
        self.file = file
        self.kinds = [] if kinds is None else kinds
        self.spheres = [] if spheres is None else spheres
        self.arcs = [] if arcs is None else arcs
        self.events = [] if events is None else events
        self.behaviors = [] if behaviors is None else behaviors


class Injection(FrozenRecord):
    __slots__ = ("tick", "kind", "target", "attrs", "span")
    _fields = ("tick", "kind", "target", "attrs")

    def __init__(
        self, tick: int, kind: str, target: Endpoint, attrs: tuple[tuple[str, Value], ...],
        span: Optional[SourceSpan] = None,  # the 'inject' token
    ) -> None:
        _set(self, "tick", tick)
        _set(self, "kind", kind)
        _set(self, "target", target)
        _set(self, "attrs", attrs)
        _set(self, "span", span)


class Scenario(NamedTuple):
    injections: tuple[Injection, ...] = ()

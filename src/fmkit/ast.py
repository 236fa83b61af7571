"""Syntax trees produced by the parser: the parts of a model that
canonicalization rewrites (authored arcs and events), and scenarios.
Spheres, machines, endpoints, thing kinds and behaviors need no rewriting,
so the parser builds their ``model`` records directly."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .diagnostics import SourceSpan
from .exprs import Expr, Value
from .model import BehaviorDecl, Endpoint, Sphere, ThingKind


@dataclass(frozen=True)
class ArcDecl:
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


@dataclass(frozen=True)
class EventDecl:
    name: str
    labels: tuple[str, ...]
    span: SourceSpan


@dataclass
class ModelAst:
    file: str
    kinds: list[ThingKind] = field(default_factory=list)
    spheres: list[Sphere] = field(default_factory=list)
    # Every sphere's arcs: a sphere's own in source order, then each child's.
    arcs: list[ArcDecl] = field(default_factory=list)
    events: list[EventDecl] = field(default_factory=list)
    behaviors: list[BehaviorDecl] = field(default_factory=list)


@dataclass(frozen=True)
class Injection:
    tick: int
    kind: str
    target: Endpoint
    attrs: tuple[tuple[str, Value], ...]
    span: Optional[SourceSpan] = field(default=None, compare=False)  # the 'inject' token


@dataclass(frozen=True)
class Scenario:
    injections: tuple[Injection, ...] = ()

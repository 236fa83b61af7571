"""Shorthand expansion: rewrite authored arcs into full legal stage chains.

Authored sources elide intermediate stages the way hand-drawn diagrams do; a
single arrow from one machine's process to another's becomes the five-step
release/transfer/transfer/receive/process chain.  Inserted stages are flagged
implicit on their machines, and inserted arcs take derived labels
``<label>.k`` so each chain remains addressable as one family.

Only arcs and events are built here.  Spheres, machines, thing kinds and
behaviors are the parser's own ``model`` records, taken over as they are;
the implicit stages a chain passes are added to its machines in place.
"""
from __future__ import annotations

from . import ast
from .diagnostics import Diagnostic, error
from .model import (
    Endpoint,
    EventDef,
    FlowArc,
    Model,
    Region,
    Stage,
    TriggerArc,
    shortest_chain,
    subdiagram,
)


class CanonError(Exception):
    """Canonicalization failed; carries a diagnostic for reporting."""

    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic

    def __reduce__(self):
        return type(self), (self.diagnostic,)


def canonicalize(tree: ast.ModelAst) -> Model:
    """Take over the parse tree's spheres, kinds and behaviors, and expand
    every shorthand arc into its unique minimal legal chain, adding the
    stages each chain passes to its machines as implicit stages, in place.
    Running it again on the same tree adds nothing and gives an equal model.

    Requires an AST that parsed with zero error diagnostics.  Raises
    CanonError with code no-legal-expansion when an arc cannot be completed
    into a legal chain (anything targeting a create stage, for instance).
    """
    model = Model(
        kinds={k.name: k for k in tree.kinds},
        roots=list(tree.spheres),
        flows=[],
        triggers=[],
        events=[],
        behaviors=list(tree.behaviors),
        canonical=True,
    )
    model.reindex()  # the path table, through which implicit stages are added
    auto_counter = 0

    for arc in tree.arcs:
        src, dst = arc.src, arc.dst
        label = arc.label
        if label is None:
            auto_counter += 1
            label = f"@{auto_counter:04d}"
        if not arc.is_flow:
            model.triggers.append(
                TriggerArc(src, dst, label, arc.guard,
                           tuple((n, e) for n, e, _ in arc.spawn_attrs), arc.consuming)
            )
            continue
        nodes = shortest_chain(src.stage, dst.stage, src.path == dst.path)
        if nodes is None:
            raise CanonError(
                error("no-legal-expansion", f"no legal chain from {src} to {dst}", arc.span)
            )
        chain_len = len(nodes) - 1
        # The chain's ends are the authored endpoints; each inner node is
        # one endpoint shared by the two steps that meet there.
        eps = [src, *(Endpoint(dst.path if side else src.path, stage) for side, stage in nodes[1:-1]), dst]
        for ep in eps:
            machine = model.find_machine(ep.path)
            if not machine.has_stage(ep.stage):
                machine.implicit += (ep.stage,)
        for i in range(chain_len):
            model.flows.append(
                FlowArc(
                    eps[i],
                    eps[i + 1],
                    label if i == 0 else f"{label}.{i}",
                    arc.guard if i == 0 else None,
                    family=label,
                    index=i,
                    chain_len=chain_len,
                    authored_src=src,
                    authored_dst=dst,
                )
            )

    # Keep implicit stages in Stage order, stable for printing and signatures.
    for _, machine in model.machines():
        machine.implicit = tuple(s for s in Stage if s in machine.implicit)
    model.reindex()

    for event in tree.events:
        region = _resolve_region(model, event)
        model.events.append(EventDef(event.name, region))

    return model


def _resolve_region(model: Model, event: ast.EventDecl) -> Region:
    try:
        region = subdiagram(model, event.labels)
    except Exception as exc:
        raise CanonError(
            error("unknown-label", f"event '{event.name}': {exc}", event.span)
        ) from exc
    if region.is_empty:
        raise CanonError(
            error("empty-region", f"event '{event.name}' has an empty region", event.span)
        )
    return region


def load_model(source: str, file: str = "<input>") -> tuple[Model | None, list[Diagnostic]]:
    """Parse + canonicalize in one step; returns (model, diagnostics)."""
    from .parser import parse

    tree, diags = parse(source, file)
    if any(d.is_error for d in diags):
        return None, diags
    try:
        return canonicalize(tree), diags
    except CanonError as exc:
        return None, diags + [exc.diagnostic]

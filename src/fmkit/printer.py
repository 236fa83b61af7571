"""Render a canonical model back to .fm source.

Chains print as their authored shorthand arc, so reparsing and
canonicalizing reproduces an isomorphic model; stages inserted by
canonicalization print with the ``implicit`` marker.
"""
from __future__ import annotations

from .exprs import Lit, render as render_expr
from .model import (
    Choice,
    Chrono,
    FlowArc,
    Interrupt,
    Model,
    Par,
    Ref,
    Repeat,
    Seq,
    Sphere,
    TriggerArc,
)


def render_chrono(node: Chrono) -> str:
    if isinstance(node, Ref):
        return node.event
    if isinstance(node, Repeat):
        text = f"repeat({render_chrono(node.child)})"
        return text + " possible" if node.possible else text
    if isinstance(node, (Seq, Choice, Par, Interrupt)):
        parts = (node.watcher, node.handler, node.body) if isinstance(node, Interrupt) else node.children
        return type(node).__name__.lower() + "(" + ", ".join(render_chrono(c) for c in parts) + ")"
    raise TypeError(f"not a chronology node: {node!r}")


def _arc_line(arc: FlowArc | TriggerArc) -> str:
    """An arc as authored; a flow prints as its chain's shorthand arc."""
    if isinstance(arc, FlowArc):
        parts = [f"flow {arc.src} -> {arc.authored_dst or arc.dst}"]
    else:
        parts = [f"trigger {arc.src} => {arc.dst}"]
        if arc.consuming:
            parts.append("consuming")
        if arc.spawn_attrs:
            inner = ", ".join(f"{name} = {render_expr(expr)}" for name, expr in arc.spawn_attrs)
            parts.append("spawn { " + inner + " }")
    if arc.guard is not None:
        parts.append(f"when {render_expr(arc.guard)}")
    if not arc.label.startswith("@"):
        parts.append(f"#{arc.label}")
    return " ".join(parts)


def print_model(model: Model) -> str:
    """Deterministic source form of a canonical model."""
    lines: list[str] = []
    for kind in model.kinds.values():
        if kind.attrs:
            inner = ", ".join(
                f"{a.name}: {a.type}" + (f" = {render_expr(Lit(a.default))}" if a.default is not None else "")
                for a in kind.attrs
            )
            lines.append(f"thing {kind.name} {{ {inner} }}")
        else:
            lines.append(f"thing {kind.name}")
    if model.kinds:
        lines.append("")

    # Home every arc in its source machine's sphere; only chain heads print.
    arcs_by_sphere: dict[tuple[str, ...], list[str]] = {}
    for arc in model.flows:
        if arc.is_chain_head:
            arcs_by_sphere.setdefault(arc.src.path[:-1], []).append(_arc_line(arc))
    for trig in model.triggers:
        arcs_by_sphere.setdefault(trig.src.path[:-1], []).append(_arc_line(trig))

    for root in model.roots:
        _emit_sphere(lines, arcs_by_sphere, root, (root.name,), 0)
        lines.append("")

    for event in model.events:
        flows = event.region.flow_labels
        families = sorted({model.flow(label).family for label in flows} | (event.region.arc_labels - flows))
        labels = " ".join(f"#{f}" for f in families)
        lines.append(f"event {event.name} {{ region {{ {labels} }} }}")
    if model.events:
        lines.append("")

    for behavior in model.behaviors:
        lines.append(f"behavior {behavior.name} {{ {render_chrono(behavior.program)} }}")

    return "\n".join(lines).rstrip() + "\n"


def _emit_sphere(lines: list[str], arcs_by_sphere: dict, sphere: Sphere, path: tuple[str, ...], depth: int) -> None:
    pad = "  " * depth
    lines.append(f"{pad}sphere {sphere.name} {{")
    inner_pad = "  " * (depth + 1)
    for m in sphere.machines:
        stage_words = [s.value for s in m.declared] + [f"implicit {s.value}" for s in m.implicit]
        body = " ".join(stage_words)
        if m.assigns:
            inner = ", ".join(f"{name} = {render_expr(expr)}" for name, expr in m.assigns)
            body = (body + " " if body else "") + "assign { " + inner + " }"
        lines.append(f"{inner_pad}machine {m.name}: {m.kind} {{ {body} }}")
    for arc_line in arcs_by_sphere.get(path, []):
        lines.append(f"{inner_pad}{arc_line}")
    for child in sphere.children:
        _emit_sphere(lines, arcs_by_sphere, child, path + (child.name,), depth + 1)
    lines.append(f"{pad}}}")


def _norm_label(label: str) -> str:
    # Auto-assigned labels depend on declaration order, which printing may
    # reshuffle; identify such arcs structurally instead.
    if label.startswith("@"):
        _, dot, suffix = label.partition(".")
        return "@" + dot + suffix
    return label


def model_signature(model: Model) -> tuple:
    """Order-insensitive structural fingerprint, for isomorphism checks."""
    kinds = tuple(
        sorted(
            (k.name, tuple((a.name, a.type, a.default) for a in k.attrs))
            for k in model.kinds.values()
        )
    )
    machines = tuple(
        sorted(
            (
                "/".join(path),
                m.kind,
                tuple(sorted(s.value for s in m.declared)),
                tuple(sorted(s.value for s in m.implicit)),
                tuple(sorted((n, render_expr(e)) for n, e in m.assigns)),
            )
            for path, m in model.machines()
        )
    )
    spheres = tuple(sorted("/".join(path) for path, _ in model.spheres()))
    flows = tuple(
        sorted(
            (
                _norm_label(a.label),
                str(a.src),
                str(a.dst),
                render_expr(a.guard) if a.guard is not None else "",
                _norm_label(a.family),
                a.index,
                a.chain_len,
            )
            for a in model.flows
        )
    )
    triggers = tuple(
        sorted(
            (
                _norm_label(t.label),
                str(t.src),
                str(t.dst),
                render_expr(t.guard) if t.guard is not None else "",
                tuple((n, render_expr(e)) for n, e in t.spawn_attrs),
                t.consuming,
            )
            for t in model.triggers
        )
    )
    events = tuple(sorted((e.name, tuple(sorted(e.region.arc_labels))) for e in model.events))
    behaviors = tuple(sorted((b.name, render_chrono(b.program)) for b in model.behaviors))
    return (kinds, spheres, machines, flows, triggers, events, behaviors)

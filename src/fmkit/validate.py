"""Static semantic checks over a model built by ``canonicalize``.

Names are bound once, by the parser: a model that ``load_model`` returns
has unique names and labels, and every kind, machine, stage and attribute
it names resolves, so each arc's endpoints are looked up with
``find_machine`` and no miss is handled.  Validation checks only what
binding cannot know: the stage-transition table, expression types, spawn
coverage, reachability and isolated machines.  The report and its
``stats`` are named tuples; the field names of ``stats`` are its JSON keys.
"""
from __future__ import annotations

from typing import NamedTuple

from . import exprs
from .diagnostics import Diagnostic, SourceSpan, error, warning
from .model import Endpoint, INTER_EDGE, INTRA_EDGES, Model, Stage

_SPAN = SourceSpan("<model>", 1, 1, 1, 1)


class ModelStats(NamedTuple):
    n_spheres: int
    n_machines: int
    n_flows: int
    n_triggers: int


class ValidationReport(NamedTuple):
    diagnostics: tuple[Diagnostic, ...]
    stats: ModelStats
    ok: bool

    def to_json(self) -> dict:
        return {
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "stats": self.stats._asdict(),
            "ok": self.ok,
        }


def check_legality(model: Model) -> list[Diagnostic]:
    """One error per arc that breaks the stage-transition table, crosses
    kinds on a flow, or carries a guard somewhere guards cannot live."""
    diags: list[Diagnostic] = []
    for arc in model.flows:
        same = arc.src.path == arc.dst.path
        pair = (arc.src.stage, arc.dst.stage)
        legal = pair in INTRA_EDGES if same else pair == INTER_EDGE
        if not legal:
            kind_of = "intra-machine" if same else "inter-machine"
            diags.append(error("E_LEGAL", f"arc '{arc.label}': illegal {kind_of} flow {arc.src} -> {arc.dst}", _SPAN))
        src_kind = model.find_machine(arc.src.path).kind
        dst_kind = model.find_machine(arc.dst.path).kind
        if src_kind != dst_kind:
            diags.append(
                error("E_KIND", f"arc '{arc.label}': flow changes kind {src_kind} -> {dst_kind}", _SPAN)
            )
        if arc.guard is not None and arc.src.stage is not Stage.PROCESS:
            diags.append(
                error("E_GUARD_PLACEMENT", f"arc '{arc.label}': guards may only leave a process stage", _SPAN)
            )
    for trig in model.triggers:
        if trig.dst.stage in (Stage.RELEASE, Stage.TRANSFER):
            diags.append(
                warning("W_UNUSUAL_TRIGGER", f"trigger '{trig.label}' targets {trig.dst.stage}; expected create or process", _SPAN)
            )
    return diags


def check_structure(model: Model) -> list[Diagnostic]:
    """What name binding cannot know: expression typing, assignability of
    defaults, assigns and spawn attributes, spawn coverage, and isolation
    warnings.  Every name in a model that ``canonicalize`` built already
    resolves, so there is nothing left to look up and fail."""
    diags: list[Diagnostic] = []

    def typecheck(expr: exprs.Expr, kind_name: str, what: str, want: str | None) -> None:
        """Type expr over kind_name's attributes; a value of it must be
        assignable to want, if given."""
        try:
            t = exprs.typecheck(expr, model.kinds[kind_name].attr_types())
        except exprs.TypeError_ as exc:
            diags.append(error("E_GUARD", f"{what}: {exc}", _SPAN))
            return
        if want is not None and not exprs.assignable(t, want):
            diags.append(error("E_GUARD", f"{what}: expected {want}, got {t}", _SPAN))

    for kind in model.kinds.values():
        for attr in kind.attrs:
            if attr.default is not None:
                what = f"default of '{kind.name}.{attr.name}'"
                typecheck(exprs.Lit(attr.default), kind.name, what, attr.type)
                if not exprs.fits(attr.default, attr.type):
                    diags.append(error("E_GUARD", f"{what}: int too large for a dec", _SPAN))

    touched: set[tuple[str, ...]] = set()
    for arc in model.flows:
        touched.update((arc.src.path, arc.dst.path))
        if arc.guard is not None:
            typecheck(arc.guard, model.find_machine(arc.src.path).kind, f"guard on arc '{arc.label}'", "bool")

    for trig in model.triggers:
        touched.update((trig.src.path, trig.dst.path))
        src_kind = model.find_machine(trig.src.path).kind
        if trig.guard is not None:
            typecheck(trig.guard, src_kind, f"guard on trigger '{trig.label}'", "bool")
        target_kind = model.kinds[model.find_machine(trig.dst.path).kind] if trig.dst.stage is Stage.CREATE else None
        target_types = target_kind.attr_types() if target_kind is not None else {}
        for name, expr in trig.spawn_attrs:
            typecheck(expr, src_kind, f"spawn attribute '{name}' on trigger '{trig.label}'", target_types.get(name))
        if target_kind is not None:
            spawned = {name for name, _ in trig.spawn_attrs}
            for attr in target_kind.attrs:
                if attr.name not in spawned and attr.default is None:
                    diags.append(
                        error(
                            "E_SPAWN",
                            f"trigger '{trig.label}' spawns {target_kind.name} without required attribute '{attr.name}'",
                            _SPAN,
                        )
                    )

    for path, machine in model.machines():
        names = model.kinds[machine.kind].attr_types()
        for name, expr in machine.assigns:
            typecheck(expr, machine.kind, f"assign '{name}' on {'/'.join(path)}", names[name])
        if path not in touched:
            diags.append(warning("W_ISOLATED", f"machine {'/'.join(path)} has no arcs", _SPAN))

    return diags


def check_reachability(model: Model) -> list[Diagnostic]:
    """Warn for stages no flow can ever reach: neither downstream of a create
    stage nor of an inbound transfer nor of a trigger target."""
    if not model.canonical:
        raise ValueError("check_reachability requires a canonical model")
    seeds: set[Endpoint] = set()
    all_eps: list[Endpoint] = []
    for path, machine in model.machines():
        for stage in machine.stages():
            ep = Endpoint(path, stage)
            all_eps.append(ep)
            if stage is Stage.CREATE:
                seeds.add(ep)
    for arc in model.flows:
        if arc.src.path != arc.dst.path:
            seeds.add(arc.dst)
    for trig in model.triggers:
        seeds.add(trig.dst)

    successors: dict[Endpoint, list[Endpoint]] = {}
    for arc in model.flows:
        successors.setdefault(arc.src, []).append(arc.dst)
    reached = set(seeds)
    frontier = list(seeds)
    while frontier:
        for dst in successors.get(frontier.pop(), ()):
            if dst not in reached:
                reached.add(dst)
                frontier.append(dst)

    return [
        warning("W_UNREACHABLE", f"{ep} is unreachable from any create, inbound transfer, or trigger target", _SPAN)
        for ep in all_eps
        if ep not in reached
    ]


def validate(model: Model) -> ValidationReport:
    """All checks, plus model statistics and the overall ok flag."""
    diags = check_legality(model) + check_structure(model) + check_reachability(model)
    n_spheres = sum(1 for _ in model.spheres())
    n_machines = sum(1 for _ in model.machines())
    stats = ModelStats(n_spheres, n_machines, len(model.flows), len(model.triggers))
    ok = not any(d.is_error for d in diags)
    return ValidationReport(tuple(diags), stats, ok)

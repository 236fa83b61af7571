"""Reference for the simulator's site table.

This is the table as it was when the model cached it: a lazy index that
keeps the model and builds a ``Site`` on first use of an endpoint, looking
its machine up through the model (a site in no machine has kind ``None``).
``fmkit.simulate.ModelIndex`` builds one site per stage of every machine up
front and keeps no model; for every endpoint this one builds, the two must
agree field by field.
"""
from __future__ import annotations

from fmkit.model import Endpoint, FlowArc, Model, Stage, TriggerArc


class Hop:
    """A flow arc with its destination site and its chain's next hop."""

    __slots__ = ("arc", "label", "guard", "dst", "next")

    def __init__(self, arc: FlowArc) -> None:
        self.arc, self.label, self.guard = arc, arc.label, arc.guard


class Site:
    """An endpoint as the simulator reads it (see ``ModelIndex.site``)."""

    __slots__ = ("ep", "text", "kind", "gated", "heads", "triggers", "assigns", "leaves")


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
        """The text of ``ep``, its machine's kind, whether it waits on an enable (a trigger
        into a stage other than create targets it), its chain-head hops and triggers in
        label order, its machine's assigns (process only), any arc out."""
        site = self.sites.get(ep)
        if site is None:
            site = self.sites[ep] = Site()
            hops = self._hops_from.get(ep, ())
            machine = self.model.find_machine(ep.path)
            site.ep, site.text, site.gated = ep, str(ep), ep in self._gated
            site.kind = machine.kind if machine is not None else None
            site.heads = tuple(hop for hop in hops if hop.arc.is_chain_head)
            site.triggers = tuple(self._triggers_from.get(ep, ()))
            site.assigns = machine.assigns if machine is not None and ep.stage is Stage.PROCESS else ()
            site.leaves = bool(hops or site.triggers)
        return site


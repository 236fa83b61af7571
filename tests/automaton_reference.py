"""The scan-all-edges automaton compiler fmkit used before its edge-indexed
subset construction.

Kept only as the reference for the differential test in test_behavior.py:
for every subset it rescans every NFA edge, in ``compile_program`` and in
the per-fragment determinization behind shuffle products.
"""
from __future__ import annotations

from typing import Iterable, Optional

from fmkit.behavior import BehaviorAutomaton, _Fragment, _NfaBuilder
from fmkit.model import Chrono


class ReferenceBuilder(_NfaBuilder):
    def _shuffle(self, a: _Fragment, b: _Fragment) -> _Fragment:
        """Free interleaving of two fragments (both must complete)."""
        da = self._determinize_fragment(a)
        db = self._determinize_fragment(b)
        mapping: dict[tuple[int, int], int] = {}

        def get(pair: tuple[int, int]) -> int:
            if pair not in mapping:
                mapping[pair] = self.node()
            return mapping[pair]

        start = get((da["start"], db["start"]))
        pairs = [(da["start"], db["start"])]
        seen = {pairs[0]}
        while pairs:
            pa, pb = pairs.pop()
            src = get((pa, pb))
            for (label, watcher), dst in sorted(da["trans"].get(pa, {}).items()):
                nxt = (dst, pb)
                self.edge(src, label, get(nxt), watcher)
                if nxt not in seen:
                    seen.add(nxt)
                    pairs.append(nxt)
            for (label, watcher), dst in sorted(db["trans"].get(pb, {}).items()):
                nxt = (pa, dst)
                self.edge(src, label, get(nxt), watcher)
                if nxt not in seen:
                    seen.add(nxt)
                    pairs.append(nxt)
        finals = frozenset(
            get((x, y)) for (x, y) in seen if x in da["finals"] and y in db["finals"]
        )
        nodes = frozenset(mapping.values())
        return _Fragment(start, finals, nodes)

    def _determinize_fragment(self, frag: _Fragment) -> dict:
        """Subset-construct one fragment in isolation (for shuffle products)."""
        closure = _closures(self.edges, frag.nodes)
        start_set = closure[frag.start]
        states: dict[frozenset[int], int] = {start_set: 0}
        trans: dict[int, dict[tuple[str, bool], int]] = {}
        queue = [start_set]
        counter = 1
        while queue:
            current = queue.pop(0)
            sid = states[current]
            by_label: dict[str, tuple[set[int], bool]] = {}
            for (s, label, d, w) in self.edges:
                if label is None or s not in current or s not in frag.nodes:
                    continue
                targets, watcher = by_label.get(label, (set(), False))
                targets |= closure[d]
                by_label[label] = (targets, watcher or w)
            for label in sorted(by_label):
                targets, watcher = by_label[label]
                key = frozenset(targets)
                if key not in states:
                    states[key] = counter
                    counter += 1
                    queue.append(key)
                trans.setdefault(sid, {})[(label, watcher)] = states[key]
        finals = {sid for subset, sid in states.items() if subset & frag.finals}
        return {"start": states[start_set], "trans": trans, "finals": finals}


def _closures(edges: list, restrict: frozenset[int]) -> dict[int, frozenset[int]]:
    eps: dict[int, set[int]] = {}
    for (s, label, d, _) in edges:
        if label is None and s in restrict and d in restrict:
            eps.setdefault(s, set()).add(d)
    out: dict[int, frozenset[int]] = {}
    for node in restrict:
        seen = {node}
        stack = [node]
        while stack:
            cur = stack.pop()
            for nxt in eps.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        out[node] = frozenset(seen)
    return out


def compile_program(program: Chrono, event_names: Optional[Iterable[str]] = None) -> BehaviorAutomaton:
    """Compile a chronology tree to its deterministic automaton."""
    known = set(event_names) if event_names is not None else None
    builder = ReferenceBuilder()
    frag = builder.build(program, known)
    closure = _closures(builder.edges, frozenset(range(builder.next_node)))

    start_set = closure[frag.start]
    states: dict[frozenset[int], int] = {start_set: 0}
    order: list[frozenset[int]] = [start_set]
    transitions: dict[tuple[int, str], int] = {}
    watcher_edges: set[tuple[int, str]] = set()
    index = 0
    while index < len(order):
        subset = order[index]
        sid = states[subset]
        index += 1
        by_label: dict[str, tuple[set[int], bool]] = {}
        for (s, label, d, w) in builder.edges:
            if label is None or s not in subset:
                continue
            targets, watcher = by_label.get(label, (set(), False))
            targets |= closure[d]
            by_label[label] = (targets, watcher or w)
        for label in sorted(by_label):
            targets, watcher = by_label[label]
            key = frozenset(targets)
            if key not in states:
                states[key] = len(order)
                order.append(key)
            transitions[(sid, label)] = states[key]
            if watcher:
                watcher_edges.add((sid, label))
    accepting = frozenset(states[subset] for subset in order if subset & frag.finals)
    return BehaviorAutomaton(len(order), states[start_set], transitions, accepting, frozenset(watcher_edges))

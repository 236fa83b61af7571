"""Reference occurrence detector, written from the definition of an event
occurrence and sharing nothing with ``fmkit.behavior.OccurrenceScanner``.

A record belongs to the thing it names; a record naming no thing belongs
to none.  A thing's record touches an event when it is a ``move`` along
one of the event's flow arcs, a ``trigger-fired`` along any of its arcs,
or a ``spawn`` or ``consume`` at one of its stages.  For each event and
each thing, walk that thing's records in trace order: the first touching
record opens an episode and gives its start tick; the moves along the
event's flow arcs are collected, and the move after which every flow arc
of the event has been traversed closes the episode as an occurrence
ending at that move's tick.  The next touching record opens the next
episode.  Nothing else ends an episode: a ``consume`` does not, so a thing
id used again after its ``consume`` carries its episode on.

The occurrences come in the order of the records that close them, and the
occurrences one record closes in event declaration order.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from fmkit.behavior import Occurrence
from fmkit.model import EventDef
from fmkit.simulate import TraceEvent


def touches(record: TraceEvent, event: EventDef) -> bool:
    region = event.region
    if record.action == "move":
        return record.arc in region.flow_labels
    if record.action == "trigger-fired":
        return record.arc in region.arc_labels
    if record.action in ("spawn", "consume"):
        return record.at in {str(stage) for stage in region.stages}
    return False


def detect_occurrences(trace: Iterable[TraceEvent], events: Sequence[EventDef]) -> list[Occurrence]:
    records = list(trace)
    things = sorted({r.thing for r in records if r.thing is not None})
    found: list[tuple[int, int, Occurrence]] = []  # (closing record's position, event's position, occurrence)
    for e_pos, event in enumerate(events):
        for thing in things:
            start = None
            traversed: set[str] = set()
            for pos, record in enumerate(records):
                if record.thing != thing or not touches(record, event):
                    continue
                if start is None:
                    start = record.tick
                if record.action == "move":
                    traversed.add(record.arc)
                    if traversed == set(event.region.flow_labels):
                        found.append((pos, e_pos, Occurrence(event.name, start, record.tick, thing)))
                        start, traversed = None, set()
    found.sort(key=lambda item: item[:2])
    return [occ for _, _, occ in found]

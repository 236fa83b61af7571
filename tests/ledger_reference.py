"""Brute-force reference for the replacement ledger.

This is the ledger's original algorithm, kept as the reference that the
indexed ``fmkit.history.ReplacementLog`` must match: every append scans the
whole log for an equal record, filters the log for the record's slot,
re-parses and sorts that slot by (timestamp, append index) with the new
record last among equal stamps, and replays it from the start.  Queries
rebuild the slot's timeline the same way and walk it linearly.  Nothing
here is indexed or cached, so a stale index in the real ledger shows up as
a difference.
"""
from __future__ import annotations

from datetime import datetime
from typing import Optional

from fmkit import jsonl
from fmkit.history import AppendError, ReplacementRecord, UnknownSlotError, parse_timestamp


def _replay(records: list[ReplacementRecord]) -> None:
    state: dict[str, str] = {}  # unit -> received | installed | removed
    occupant: Optional[str] = None
    for rec in records:
        st = state.get(rec.unit)
        if rec.action == "receive":
            if st in ("received", "installed"):
                raise AppendError("E_ORDER", f"unit '{rec.unit}' received twice")
            state[rec.unit] = "received"
        elif rec.action == "install":
            if st != "received":
                raise AppendError("E_ORDER", f"unit '{rec.unit}' installed before being received")
            if occupant is not None:
                raise AppendError("E_OCCUPIED", f"slot '{rec.slot}' already holds '{occupant}'")
            state[rec.unit] = "installed"
            occupant = rec.unit
        else:  # remove
            if st != "installed":
                raise AppendError("E_ORDER", f"unit '{rec.unit}' removed before being installed")
            state[rec.unit] = "removed"
            occupant = None


class ReferenceLog:
    def __init__(self) -> None:
        self.records: list[ReplacementRecord] = []

    def _slot_records(self, slot: str, extra: Optional[ReplacementRecord] = None) -> list[ReplacementRecord]:
        indexed = [(r.timestamp, i, r) for i, r in enumerate(self.records) if r.slot == slot]
        if extra is not None:
            indexed.append((extra.timestamp, len(self.records), extra))
        indexed.sort(key=lambda t: (t[0], t[1]))
        return [r for _, _, r in indexed]

    def append(self, record: ReplacementRecord) -> None:
        if record in self.records:
            raise AppendError("E_DUP", "identical record already present")
        _replay(self._slot_records(record.slot, extra=record))
        self.records.append(record)

    def slots(self) -> list[str]:
        return sorted({r.slot for r in self.records})

    def timeline(self, slot: str) -> list[ReplacementRecord]:
        records = self._slot_records(slot)
        if not records:
            raise UnknownSlotError(slot)
        return records

    def installed_at(self, slot: str, at: str | datetime) -> Optional[str]:
        when = parse_timestamp(at) if isinstance(at, str) else at
        occupant: Optional[str] = None
        for rec in self.timeline(slot):
            if rec.timestamp > when:
                break
            if rec.action == "install":
                occupant = rec.unit
            elif rec.action == "remove":
                occupant = None
        return occupant

    def to_lines(self) -> str:
        return jsonl.lines(r.to_json() for r in self.records)

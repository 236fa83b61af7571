"""Slot/unit replacement ledger: an append-only log of receive, install,
and remove events over functional slots, with point-in-time queries.

Slots are functional positions (say, pump position P101); units are the
serial-numbered physical parts occupying them.  Real timestamps (ISO 8601,
UTC) rather than simulation ticks: replacement history spans calendar time.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Optional

from . import jsonl

ACTIONS = ("receive", "install", "remove")


class HistoryError(Exception):
    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


class AppendError(HistoryError):
    """The record would break the slot's lifecycle; the log is unchanged."""


class UnknownSlotError(HistoryError):
    def __init__(self, slot: str) -> None:
        super().__init__("unknown-slot", f"no records for slot '{slot}'")


def parse_timestamp(text: str) -> datetime:
    """ISO 8601; a trailing Z means UTC.  Naive stamps are taken as UTC."""
    try:
        stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise HistoryError("bad-timestamp", f"unparseable timestamp '{text}'") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.astimezone(timezone.utc)


@dataclass(frozen=True)
class ReplacementRecord:
    slot: str
    unit: str
    action: str
    at: str
    performer: str
    contractor: str
    note: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.slot:
            raise HistoryError("bad-record", "slot must be non-empty")
        if not self.unit:
            raise HistoryError("bad-record", "unit serial must be non-empty")
        if self.action not in ACTIONS:
            raise HistoryError("bad-record", f"unknown action '{self.action}'")
        parse_timestamp(self.at)

    @property
    def timestamp(self) -> datetime:
        return parse_timestamp(self.at)

    def to_json(self) -> dict:
        obj = {
            "slot": self.slot,
            "unit": self.unit,
            "action": self.action,
            "at": self.at,
            "performer": self.performer,
            "contractor": self.contractor,
        }
        if self.note is not None:
            obj["note"] = self.note
        return obj

    @classmethod
    def from_json(cls, obj: object) -> "ReplacementRecord":
        """Build a record from a decoded JSON value, checking field types
        exactly: the six required fields are strings, ``note`` a string or
        null."""
        if type(obj) is not dict:
            raise HistoryError("bad-record", "expected a JSON object")
        for field in ("slot", "unit", "action", "at", "performer", "contractor"):
            if field not in obj:
                raise HistoryError("bad-record", f"missing '{field}' field")
            if type(obj[field]) is not str:
                raise HistoryError("bad-record", f"'{field}' must be a string")
        note = obj.get("note")
        if note is not None and type(note) is not str:
            raise HistoryError("bad-record", "'note' must be a string or null")
        return cls(
            obj["slot"], obj["unit"], obj["action"], obj["at"],
            obj["performer"], obj["contractor"], note,
        )


def _replay(records: list[ReplacementRecord]) -> None:
    """Validate one slot's time-ordered record sequence.

    Lifecycle per unit: receive -> install -> remove, with re-receive
    allowed after removal; at most one unit installed at any instant.
    """
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
                raise AppendError(
                    "E_OCCUPIED", f"slot '{rec.slot}' already holds '{occupant}'"
                )
            state[rec.unit] = "installed"
            occupant = rec.unit
        else:  # remove
            if st != "installed":
                raise AppendError("E_ORDER", f"unit '{rec.unit}' removed before being installed")
            state[rec.unit] = "removed"
            occupant = None


class ReplacementLog:
    """Append-only event log across all slots."""

    def __init__(self) -> None:
        self._records: list[ReplacementRecord] = []

    @property
    def records(self) -> tuple[ReplacementRecord, ...]:
        return tuple(self._records)

    def _slot_records(self, slot: str, extra: Optional[ReplacementRecord] = None) -> list[ReplacementRecord]:
        indexed = [(r.timestamp, i, r) for i, r in enumerate(self._records) if r.slot == slot]
        if extra is not None:
            indexed.append((extra.timestamp, len(self._records), extra))
        indexed.sort(key=lambda t: (t[0], t[1]))
        return [r for _, _, r in indexed]

    def append(self, record: ReplacementRecord) -> "ReplacementLog":
        """Accept the record iff the slot's timeline stays valid; rejection
        raises AppendError (E_DUP, E_ORDER, E_OCCUPIED) and leaves the log
        untouched."""
        if record in self._records:
            raise AppendError("E_DUP", "identical record already present")
        _replay(self._slot_records(record.slot, extra=record))
        self._records.append(record)
        return self

    def slots(self) -> list[str]:
        seen: list[str] = []
        for r in self._records:
            if r.slot not in seen:
                seen.append(r.slot)
        return sorted(seen)

    def timeline(self, slot: str) -> list[ReplacementRecord]:
        """All of one slot's records in time order (ties keep append order)."""
        records = self._slot_records(slot)
        if not records:
            raise UnknownSlotError(slot)
        return records

    def installed_at(self, slot: str, at: str | datetime) -> Optional[str]:
        """The unit installed at the given instant, or None when the slot is
        empty then.  A removal at exactly the queried instant counts."""
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

    # Persistence (.fmh: one JSON object per line) ---------------------------

    def to_lines(self) -> str:
        return jsonl.lines(r.to_json() for r in self._records)

    @classmethod
    def from_lines(cls, text: str | Iterable[str]) -> "ReplacementLog":
        lines = text.splitlines() if isinstance(text, str) else list(text)
        log = cls()
        for i, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise HistoryError("bad-record", f"line {i}: not valid JSON: {exc.msg}") from exc
            except RecursionError:
                raise HistoryError("bad-record", f"line {i}: not valid JSON: nesting too deep") from None
            try:
                log.append(ReplacementRecord.from_json(obj))
            except HistoryError as exc:
                raise HistoryError(exc.code, f"line {i}: {exc}") from exc
        return log


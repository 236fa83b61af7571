"""Slot/unit replacement ledger: an append-only log of receive, install,
and remove events over functional slots, with point-in-time queries.

Slots are functional positions (say, pump position P101); units are the
serial-numbered physical parts occupying them.  Real timestamps (ISO 8601,
UTC) rather than simulation ticks: replacement history spans calendar time.
"""
from __future__ import annotations

from bisect import bisect_right
from datetime import datetime, timezone
from typing import Iterable, Optional

from . import jsonl

ACTIONS = ("receive", "install", "remove")


class HistoryError(Exception):
    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message

    def __reduce__(self):
        return type(self), (self.code, self.message)


class AppendError(HistoryError):
    """The record would break the slot's lifecycle; the log is unchanged."""


class UnknownSlotError(HistoryError):
    def __init__(self, slot: str) -> None:
        super().__init__("unknown-slot", f"no records for slot '{slot}'")
        self.slot = slot

    def __reduce__(self):
        return type(self), (self.slot,)


def parse_timestamp(text: str) -> datetime:
    """ISO 8601; a trailing Z means UTC.  Naive stamps are taken as UTC."""
    try:
        stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise HistoryError("bad-timestamp", f"unparseable timestamp '{text}'") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    try:
        return stamp.astimezone(timezone.utc)
    except OverflowError as exc:  # e.g. 9999-12-31T23:59:59-01:00 is in year 10000 in UTC
        raise HistoryError("bad-timestamp", f"timestamp '{text}' is out of range in UTC") from exc


class ReplacementRecord:
    """One ledger line: immutable, equal and hashed field by field."""

    __slots__ = ("slot", "unit", "action", "at", "performer", "contractor", "note")

    def __init__(self, slot: str, unit: str, action: str, at: str, performer: str, contractor: str,
                 note: Optional[str] = None) -> None:
        if not slot:
            raise HistoryError("bad-record", "slot must be non-empty")
        if not unit:
            raise HistoryError("bad-record", "unit serial must be non-empty")
        if action not in ACTIONS:
            raise HistoryError("bad-record", f"unknown action '{action}'")
        parse_timestamp(at)
        set_field = object.__setattr__  # self.__setattr__ refuses every assignment
        set_field(self, "slot", slot)
        set_field(self, "unit", unit)
        set_field(self, "action", action)
        set_field(self, "at", at)
        set_field(self, "performer", performer)
        set_field(self, "contractor", contractor)
        set_field(self, "note", note)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")

    def _fields(self) -> tuple:
        return (self.slot, self.unit, self.action, self.at, self.performer, self.contractor, self.note)

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.slot, self.unit, self.action, self.at, self.performer, self.contractor, self.note))

    def __repr__(self) -> str:
        return f"ReplacementRecord({', '.join(f'{n}={v!r}' for n, v in zip(self.__slots__, self._fields()))})"

    def __reduce__(self):
        return ReplacementRecord, self._fields()

    @property
    def timestamp(self) -> datetime:
        return parse_timestamp(self.at)

    def to_json(self) -> dict:
        obj = dict(zip(self.__slots__, self._fields()))
        if self.note is None:
            del obj["note"]
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


def _step(
    state: dict[str, str], occupant: Optional[str], rec: ReplacementRecord
) -> tuple[str, Optional[str]]:
    """Check one record against a slot's replay state (unit -> received |
    installed | removed, plus the occupant) without changing it; returns
    the unit's next state and the slot's next occupant.

    Lifecycle per unit: receive -> install -> remove, with re-receive
    allowed after removal; at most one unit installed at any instant.
    """
    st = state.get(rec.unit)
    if rec.action == "receive":
        if st in ("received", "installed"):
            raise AppendError("E_ORDER", f"unit '{rec.unit}' received twice")
        return "received", occupant
    if rec.action == "install":
        if st != "received":
            raise AppendError("E_ORDER", f"unit '{rec.unit}' installed before being received")
        if occupant is not None:
            raise AppendError("E_OCCUPIED", f"slot '{rec.slot}' already holds '{occupant}'")
        return "installed", rec.unit
    if st != "installed":  # remove
        raise AppendError("E_ORDER", f"unit '{rec.unit}' removed before being installed")
    return "removed", None


class _Slot:
    """One slot's records in timeline order (parsed stamp, then append
    order), their parsed stamps, and the replay state after the last one."""

    __slots__ = ("records", "stamps", "state", "occupant")

    def __init__(self) -> None:
        self.records: list[ReplacementRecord] = []
        self.stamps: list[datetime] = []
        self.state: dict[str, str] = {}
        self.occupant: Optional[str] = None


class ReplacementLog:
    """Append-only event log across all slots.

    Each slot keeps its own sorted timeline and the replay state at its end,
    so an append dated after the slot's last record is checked against that
    state alone; an earlier-dated one replays only its own slot."""

    def __init__(self) -> None:
        self._records: list[ReplacementRecord] = []  # append order
        self._seen: set[ReplacementRecord] = set()
        self._slots: dict[str, _Slot] = {}

    @property
    def records(self) -> tuple[ReplacementRecord, ...]:
        return tuple(self._records)

    def append(self, record: ReplacementRecord) -> "ReplacementLog":
        """Accept the record iff the slot's timeline stays valid; rejection
        raises AppendError (E_DUP, E_ORDER, E_OCCUPIED) and leaves the log
        untouched."""
        if record in self._seen:
            raise AppendError("E_DUP", "identical record already present")
        when = parse_timestamp(record.at)
        slot = self._slots.get(record.slot) or _Slot()
        i = bisect_right(slot.stamps, when)  # ties keep append order
        if i == len(slot.stamps):
            # The stored prefix already replayed cleanly, so its end state
            # is all the new last record has to be checked against.
            unit_state, occupant = _step(slot.state, slot.occupant, record)
            slot.state[record.unit] = unit_state
        else:
            state: dict[str, str] = {}
            occupant = None
            for rec in slot.records[:i] + [record] + slot.records[i:]:
                state[rec.unit], occupant = _step(state, occupant, rec)
            slot.state = state
        slot.occupant = occupant
        slot.records.insert(i, record)
        slot.stamps.insert(i, when)
        self._slots[record.slot] = slot
        self._seen.add(record)
        self._records.append(record)
        return self

    def _slot(self, slot: str) -> _Slot:
        found = self._slots.get(slot)
        if found is None:
            raise UnknownSlotError(slot)
        return found

    def slots(self) -> list[str]:
        return sorted(self._slots)

    def timeline(self, slot: str) -> list[ReplacementRecord]:
        """All of one slot's records in time order (ties keep append order)."""
        return list(self._slot(slot).records)

    def installed_at(self, slot: str, at: str | datetime) -> Optional[str]:
        """The unit installed at the given instant, or None when the slot is
        empty then.  A removal at exactly the queried instant counts."""
        when = parse_timestamp(at) if isinstance(at, str) else at
        found = self._slot(slot)
        records = found.records
        for i in range(bisect_right(found.stamps, when) - 1, -1, -1):
            rec = records[i]
            if rec.action == "install":
                return rec.unit
            if rec.action == "remove":
                return None
        return None

    # Persistence (.fmh: one JSON object per line) ---------------------------

    def to_lines(self) -> str:
        return jsonl.lines(r.to_json() for r in self._records)

    @classmethod
    def from_lines(cls, text: str | Iterable[str]) -> "ReplacementLog":
        lines = jsonl.split_lines(text) if isinstance(text, str) else list(text)
        log = cls()
        for i, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = jsonl.decode(line)
            except jsonl.JSONLineError as exc:
                raise HistoryError("bad-record", f"line {i}: {exc}") from None
            try:
                log.append(ReplacementRecord.from_json(obj))
            except HistoryError as exc:
                raise HistoryError(exc.code, f"line {i}: {exc.message}") from exc
        return log


"""Slot/unit replacement ledger: an append-only log of receive, install,
and remove events over functional slots, with point-in-time queries.

Slots are functional positions (say, pump position P101); units are the
serial-numbered physical parts occupying them.  Real timestamps (ISO 8601,
UTC) rather than simulation ticks: replacement history spans calendar time.
"""
from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from . import jsonl
from .diagnostics import FrozenRecord, _set

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


# The one stamp grammar, the same on every Python version (3.11 widened
# fromisoformat): YYYY-MM-DD[*HH[:MM[:SS[.fff[fff]]]][+HH:MM]], where * is T or
# a space and a trailing Z may stand for the offset.  A stamp must have one of
# these shapes, each ASCII digit read as 9 (a table lookup, several times
# cheaper than a pattern); fromisoformat then checks the ranges, which every
# supported version does alike for this grammar.
_NINES = bytes.maketrans(b"0123456789", b"9" * 10)
_SHAPES = frozenset([b"9999-99-99"] + [
    b"9999-99-99" + sep + time + zone
    for sep in (b"T", b" ")
    for time in (b"99", b"99:99", b"99:99:99", b"99:99:99.999", b"99:99:99.999999")
    for zone in (b"", b"Z", b"+99:99", b"-99:99")
])


def parse_timestamp(text: str) -> datetime:
    """ISO 8601 in one of ``_SHAPES``; a trailing Z means UTC.  Naive
    stamps are taken as UTC."""
    try:
        if text.encode("ascii", "replace").translate(_NINES) not in _SHAPES:
            raise ValueError(text)
        stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise HistoryError("bad-timestamp", f"unparseable timestamp '{text}'") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    try:
        return stamp.astimezone(timezone.utc)
    except OverflowError as exc:  # e.g. 9999-12-31T23:59:59-01:00 is in year 10000 in UTC
        raise HistoryError("bad-timestamp", f"timestamp '{text}' is out of range in UTC") from exc


# A to_line line, which from_lines reads by pattern; every other line goes to
# the full decoder, which gives the same record or error.  A string holding no
# '"', no '\' and no control character decodes to the text between its quotes.
_S = r'"([^"\\\x00-\x1f]*)"'
_LINE = re.compile(rf'\{{"action":{_S},"at":{_S},"contractor":{_S}(?:,"note":{_S})?,"performer":{_S},"slot":{_S},"unit":{_S}\}}')


class ReplacementRecord(FrozenRecord):
    """One ledger line: immutable, equal and hashed field by field.  Its
    ``timestamp`` is ``at`` parsed, once, when the record is built."""

    _fields = ("slot", "unit", "action", "at", "performer", "contractor", "note")
    __slots__ = _fields + ("timestamp",)

    def __init__(self, slot: str, unit: str, action: str, at: str, performer: str, contractor: str,
                 note: Optional[str] = None) -> None:
        if not slot:
            raise HistoryError("bad-record", "slot must be non-empty")
        if not unit:
            raise HistoryError("bad-record", "unit serial must be non-empty")
        if action not in ACTIONS:
            raise HistoryError("bad-record", f"unknown action '{action}'")
        _set(self, "timestamp", parse_timestamp(at))
        _set(self, "slot", slot)
        _set(self, "unit", unit)
        _set(self, "action", action)
        _set(self, "at", at)
        _set(self, "performer", performer)
        _set(self, "contractor", contractor)
        _set(self, "note", note)

    def to_line(self) -> str:
        """``jsonl.lines([self.to_json()])``: one template, keys sorted, and
        each string escaped by the function that encoder uses."""
        note = "" if self.note is None else f',"note":{_quote(self.note)}'
        return (f'{{"action":{_quote(self.action)},"at":{_quote(self.at)},"contractor":{_quote(self.contractor)}{note},'
                f'"performer":{_quote(self.performer)},"slot":{_quote(self.slot)},"unit":{_quote(self.unit)}}}\n')

    def to_json(self) -> dict:
        obj = dict(zip(self._fields, self._key(self)))
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


def _step(st: Optional[str], occupant: Optional[str], rec: ReplacementRecord) -> tuple[str, Optional[str]]:
    """Check one record against its unit's state before it (received |
    installed | removed, or None) and the slot's occupant then; returns the
    unit's next state and the slot's next occupant.  An append steps the
    new record and then each record dated after it, nothing earlier.

    Lifecycle per unit: receive -> install -> remove, with re-receive
    allowed after removal; at most one unit installed at any instant.
    """
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


# A valid record's unit state just before it (None stands for "removed" too).
_PRIOR = {"receive": None, "install": "received", "remove": "installed"}


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

    Each slot keeps its own sorted timeline and the replay state at its end;
    an append replays only itself and the slot's records dated after it."""

    def __init__(self) -> None:
        self._records: list[ReplacementRecord] = []  # append order
        self._slots: dict[str, _Slot] = {}

    @property
    def records(self) -> tuple[ReplacementRecord, ...]:
        return tuple(self._records)

    def append(self, record: ReplacementRecord) -> "ReplacementLog":
        """Accept the record iff the slot's timeline stays valid; rejection
        raises AppendError (E_DUP, E_ORDER, E_OCCUPIED) and leaves the log
        untouched."""
        when = record.timestamp
        slot = self._slots.get(record.slot) or _Slot()
        records, unit = slot.records, record.unit
        i = bisect_right(slot.stamps, when)  # ties keep append order
        if record in records[bisect_left(slot.stamps, when):i]:  # an equal record has the same instant
            raise AppendError("E_DUP", "identical record already present")
        # Undo the records dated after it, latest first, back to i: each
        # valid record shows its unit's state and the occupant before it.
        state, occupant = slot.state.get(unit), slot.occupant
        k = len(records)
        while k > i:
            k -= 1
            rec = records[k]
            if rec.unit == unit:
                state = _PRIOR[rec.action]
            if rec.action != "receive":
                occupant = rec.unit if rec.action == "remove" else None
        # Step it, then them.  It changes only its unit's states and the
        # occupant, so a later record of another unit finds its unit in the
        # state _PRIOR gives, and a later one of its own unit fails: a state
        # allows one action only, the new record's.
        state, occupant = _step(state, occupant, record)
        while k < len(records):
            rec = records[k]
            k += 1
            _, occupant = _step(state if rec.unit == unit else _PRIOR[rec.action], occupant, rec)
        slot.state[unit] = state
        slot.occupant = occupant
        records.insert(i, record)
        slot.stamps.insert(i, when)
        self._slots[record.slot] = slot
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
        return "".join(map(ReplacementRecord.to_line, self._records))

    @classmethod
    def from_lines(cls, text: str) -> "ReplacementLog":
        log = cls()
        for i, line in enumerate(jsonl.split_lines(text), start=1):
            found = _LINE.fullmatch(line)
            try:
                if found is not None:
                    action, at, contractor, note, performer, slot, unit = found.groups()
                    log.append(ReplacementRecord(slot, unit, action, at, performer, contractor, note))
                elif line.strip():
                    log.append(ReplacementRecord.from_json(jsonl.decode(line)))
            except jsonl.JSONLineError as exc:
                raise HistoryError("bad-record", f"line {i}: {exc}") from None
            except HistoryError as exc:
                raise HistoryError(exc.code, f"line {i}: {exc.message}") from exc
        return log

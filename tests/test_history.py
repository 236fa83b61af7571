from __future__ import annotations

import json
import pickle
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stamp_check
from conftest import CORPUS
from ledger_reference import ReferenceLines, ReferenceLog

from fmkit import history, jsonl
from fmkit.history import (
    AppendError,
    HistoryError,
    ReplacementLog,
    ReplacementRecord,
    UnknownSlotError,
    parse_timestamp,
)


def rec(slot, unit, action, at, performer="al", contractor="acme", note=None):
    return ReplacementRecord(slot, unit, action, at, performer, contractor, note)


def pump_log():
    """The P101 example: pump-1 serves, is replaced by pump-2."""
    log = ReplacementLog()
    log.append(rec("P101", "pump-1", "receive", "2021-03-01T08:00:00Z"))
    log.append(rec("P101", "pump-1", "install", "2021-03-02T09:30:00Z"))
    log.append(rec("P101", "pump-2", "receive", "2023-06-10T10:00:00Z"))
    log.append(rec("P101", "pump-1", "remove", "2023-06-11T07:15:00Z"))
    log.append(rec("P101", "pump-2", "install", "2023-06-11T13:45:00Z"))
    return log


def test_receive_then_install_accepted():
    log = ReplacementLog()
    log.append(rec("P101", "pump-1", "receive", "2021-03-01T08:00:00Z"))
    log.append(rec("P101", "pump-1", "install", "2021-03-02T09:30:00Z"))
    assert len(log.records) == 2


def test_install_while_occupied_rejected():
    log = ReplacementLog()
    log.append(rec("P101", "pump-1", "receive", "2021-03-01T08:00:00Z"))
    log.append(rec("P101", "pump-1", "install", "2021-03-02T09:30:00Z"))
    log.append(rec("P101", "pump-2", "receive", "2021-04-01T08:00:00Z"))
    with pytest.raises(AppendError) as exc:
        log.append(rec("P101", "pump-2", "install", "2021-04-02T08:00:00Z"))
    assert exc.value.code == "E_OCCUPIED"


def test_replacement_sequence_accepted():
    log = pump_log()
    assert [r.action for r in log.timeline("P101")] == [
        "receive", "install", "receive", "remove", "install",
    ]


def test_install_before_receive_rejected():
    log = ReplacementLog()
    with pytest.raises(AppendError) as exc:
        log.append(rec("P101", "pump-9", "install", "2021-03-02T09:30:00Z"))
    assert exc.value.code == "E_ORDER"


def test_remove_before_install_rejected():
    log = ReplacementLog()
    log.append(rec("P101", "pump-1", "receive", "2021-03-01T08:00:00Z"))
    with pytest.raises(AppendError) as exc:
        log.append(rec("P101", "pump-1", "remove", "2021-03-02T09:30:00Z"))
    assert exc.value.code == "E_ORDER"


def test_duplicate_record_rejected():
    log = ReplacementLog()
    log.append(rec("P101", "pump-1", "receive", "2021-03-01T08:00:00Z"))
    with pytest.raises(AppendError) as exc:
        log.append(rec("P101", "pump-1", "receive", "2021-03-01T08:00:00Z"))
    assert exc.value.code == "E_DUP"


def test_duplicate_behind_a_same_instant_record_rejected():
    # B shares A's instant, so A is not the slot's last record when it
    # comes again; appended anyway, it would be a second receive (E_ORDER).
    log = ReplacementLog()
    log.append(rec("P101", "pump-1", "receive", "2021-03-01T08:00:00Z"))
    log.append(rec("P101", "pump-2", "receive", "2021-03-01T08:00:00Z"))
    with pytest.raises(AppendError) as exc:
        log.append(rec("P101", "pump-1", "receive", "2021-03-01T08:00:00Z"))
    assert exc.value.code == "E_DUP"


def test_rejected_append_leaves_log_identical():
    log = pump_log()
    before = log.to_lines()
    with pytest.raises(AppendError):
        log.append(rec("P101", "pump-3", "install", "2024-01-01T00:00:00Z"))
    assert log.to_lines() == before


def test_installed_at_between_installs():
    log = pump_log()
    assert log.installed_at("P101", "2022-01-01T00:00:00Z") == "pump-1"


def test_installed_at_before_any_install():
    log = pump_log()
    assert log.installed_at("P101", "2020-01-01T00:00:00Z") is None


def test_installed_at_after_replacement():
    log = pump_log()
    assert log.installed_at("P101", "2024-01-01T00:00:00Z") == "pump-2"


def test_installed_at_during_swap_gap():
    log = pump_log()
    assert log.installed_at("P101", "2023-06-11T10:00:00Z") is None


def test_timeline_unknown_slot():
    log = pump_log()
    with pytest.raises(UnknownSlotError):
        log.timeline("P999")
    with pytest.raises(UnknownSlotError):
        log.installed_at("P999", "2024-01-01T00:00:00Z")


def test_two_slots_partition():
    log = pump_log()
    log.append(rec("V300", "valve-7", "receive", "2022-01-01T00:00:00Z"))
    log.append(rec("V300", "valve-7", "install", "2022-01-02T00:00:00Z"))
    assert {r.slot for r in log.timeline("P101")} == {"P101"}
    assert {r.slot for r in log.timeline("V300")} == {"V300"}
    assert len(log.timeline("V300")) == 2


def test_round_trip_lines():
    log = pump_log()
    text = log.to_lines()
    again = ReplacementLog.from_lines(text)
    assert again.to_lines() == text


def test_note_optional_and_preserved():
    log = ReplacementLog()
    log.append(rec("P101", "pump-1", "receive", "2021-03-01T08:00:00Z", note="spare from store"))
    reloaded = ReplacementLog.from_lines(log.to_lines())
    assert reloaded.records[0].note == "spare from store"


def test_bad_timestamp_rejected():
    with pytest.raises(HistoryError):
        rec("P101", "pump-1", "receive", "not-a-time")


@pytest.mark.parametrize("fields,code,message", [
    (("", "pump-1", "receive", "2021-03-01T08:00:00Z"), "bad-record", "slot must be non-empty"),
    (("P101", "", "receive", "2021-03-01T08:00:00Z"), "bad-record", "unit serial must be non-empty"),
    (("P101", "pump-1", "fit", "2021-03-01T08:00:00Z"), "bad-record", "unknown action 'fit'"),
    (("P101", "pump-1", "receive", "not-a-time"), "bad-timestamp", "unparseable timestamp 'not-a-time'"),
])
def test_record_checked_at_construction(fields, code, message):
    with pytest.raises(HistoryError) as exc:
        ReplacementRecord(*fields, "al", "acme")
    assert (exc.value.code, str(exc.value)) == (code, f"{code}: {message}")


# Stamps that parse but leave datetime's range once converted to UTC.
OUT_OF_RANGE_STAMPS = ["9999-12-31T23:59:59-01:00", "0001-01-01T00:00:00+01:00"]


@pytest.mark.parametrize("stamp", OUT_OF_RANGE_STAMPS)
def test_stamp_out_of_range_in_utc_is_a_bad_timestamp(stamp):
    reason = f"timestamp '{stamp}' is out of range in UTC"
    message = f"bad-timestamp: {reason}"
    with pytest.raises(HistoryError) as exc:
        rec("P101", "pump-1", "receive", stamp)
    assert (exc.value.code, str(exc.value)) == ("bad-timestamp", message)
    line = jsonl.dumps(dict(rec("P102", "pump-9", "receive", "2024-01-01T00:00:00Z").to_json(), at=stamp))
    with pytest.raises(HistoryError) as exc:
        ReplacementLog.from_lines(pump_log().to_lines() + line + "\n")
    assert (exc.value.code, str(exc.value)) == ("bad-timestamp", f"bad-timestamp: line 6: {reason}")


@pytest.mark.parametrize("stamp", stamp_check.REJECTED)
def test_stamp_outside_the_grammar_is_rejected(stamp):
    with pytest.raises(HistoryError) as exc:
        parse_timestamp(stamp)
    assert str(exc.value) == f"bad-timestamp: unparseable timestamp '{stamp}'"


def test_every_stamp_in_use_parses():
    # The corpus ledgers, every stamp the tests quote and the benchmark's
    # ledger generator; tests/stamp_check.py runs the same under any Python.
    assert stamp_check.problems(stamp_check.in_use()) == []


ZONES = {"": timezone.utc, "Z": timezone.utc, "+05:30": timezone(timedelta(hours=5, minutes=30)),
         "-00:00": timezone.utc}


@settings(max_examples=200, deadline=None)
@given(st.datetimes(datetime(1000, 1, 1), datetime(9998, 12, 31)), st.integers(0, 5), st.sampled_from("T "),
       st.sampled_from(sorted(ZONES)))
def test_stamp_grammar_reads_each_of_its_forms(moment, fields, sep, zone):
    # YYYY-MM-DD, then the first `fields` of hour, minute, second and a
    # three- or six-digit fraction, then (with a time) the zone.
    date = f"{moment.year:04d}-{moment.month:02d}-{moment.day:02d}"
    time = [f"{sep}{moment.hour:02d}", f":{moment.minute:02d}", f":{moment.second:02d}",
            f".{moment.microsecond // 1000:03d}", f"{moment.microsecond % 1000:03d}"][:fields]
    text = date + "".join(time) + (zone if fields else "")
    values = [moment.hour, moment.minute, moment.second, moment.microsecond // 1000 * 1000, moment.microsecond]
    kept = values[:min(fields, 3)] + ([values[fields - 1]] if fields > 3 else [])
    expected = datetime(moment.year, moment.month, moment.day, *kept, tzinfo=ZONES[zone] if fields else timezone.utc)
    assert parse_timestamp(text) == expected


def test_record_equality_hash_and_repr_are_field_wise():
    first = rec("P101", "pump-1", "install", "2021-03-02T09:30:00Z", note="n")
    same = ReplacementRecord(
        slot="P101", unit="pump-1", action="install", at="2021-03-02T09:30:00Z",
        performer="al", contractor="acme", note="n",
    )
    assert first == same and hash(first) == hash(same)
    assert first != rec("P101", "pump-1", "install", "2021-03-02T09:30:00Z")
    assert len({first, same}) == 1
    as_tuple = ("P101", "pump-1", "install", "2021-03-02T09:30:00Z", "al", "acme", "n")
    assert first != as_tuple and as_tuple != first
    assert repr(first) == (
        "ReplacementRecord(slot='P101', unit='pump-1', action='install', "
        "at='2021-03-02T09:30:00Z', performer='al', contractor='acme', note='n')"
    )
    assert rec("P101", "pump-1", "receive", "2021-03-01T08:00:00Z").note is None


def test_record_fields_cannot_change():
    record = rec("P101", "pump-1", "install", "2021-03-02T09:30:00Z")
    with pytest.raises(AttributeError):
        record.unit = "pump-2"
    with pytest.raises(AttributeError):
        del record.slot
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record.to_json() == {
        "slot": "P101", "unit": "pump-1", "action": "install", "at": "2021-03-02T09:30:00Z",
        "performer": "al", "contractor": "acme",
    }
    assert pickle.loads(pickle.dumps(record)) == record


def test_append_timestamped_between_existing_records():
    # A late-arriving record slots into the timeline by its timestamp; it
    # is accepted only when the rewritten history still follows the
    # lifecycle rules.
    log = ReplacementLog()
    log.append(rec("P101", "pump-1", "receive", "2021-03-01T00:00:00Z"))
    log.append(rec("P101", "pump-1", "install", "2021-03-03T00:00:00Z"))
    log.append(rec("P101", "pump-2", "receive", "2021-03-02T00:00:00Z"))
    assert [r.unit for r in log.timeline("P101")] == ["pump-1", "pump-2", "pump-1"]
    with pytest.raises(AppendError) as exc:
        # A removal dated before the install would corrupt the history.
        log.append(rec("P101", "pump-1", "remove", "2021-03-02T12:00:00Z"))
    assert exc.value.code == "E_ORDER"


@pytest.mark.parametrize("unit,action,at,code,message", [
    # The occupant at the record's instant is the unit a later removal takes out.
    ("u2", "install", "2021-03-01T11:00:00Z", "E_OCCUPIED", "slot 'P101' already holds 'u1'"),
    # The unit's state there is the one its next record expects.
    ("u1", "install", "2021-03-01T10:30:00Z", "E_ORDER", "unit 'u1' installed before being received"),
    ("u2", "receive", "2021-03-01T09:30:00Z", "E_ORDER", "unit 'u2' received twice"),
    # The record itself is fine; the later removal it doubles is the first to fail.
    ("u1", "remove", "2021-03-01T10:30:00Z", "E_ORDER", "unit 'u1' removed before being installed"),
])
def test_late_record_is_checked_against_the_state_at_its_instant(unit, action, at, code, message):
    log = ReplacementLog()
    log.append(rec("P101", "u1", "receive", "2021-03-01T08:00:00Z"))
    log.append(rec("P101", "u1", "install", "2021-03-01T09:00:00Z"))
    log.append(rec("P101", "u1", "remove", "2021-03-01T12:00:00Z"))
    log.append(rec("P101", "u2", "receive", "2021-03-01T10:00:00Z"))
    before = log.to_lines()
    with pytest.raises(AppendError) as exc:
        log.append(rec("P101", unit, action, at))
    assert (exc.value.code, exc.value.message) == (code, message)
    assert log.to_lines() == before
    log.append(rec("P101", "u2", "install", "2021-03-01T12:00:00Z"))  # the slot's state is unharmed
    assert log.installed_at("P101", "2021-03-01T12:00:00Z") == "u2"


def test_single_occupancy_sweep():
    log = pump_log()
    stamps = [r.timestamp for r in log.timeline("P101")]
    probes = []
    for ts in stamps:
        probes.extend([ts, ts.replace(second=(ts.second + 1) % 60)])
    for probe in probes:
        installed = [
            u for u in {"pump-1", "pump-2"}
            if log.installed_at("P101", probe) == u
        ]
        assert len(installed) <= 1


ACTIONS_FOR_UNITS = st.lists(
    st.tuples(
        st.sampled_from(["u1", "u2", "u3"]),
        st.sampled_from(["receive", "install", "remove"]),
        st.integers(0, 40),
    ),
    max_size=25,
)


def naive_installed_at(records, when):
    occupant = None
    for r in sorted(records, key=lambda r: r.timestamp):
        if r.timestamp > when:
            break
        if r.action == "install":
            occupant = r.unit
        elif r.action == "remove":
            occupant = None
    return occupant


@settings(max_examples=120, deadline=None)
@given(ACTIONS_FOR_UNITS, st.integers(0, 40))
def test_installed_at_matches_linear_scan(moves, probe_hour):
    log = ReplacementLog()
    for unit, action, hour in moves:
        try:
            log.append(rec("S", unit, action, f"2024-01-01T{hour % 24:02d}:{hour % 60:02d}:00Z"))
        except AppendError:
            pass
    when = parse_timestamp(f"2024-01-01T{probe_hour % 24:02d}:{probe_hour % 60:02d}:30Z")
    if not log.records:
        return
    assert log.installed_at("S", when) == naive_installed_at(log.records, when)


# Differential gate: the indexed ledger against the brute-force reference.

LEDGER_SLOTS = ["P1", "P2", "V3"]
LEDGER_UNITS = ["u1", "u2", "u3"]
# The same instant written four ways; naive stamps are taken as UTC.
STAMP_FORMS = [
    "2024-01-01T00:{:02d}:00Z",
    "2024-01-01T00:{:02d}:00+00:00",
    "2024-01-01T01:{:02d}:00+01:00",
    "2024-01-01T00:{:02d}:00",
]
LEDGER_START = parse_timestamp("2024-01-01T00:00:00Z")
NEXT_ACTION = {None: "receive", "receive": "install", "install": "remove", "remove": "receive"}


@st.composite
def ledger_record(draw, ref, drawn):
    """A record for the next append: an exact repeat of an earlier draw, a
    fully random record (most break some lifecycle rule), or the unit's
    next lifecycle step, dated at or just after the slot's last record
    (in-order and tied appends), anywhere in the hour (late-arriving
    records) or days after every record drawn so far (far-future records,
    which the in-hour appends that follow land before)."""
    kind = draw(st.sampled_from(["repeat", "random", "next", "next", "far"]))
    if kind == "repeat" and drawn:
        return draw(st.sampled_from(drawn))
    slot = draw(st.sampled_from(LEDGER_SLOTS))
    unit = draw(st.sampled_from(LEDGER_UNITS))
    if kind == "random":
        action = draw(st.sampled_from(["receive", "install", "remove"]))
        minute = draw(st.integers(0, 59))
    else:
        timeline = ref.timeline(slot) if slot in ref.slots() else []
        last = None
        for r in timeline:
            if r.unit == unit:
                last = r.action
        action = NEXT_ACTION[last]
        if kind == "far":
            latest = max((r.timestamp for r in ref.records), default=LEDGER_START)
            return rec(slot, unit, action, (latest + timedelta(days=draw(st.integers(1, 3)))).isoformat())
        end = int((timeline[-1].timestamp - LEDGER_START).total_seconds() // 60) if timeline else 0
        end = min(end, 59)  # past the hour when the slot holds a far-future record
        minute = draw(st.integers(end, min(end + 3, 59)) | st.integers(0, 59))
    return rec(
        slot, unit, action, draw(st.sampled_from(STAMP_FORMS)).format(minute),
        performer=draw(st.sampled_from(["al", "bo"])), note=draw(st.sampled_from([None, "spare"])),
    )


def append_outcome(log, record):
    try:
        log.append(record)
    except AppendError as exc:
        return exc.code, str(exc)
    return "accepted"


def assert_same_ledger(log, ref):
    assert log.records == tuple(ref.records)
    assert log.slots() == ref.slots()
    assert log.to_lines() == ref.to_lines()
    for slot in LEDGER_SLOTS:
        if slot not in ref.slots():
            with pytest.raises(UnknownSlotError):
                log.timeline(slot)
            with pytest.raises(UnknownSlotError):
                log.installed_at(slot, "2024-01-01T00:00:00Z")
            continue
        timeline = ref.timeline(slot)
        assert log.timeline(slot) == timeline
        probes = [timeline[0].timestamp - timedelta(days=1)]
        for r in timeline:
            probes += [r.at, r.timestamp, r.timestamp - timedelta(seconds=30), r.timestamp + timedelta(seconds=30)]
        for probe in probes:
            assert log.installed_at(slot, probe) == ref.installed_at(slot, probe), (slot, probe)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ledger_matches_brute_force_reference(data):
    log, ref = ReplacementLog(), ReferenceLog()
    drawn: list[ReplacementRecord] = []
    for _ in range(data.draw(st.integers(1, 30), label="appends")):
        record = data.draw(ledger_record(ref, drawn))
        drawn.append(record)
        assert append_outcome(log, record) == append_outcome(ref, record)
        assert_same_ledger(log, ref)


def test_timeline_is_a_copy():
    log = pump_log()
    log.timeline("P101").clear()
    assert len(log.timeline("P101")) == 5


def test_in_order_load_parses_each_stamp_once(monkeypatch):
    # Loading N in-order records parses each stamp once, to validate the
    # record, and places it by the instant the record keeps, however large
    # its slot grows; the brute-force algorithm re-parses the whole slot on
    # every append.
    n, slots = 5000, 4
    start = datetime(2020, 1, 1, tzinfo=timezone.utc)
    objects = []
    for k in range(n):
        slot, step = f"S{k % slots}", k // slots
        objects.append(rec(
            slot, f"{slot}-u{step // 3}", ("receive", "install", "remove")[step % 3],
            (start + timedelta(minutes=k)).isoformat(),
        ).to_json())
    text = jsonl.lines(objects)
    calls = 0
    real = history.parse_timestamp

    def counting(stamp):
        nonlocal calls
        calls += 1
        return real(stamp)

    monkeypatch.setattr(history, "parse_timestamp", counting)
    log = ReplacementLog.from_lines(text)
    assert len(log.records) == n
    assert calls == n


def test_far_future_record_leaves_in_order_appends_a_fixed_cost(monkeypatch):
    # An append replays only the records dated after it, so after one
    # far-future record every in-order append checks two records: itself
    # and that one.  Replaying the whole slot would check about n * n / 2.
    n = 1000
    log = ReplacementLog().append(rec("P101", "spare", "receive", "2099-01-01T00:00:00Z"))
    start = datetime(2020, 1, 1, tzinfo=timezone.utc)
    calls = 0
    real = history._step

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(history, "_step", counting)
    for k in range(n):
        log.append(rec(
            "P101", f"u{k // 3}", ("receive", "install", "remove")[k % 3], (start + timedelta(minutes=k)).isoformat()
        ))
    assert len(log.timeline("P101")) == n + 1
    assert log.timeline("P101")[-1].unit == "spare"
    assert calls <= 2 * n


@pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"], ids=["nel", "ls", "ps"])
def test_from_lines_keeps_raw_line_separator_inside_string(char):
    # Valid JSON may hold these raw inside a string; only \n, \r\n and \r
    # end a ledger line.
    first = jsonl.dumps(rec("P101", f"pump{char}1", "receive", "2021-03-01T08:00:00Z").to_json())
    second = jsonl.dumps(rec("P101", f"pump{char}1", "install", "2021-03-02T08:00:00Z").to_json())
    text = first.replace("\\u" + f"{ord(char):04x}", char) + "\r\n\n" + second + "\n"
    assert char in text
    log = ReplacementLog.from_lines(text)
    assert [r.unit for r in log.records] == [f"pump{char}1"] * 2
    assert log.installed_at("P101", "2022-01-01T00:00:00Z") == f"pump{char}1"


@pytest.mark.parametrize("char", ["\x1c", "\x1d", "\x1e", "\x0b", "\x0c"])
def test_from_lines_raw_control_character_is_an_error_on_its_line(char):
    # A raw control character inside a JSON string is the decoder's error,
    # reported at the line that holds it rather than as a string cut short.
    good = jsonl.dumps(rec("P101", "pump-1", "receive", "2021-03-01T08:00:00Z").to_json())
    bad = jsonl.dumps(rec("P101", "pump-2", "receive", "2021-03-02T08:00:00Z").to_json())
    bad = bad.replace('"pump-2"', f'"pump{char}2"')
    with pytest.raises(HistoryError) as exc:
        ReplacementLog.from_lines(f"{good}\n\n{bad}\n{good}\n")
    assert str(exc.value).startswith("bad-record: line 3: not valid JSON: Invalid control character")


# Line I/O against the encoder-and-decoder reference (ReferenceLines).

# Text the writer escapes as the encoder does: quotes, backslashes, control
# characters, DEL, non-ASCII, raw line separators and lone surrogates.
AWKWARD = st.text(st.sampled_from('"\\\x00\x01\x1f\x7f\x85\xe9\u20ac\u2028\ud800\udfff\U000103ff') | st.characters(), max_size=5)
STAMPS = st.sampled_from([
    "2024-01-01T00:00:00Z", "2024-01-01T00:30:00+01:00", "2024-01-01 00:45:00", "2024-01-01",
    "2024-01-01T01:00:00.250", "2024-01-02T00:00:00-00:00",
])
ACTION = st.sampled_from(history.ACTIONS)


@st.composite
def any_record(draw):
    return rec(
        draw(AWKWARD.filter(bool)), draw(AWKWARD.filter(bool)), draw(ACTION), draw(STAMPS),
        performer=draw(AWKWARD), contractor=draw(AWKWARD), note=draw(st.none() | st.just("") | AWKWARD),
    )


@st.composite
def pool_record(draw):
    """A record over few slots and units, so that lifecycles form."""
    return rec(
        draw(st.sampled_from(["P1", "Pé2", 'P"3'])), draw(st.sampled_from(["u1", "u2", "u\\3"])),
        draw(ACTION), draw(STAMPS), performer=draw(st.sampled_from(["al", "b\x01o"])),
        contractor=draw(st.sampled_from(["acme", "gulf"])), note=draw(st.sampled_from([None, "", "spare "])),
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(any_record(), max_size=8))
def test_to_lines_is_the_encoders_text(records):
    log = ReplacementLog()
    for record in records:
        try:
            log.append(record)
        except AppendError:
            pass
    assert log.to_lines() == ReferenceLines.to_lines(log)
    assert "".join(r.to_line() for r in records) == jsonl.lines(r.to_json() for r in records)


@settings(max_examples=200, deadline=None)
@given(any_record())
def test_record_keeps_its_parsed_stamp(record):
    assert record.timestamp == parse_timestamp(record.at)
    again = pickle.loads(pickle.dumps(record))
    assert again == record and hash(again) == hash(record) and repr(again) == repr(record)
    assert again.timestamp == record.timestamp


# JSON texts a field may be given in place of its own value.
OTHER_VALUES = ["1", "true", "null", "1.5", "[]", "{}", '""', '"fit"', '"not-a-time"', '"9999-12-31T23:59:59-01:00"']


def escaped(value: str, k: int) -> str:
    """The JSON text of ``value`` with its k-th character written as a \\u
    escape (two for a character past U+FFFF)."""
    char = value[k]
    escape = jsonl.dumps(char)[1:-1] if ord(char) > 0xFFFF else f"\\u{ord(char):04x}"
    return jsonl.dumps(value[:k])[:-1] + escape + jsonl.dumps(value[k + 1:])[1:]


@st.composite
def ledger_line(draw, record):
    """A line for the record: the writer's own, or one changed so that the
    pattern misses it, or so that its record or error changes."""
    pairs = [(key, jsonl.dumps(value)) for key, value in sorted(record.to_json().items())]
    sep, colon = ",", ":"
    if draw(st.integers(0, 9)):  # the record's own line, in the writer's shape or not
        how = draw(st.sampled_from(["writer", "writer", "escape", "raw", "reorder", "extra", "null-note", "spaces"]))
    else:  # another record, or none
        how = draw(st.sampled_from(["value", "missing", "repeat", "control", "cut", "more", "not-object"]))
    j = draw(st.integers(0, len(pairs) - 1))
    key, text = pairs[j]
    if how == "escape" and len(text) > 2:
        value = json.loads(text)
        pairs[j] = key, escaped(value, draw(st.integers(0, len(value) - 1)))
    elif how == "raw":
        pairs = [(k, json.dumps(json.loads(t), ensure_ascii=False)) for k, t in pairs]
    elif how == "reorder":
        pairs = draw(st.permutations(pairs))
    elif how == "extra":
        pairs.insert(draw(st.integers(0, len(pairs))), ("extra", draw(st.sampled_from(OTHER_VALUES))))
    elif how == "null-note" and record.note is None:
        pairs.insert(3, ("note", "null"))
    elif how == "value":
        pairs[j] = key, draw(st.sampled_from(OTHER_VALUES))
    elif how == "missing":
        del pairs[j]
    elif how == "repeat":
        pairs.append((key, draw(st.sampled_from(OTHER_VALUES))))
    elif how == "spaces":
        sep, colon = draw(st.sampled_from([(", ", ": "), (",", ": "), (" ,", ":")]))
    elif how == "control":
        pairs[j] = key, text[:-1] + "\x01" + text[-1]
    line = "{" + sep.join(f'"{k}"{colon}{t}' for k, t in pairs) + "}"
    if how == "spaces":
        line = draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " "]))
    elif how == "cut":
        line = line[:draw(st.integers(0, len(line) - 1))]
    elif how == "more":
        line += draw(st.sampled_from(["x", "}", ",", " {}"]))
    elif how == "not-object":
        line = draw(st.sampled_from(["[]", "1", "nul", '"x"', "{}"]))
    assert how != "writer" or line + "\n" == record.to_line()
    return line


@st.composite
def ledger_text(draw):
    """Mostly accepted records (each drawn record kept when the log takes
    it), some rejected ones, as lines that may be changed, between blank
    lines and \\n, \\r\\n or \\r line ends."""
    log, lines = ReplacementLog(), []
    for _ in range(draw(st.integers(0, 30))):
        record = draw(pool_record())
        try:
            log.append(record)
        except AppendError:
            if draw(st.integers(0, 31)):
                continue
        lines.append(draw(ledger_line(record)))
        if not draw(st.integers(0, 5)):
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends)) + draw(st.sampled_from(["", "\n", " "]))


def load_outcome(from_lines, text):
    try:
        log = from_lines(text)
    except HistoryError as exc:
        return type(exc), exc.code, exc.message
    return log.records, [r.timestamp for r in log.records], ReferenceLines.to_lines(log), {
        slot: log.timeline(slot) for slot in log.slots()
    }


@settings(max_examples=400, deadline=None)
@given(ledger_text())
def test_from_lines_matches_the_decoder_reference(text):
    assert load_outcome(ReplacementLog.from_lines, text) == load_outcome(ReferenceLines.from_lines, text)


def test_to_lines_of_the_pump_history_is_the_file():
    text = (CORPUS / "pump_history.fmh").read_text(encoding="utf-8")
    assert ReplacementLog.from_lines(text).to_lines() == text


@pytest.mark.parametrize("note", [None, "", "spare"])
def test_to_line_writes_a_note_only_when_there_is_one(note):
    record = rec("P101", "pump-1", "receive", "2021-03-01T08:00:00Z", note=note)
    assert record.to_line() == jsonl.lines([record.to_json()])
    assert ('"note"' in record.to_line()) is (note is not None)


@pytest.mark.parametrize("unit,text", [
    ("pumpé1", '"pump\\u00e91"'), ('pump"1', '"pump\\"1"'), ("pump\\1", '"pump\\\\1"'), ("pump/1", '"pump\\/1"'),
])
def test_from_lines_reads_escapes_as_the_decoder_does(unit, text):
    line = rec("P101", "pump-1", "receive", "2021-03-01T08:00:00Z", performer="al", contractor="acme").to_line()
    log = ReplacementLog.from_lines(line.replace('"pump-1"', text))
    assert log.records == (rec("P101", unit, "receive", "2021-03-01T08:00:00Z"),)
    assert (log.records[0].performer, log.records[0].contractor) == ("al", "acme")


@pytest.mark.parametrize("more", ["x", "}", ",", " {}"])
def test_writer_line_with_more_after_it_is_the_decoders_error(more):
    line = rec("P101", "pump-1", "receive", "2021-03-01T08:00:00Z").to_line()
    with pytest.raises(HistoryError) as exc:
        ReplacementLog.from_lines(line + line[:-1] + more + "\n")
    assert str(exc.value).startswith("bad-record: line 2: not valid JSON: Extra data")

"""The trace reader against its reference (``trace_reference``, the reader
before the fast path): the same records, or the same TraceParseError with
the same line number and message, on writer output, on mutants of it and on
fixed edge lines, whether the reader is given the text or streams the lines
of a file opened as ``fmkit conform`` opens it; and the writer's own output
never reaches the fallback decoder.  Given the events' ``owners`` filter,
as ``fmkit conform`` gives it, the reader gives the verdict ``check`` gives
over the reference's records, or the reference's error at the same line,
and leaves out only records no event watches.  The reader checks 256 lines
at a time: bad lines at the edges of a block, tails that only join into a
good one, and integers too long for the block check are read as the
reference reads them, and only the lines off the writer's shape reach the
decoder.  Filtered, a line with an unwatched head is left out only when it
is in the writer's shape."""
from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import pathlib
import re
import sys
import tempfile

import pytest
import trace_reference
from conftest import CORPUS, golden_text, load_corpus_model
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_fuzz import mutate

from fmkit import export, jsonl
from fmkit.behavior import OccurrenceScanner, check
from fmkit.cli import main
from fmkit.export import TraceParseError, read_trace, trace_records, write_trace
from fmkit.simulate import TraceEvent

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_TRACES = sorted(path.stem for path in GOLDEN.glob("*.jsonl"))
ACTIONS = ["spawn", "move", "consume", "trigger-fired", "blocked", "quiescent"]


def outcome(read, text):
    try:
        return read(text)
    except TraceParseError as exc:
        return ("error", exc.line_no, str(exc))


def streamed(text: str, watched=None) -> list[TraceEvent]:
    """``trace_records`` over a file holding ``text``, written in binary and
    opened in text mode as ``fmkit conform`` opens its trace: the file
    object breaks lines at \\n, \\r\\n and \\r and gives each with a \\n."""
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "trace.jsonl")
        with open(path, "wb") as handle:
            handle.write(text.encode("utf-8"))
        with open(path, "r", encoding="utf-8") as handle:
            return list(trace_records(handle, watched))


def assert_same_as_reference(text: str) -> None:
    expected = outcome(trace_reference.read_trace, text)
    assert outcome(read_trace, text) == expected
    assert outcome(streamed, text) == expected
    # Lines from a file keep their "\n": the same records and errors.
    assert outcome(read_trace, io.StringIO(text)) == outcome(trace_reference.read_trace, io.StringIO(text))
    assert_filtered_same_as_reference(text)


# The tvm model's events and its cash_purchase program, as the CLI tests
# conform against them: no event watches a move along arc 3, one watches a
# move along arc 23.
TVM = load_corpus_model("tvm")
PROGRAM = TVM.behavior("cash_purchase").program
WATCHED = OccurrenceScanner(TVM.events).owners


def watched_only(trace: list[TraceEvent]) -> list[TraceEvent]:
    return [e for e in trace if WATCHED(e.action, e.at, e.arc)]


def reference_verdict(text: str):
    return check(trace_reference.read_trace(text), TVM.events, PROGRAM)


def filtered_verdict(text: str):
    return check(trace_records(jsonl.split_lines(text), WATCHED), TVM.events, PROGRAM)


def assert_filtered_same_as_reference(text: str) -> None:
    """Filtered, the reader gives check's verdict over the reference's
    records, or the reference's error with the same line; of the records,
    it keeps every watched one, in order, and leaves out only unwatched ones."""
    assert outcome(filtered_verdict, text) == outcome(reference_verdict, text)
    full = outcome(trace_reference.read_trace, text)
    filtered = outcome(lambda text: streamed(text, WATCHED), text)
    if isinstance(full, tuple):  # the reference's error
        assert filtered == full
    else:
        assert watched_only(filtered) == watched_only(full)
        rest = iter(full)
        assert all(any(e == f for f in rest) for e in filtered), "not a subsequence of the full records"


# Quotes, backslashes, non-ASCII, raw line separators that are not line
# ends in a trace, control characters and a lone surrogate.
SPECIAL = '"\\/é½٣\u2028\u2029\x85\x00\x1c\x1f\x7f\ud800 ,:{}'
strings = st.one_of(st.none(), st.text(st.one_of(st.sampled_from(SPECIAL), st.characters()), max_size=10))
ints = st.one_of(st.integers(-3, 300), st.integers(), st.integers(-(10**80), 10**80))
events = st.builds(
    TraceEvent,
    tick=ints,
    action=st.sampled_from(ACTIONS),
    thing=st.one_of(st.none(), ints),
    kind=strings,
    at=strings,
    arc=strings,
)
# Integer fields rewritten to digit runs around int()'s default limit of
# 4,300 digits, which the writer itself cannot print: (line, field, digits,
# negative).
long_ints = st.lists(
    st.tuples(st.integers(0, 15), st.sampled_from(["thing", "tick"]), st.integers(4290, 4310), st.booleans()),
    max_size=2,
)
_INT_FIELD = {
    "thing": re.compile(r'(?<="thing":)(?:null|-?[0-9]+)(?=,"tick":)'),
    "tick": re.compile(r'(?<="tick":)-?[0-9]+(?=\}$)'),
}


def writer_text(trace: list[TraceEvent], rewrites) -> str:
    lines = write_trace(trace).split("\n")
    for at, field, digits, negative in rewrites:
        if at < len(lines):
            number = "-" * negative + "9" * digits
            lines[at] = _INT_FIELD[field].sub(number, lines[at], count=1)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.lists(events, max_size=12), long_ints)
def test_reader_matches_reference_on_writer_output(trace, rewrites):
    text = writer_text(trace, rewrites)
    if not rewrites:
        assert read_trace(text) == trace == streamed(text)
    assert_same_as_reference(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(events, min_size=1, max_size=8), long_ints, st.randoms(use_true_random=False))
def test_reader_matches_reference_on_mutants(trace, rewrites, rnd):
    assert_same_as_reference(mutate(rnd, writer_text(trace, rewrites)))


# Records in the tvm model's own terms, so that some heads are watched and
# some occurrences complete; strings in any shape still come in.
TVM_ARCS = sorted([a.label for a in TVM.flows] + [t.label for t in TVM.triggers])
TVM_STAGES = sorted({e.at for name in GOLDEN_TRACES if name.startswith("tvm") for e in read_trace(golden_text(name))} - {None})
tvm_events = st.builds(
    TraceEvent,
    tick=st.one_of(st.integers(0, 300), ints),
    action=st.sampled_from(ACTIONS),
    thing=st.one_of(st.none(), st.integers(1, 3), ints),
    kind=strings,
    at=st.one_of(st.sampled_from(TVM_STAGES), strings),
    arc=st.one_of(st.sampled_from(TVM_ARCS), strings),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(tvm_events, max_size=30), long_ints)
def test_filtered_reader_matches_reference_on_writer_output(trace, rewrites):
    text = writer_text(trace, rewrites)
    if not rewrites:
        # Left out: each unwatched record whose line is in the writer's
        # shape; a line with an escape in it is read whole, as unfiltered.
        kept = [e for e in trace if WATCHED(e.action, e.at, e.arc) or "\\" in write_trace([e])]
        assert streamed(text, WATCHED) == kept
    assert_filtered_same_as_reference(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(tvm_events, min_size=1, max_size=12), long_ints, st.randoms(use_true_random=False))
def test_filtered_reader_matches_reference_on_mutants(trace, rewrites, rnd):
    assert_filtered_same_as_reference(mutate(rnd, writer_text(trace, rewrites)))


GOOD = '{"action":"move","arc":"23","at":"tvm/cash.receive","kind":"cash","thing":1,"tick":1}'
EDGE_LINES = {
    "tick-minus-zero": GOOD.replace('"tick":1', '"tick":-0'),
    "thing-minus-zero": GOOD.replace('"thing":1', '"thing":-0'),
    "tick-leading-zero": GOOD.replace('"tick":1', '"tick":01'),
    "thing-leading-zero": GOOD.replace('"thing":1', '"thing":01'),
    "tick-float": GOOD.replace('"tick":1', '"tick":1.0'),
    "tick-exponent": GOOD.replace('"tick":1', '"tick":1e0'),
    "tick-true": GOOD.replace('"tick":1', '"tick":true'),
    "thing-true": GOOD.replace('"thing":1', '"thing":true'),
    "tick-null": GOOD.replace('"tick":1', '"tick":null'),
    "tick-plus": GOOD.replace('"tick":1', '"tick":+1'),
    "tick-underscore": GOOD.replace('"tick":1', '"tick":1_0'),
    "tick-arabic-indic-digit": GOOD.replace('"tick":1', '"tick":٣'),
    "tick-trailing-arabic-indic-digit": GOOD.replace('"tick":1', '"tick":1٣'),
    "thing-string": GOOD.replace('"thing":1', '"thing":"1"'),
    "duplicate-tick": GOOD.replace('"tick":1}', '"tick":1,"tick":2}'),
    "duplicate-kind": GOOD.replace('"kind":"cash"', '"kind":"cash","kind":"coin"'),
    "duplicate-thing": GOOD.replace('"thing":1', '"thing":1,"thing":2'),
    "reordered-keys": '{"tick":1,"thing":1,"kind":"cash","at":"tvm/cash.receive","arc":"23","action":"move"}',
    "missing-kind": GOOD.replace('"kind":"cash",', ""),
    "unknown-action": GOOD.replace('"action":"move"', '"action":"Move"'),
    "escaped-string": GOOD.replace('"arc":"23"', '"arc":"2\\u0033"'),
    "thing-key-inside-a-string": GOOD.replace('"arc":"23"', '"arc":"a,\\"thing\\":1,\\"tick\\":2}"'),
    "thing-key-raw-inside-a-string": GOOD.replace('"arc":"23"', '"arc":"a,"thing":1,"tick":2}"'),
    "trailing-space": GOOD + " ",
    "trailing-tab": GOOD + "\t",
    "leading-space": " " + GOOD,
    "spaced-separators": GOOD.replace(",", ", "),
    "extra-brace": GOOD + "}",
    "cut-short": GOOD[:-1],
    "array": f"[{GOOD}]",
    "raw-control-character": GOOD.replace('"kind":"cash"', '"kind":"ca\x1fsh"'),
    "raw-line-separator": GOOD.replace('"kind":"cash"', '"kind":"ca\u2028sh"'),
    "raw-next-line": GOOD.replace('"kind":"cash"', '"kind":"ca\x85sh"'),
    "unterminated-string": GOOD[: GOOD.index('"cash"') + 3],
    "deep-nesting": "[" * 100_000,
    "long-tick": GOOD.replace('"tick":1', '"tick":' + "9" * 5000),
    "blank": "",
    "spaces": "   ",
    "form-feed": "\x0c",
}


@pytest.mark.parametrize("line", EDGE_LINES.values(), ids=EDGE_LINES.keys())
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("trailer", ["", "\n", "\n  \n\t"], ids=["none", "blank", "blanks"])
def test_reader_matches_reference_on_edge_lines(line, end, trailer):
    assert_same_as_reference(end.join([GOOD, line, GOOD]) + end + trailer)


# The edge lines with the head of a move along arc 3, which no event
# watches: a line that would be left out still gives its error.
UNWATCHED = GOOD.replace('"arc":"23"', '"arc":"3"')
UNWATCHED_EDGE_LINES = {name: line.replace('"arc":"23"', '"arc":"3"') for name, line in EDGE_LINES.items()}


@pytest.mark.parametrize("line", UNWATCHED_EDGE_LINES.values(), ids=UNWATCHED_EDGE_LINES.keys())
@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_filtered_reader_matches_reference_on_unwatched_edge_lines(line, end):
    assert not WATCHED("move", "tvm/cash.receive", "3") and WATCHED("move", "tvm/cash.receive", "23")
    assert_same_as_reference(end.join([GOOD, UNWATCHED, line, GOOD]) + end)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no integer string limit")
@pytest.mark.parametrize("field", ["tick", "thing"])
@pytest.mark.parametrize("digits", [301, 302, 600, 628, 629, 630, 639, 640, 641, 700, 4301])
def test_filtered_reader_rejects_an_over_limit_integer_on_an_unwatched_line(field, digits):
    # An integer longer than 301 digits takes its line to the full decoder,
    # which rejects one past the interpreter's limit (640 here, the least
    # nonzero limit).
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        line = UNWATCHED.replace(f'"{field}":1', f'"{field}":' + "9" * digits)
        text = "\n".join([GOOD, UNWATCHED, line, GOOD]) + "\n"
        assert_same_as_reference(text)
        got = outcome(filtered_verdict, text)
        if digits > 640:
            assert got == ("error", 3, "line 3: not valid JSON: number is out of range")
        else:
            assert got == reference_verdict(text)
    finally:
        sys.set_int_max_str_digits(limit)


# The reader checks its lines 256 at a time: in each block, a run of lines
# in the writer's shape by one match, and each other line by the decoder.
def block_lines(count: int) -> list[str]:
    """``count`` lines in the writer's shape, watched and unwatched heads
    taking turns, each with its own tick."""
    return [(GOOD if i % 2 else UNWATCHED).replace('"tick":1', f'"tick":{i}') for i in range(1, count + 1)]


def decoded_lines(monkeypatch) -> list[int]:
    """The number of each line the reader gives to the decoder."""
    numbers: list[int] = []
    decode_line = export._decode_line

    def spy(i, line):
        numbers.append(i)
        return decode_line(i, line)

    monkeypatch.setattr(export, "_decode_line", spy)
    return numbers


@pytest.mark.parametrize("bad", ["tick-true", "unknown-action", "cut-short", "escaped-string"])
@pytest.mark.parametrize(("at", "end"), [(1, "\n"), (256, "\n"), (257, "\n"), (600, "\n"), (600, "")],
                         ids=["first", "last-of-a-block", "first-of-a-block", "last", "last-without-a-line-end"])
def test_reader_matches_reference_on_a_bad_line_at_a_block_edge(monkeypatch, bad, at, end):
    lines = block_lines(600)
    lines[at - 1] = EDGE_LINES[bad]
    text = "\n".join(lines) + end
    assert_same_as_reference(text)
    decoded = decoded_lines(monkeypatch)
    got = outcome(streamed, text)
    if bad != "escaped-string":
        assert got[:2] == ("error", at)
    assert decoded == [at]
    decoded.clear()
    outcome(lambda text: streamed(text, WATCHED), text)
    assert decoded == [at]


def test_two_bad_tails_that_join_into_a_good_one_are_each_an_error(monkeypatch):
    head = GOOD[: GOOD.index(',"thing":')]
    first, second = head + ',"thing":1,"tick":', head + ',"thing":0}'
    # Their tails, '1,"tick":' and '0}', run together are a tail in the writer's shape.
    assert re.compile(export._TAIL_TEXT).fullmatch(first.partition(',"thing":')[2] + second.partition(',"thing":')[2])
    lines = block_lines(300)
    lines[10:12] = [first, second]
    text = "\n".join(lines) + "\n"
    assert_same_as_reference(text)
    decoded = decoded_lines(monkeypatch)
    assert outcome(streamed, text)[:2] == ("error", 11)
    assert decoded == [11]


def test_a_nul_inside_a_line_does_not_split_its_tail(monkeypatch):
    lines = block_lines(300)
    lines[40] = GOOD + '\x001,"tick":2}'  # two tails in the writer's shape, joined by a NUL
    text = "\n".join(lines) + "\n"
    assert_same_as_reference(text)
    decoded = decoded_lines(monkeypatch)
    assert outcome(streamed, text)[:2] == ("error", 41)
    assert decoded == [41]


@pytest.mark.parametrize("head", [GOOD, UNWATCHED], ids=["watched", "unwatched"])
@pytest.mark.parametrize("digits", [301, 302])
def test_only_a_line_with_a_longer_integer_reaches_the_decoder(monkeypatch, head, digits):
    lines = block_lines(300)
    lines[100] = head.replace('"thing":1', '"thing":' + "9" * digits)
    text = "\n".join(lines) + "\n"
    assert_same_as_reference(text)
    decoded = decoded_lines(monkeypatch)
    assert streamed(text) == trace_reference.read_trace(text)
    assert watched_only(streamed(text, WATCHED)) == watched_only(trace_reference.read_trace(text))
    assert decoded == ([101, 101] if digits > 301 else [])


@pytest.mark.parametrize("digits", [301, 302])
def test_an_unwatched_line_is_left_out_only_in_the_writers_shape(monkeypatch, digits):
    # Line 11's escaped arc takes it to the decoder, whole; line 21's head
    # is unwatched, and a thing longer than 301 digits takes its line out
    # of the writer's shape, to the decoder.
    lines = block_lines(300)
    lines[10] = EDGE_LINES["escaped-string"].replace('"tick":1', '"tick":11')
    lines[20] = UNWATCHED.replace('"thing":1', '"thing":' + "9" * digits).replace('"tick":1', '"tick":21')
    text = "\n".join(lines) + "\n"
    assert_same_as_reference(text)
    decoded = decoded_lines(monkeypatch)
    records = streamed(text, WATCHED)
    long_ones = [e.tick for e in records if e.thing == int("9" * digits)]
    if digits > 301:
        assert len(records) == 150 and long_ones == [21] and decoded == [11, 21]
    else:
        assert len(records) == 149 and long_ones == [] and decoded == [11]


def test_lines_off_the_writers_shape_do_not_each_start_a_block_check(monkeypatch):
    # After a line that ends a run, the lines whose heads are off the
    # writer's shape go straight to the decoder: one tail match per block.
    lines = [json.dumps(dict(reversed(json.loads(line).items())), separators=(",", ":")) for line in block_lines(600)]
    text = "\n".join(lines) + "\n"
    matches = []
    tails = export._TAILS

    class Spy:
        def match(self, text):
            matches.append(text)
            return tails.match(text)

    assert_same_as_reference(text)
    monkeypatch.setattr(export, "_TAILS", Spy())
    assert streamed(text) == trace_reference.read_trace(text)
    assert matches == ["\x00"] * 3  # an empty run at the start of each block


def tiled_corpus_trace(tiles: int = 40) -> str:
    """The golden traces back to back, ``tiles`` times over, each copy's
    ticks and thing ids shifted past the last."""
    goldens = [trace_reference.read_trace(golden_text(name)) for name in GOLDEN_TRACES]
    out: list[TraceEvent] = []
    for k in range(tiles):
        for n, trace in enumerate(goldens):
            shift = (k * len(goldens) + n) * 100_000
            out.extend(
                e._replace(tick=e.tick + shift, thing=None if e.thing is None else e.thing + shift) for e in trace
            )
    return write_trace(out)


def test_writer_output_never_reaches_the_fallback_decoder(monkeypatch):
    texts = [golden_text(name) for name in GOLDEN_TRACES] + [tiled_corpus_trace()]
    expected = [trace_reference.read_trace(text) for text in texts]
    calls = []

    def fallback_decoder(line: str) -> object:
        calls.append(line)
        raise AssertionError(f"a line in the writer's shape reached the fallback: {line!r}")

    monkeypatch.setattr(jsonl, "decode", fallback_decoder)
    traces = [read_trace(text) for text in texts]
    # Lines that keep their line end, as a file object gives them.
    from_lines = [read_trace(io.StringIO(text)) for text in texts]
    from_files = [streamed(text) for text in texts]
    assert calls == []
    assert traces == expected and from_lines == expected and from_files == expected
    # Records share their strings: one object per distinct value.
    strings = [s for event in traces[-1] for s in event[3:] if s is not None]
    assert len({id(s) for s in strings}) == len(set(strings))


@pytest.mark.parametrize("bad_at", [None, 2], ids=["good", "bad-line-first"])
def test_lines_read_before_a_failed_read_are_read_first(tmp_path, bad_at):
    # The byte that is not UTF-8 is near the end of the first block, where
    # the file object fails to decode it after giving the lines before it.
    lines = block_lines(250)
    if bad_at is not None:
        lines[bad_at - 1] = EDGE_LINES["tick-true"]
    path = tmp_path / "trace.jsonl"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8") + b"\xff\n")
    given: list[str] = []
    with open(path, "r", encoding="utf-8") as handle, pytest.raises(UnicodeDecodeError):
        given.extend(handle)
    expected = outcome(trace_reference.read_trace, given)
    if bad_at is None:
        expected.append("not UTF-8")
    got: list = []
    with open(path, "r", encoding="utf-8") as handle:
        try:
            got.extend(trace_records(handle))
        except TraceParseError as exc:
            got = ("error", exc.line_no, str(exc))
        except UnicodeDecodeError:
            got.append("not UTF-8")
    assert got == expected


def test_writer_output_is_read_a_block_at_a_time(monkeypatch):
    texts = [golden_text(name) for name in GOLDEN_TRACES] + [tiled_corpus_trace()]
    decoded = decoded_lines(monkeypatch)
    for text in texts:
        expected = trace_reference.read_trace(text)
        assert streamed(text) == expected and streamed(text, WATCHED) == watched_only(expected)
        assert decoded == []
        # Split from the text, the blank line after the last line end goes
        # to the decoder, and no other line does.
        assert read_trace(text) == expected
        assert decoded == [text.count("\n") + 1]
        decoded.clear()


def test_a_sim_trace_with_a_non_ascii_machine_name_decodes_only_its_escaped_lines(monkeypatch, tmp_path):
    # The writer escapes 'í' in each stage of the renamed machine, so only
    # the lines at those stages are off the writer's shape.
    source = (CORPUS / "tvm.fm").read_text(encoding="utf-8")
    source = source.replace("machine ticket:", "machine tícket:").replace("/ticket.", "/tícket.")
    model_path, trace_path = tmp_path / "tvm.fm", tmp_path / "trace.jsonl"
    model_path.write_text(source, encoding="utf-8")
    argv = ["sim", str(model_path), "--scenario", str(CORPUS / "tvm_exact.fms"), "--trace", str(trace_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    text = trace_path.read_text(encoding="utf-8")
    escaped = [i for i, line in enumerate(text.splitlines(), 1) if "\\u00ed" in line]
    assert escaped and all("\\" not in line for line in text.splitlines() if "\\u00ed" not in line)
    expected = trace_reference.read_trace(text)
    assert "tvm/tícket.create" in {e.at for e in expected}
    decoded = decoded_lines(monkeypatch)
    assert streamed(text) == expected
    assert decoded == escaped


@pytest.mark.parametrize("enabled", [True, False], ids=["collecting", "paused"])
def test_reader_leaves_the_collector_as_it_found_it(enabled):
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert read_trace(GOOD + "\n")
        assert gc.isenabled() is enabled
        with pytest.raises(TraceParseError):
            read_trace(GOOD + "\n" + EDGE_LINES["tick-true"] + "\n")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()

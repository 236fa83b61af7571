"""The trace reader against its reference (``trace_reference``, the reader
before the fast path): the same records, or the same TraceParseError with
the same line number and message, on writer output, on mutants of it and on
fixed edge lines; and the writer's own output never reaches the fallback
decoder."""
from __future__ import annotations

import gc
import io
import pathlib
import re

import pytest
import trace_reference
from conftest import golden_text
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_fuzz import mutate

from fmkit import jsonl
from fmkit.export import TraceParseError, read_trace, write_trace
from fmkit.simulate import TraceEvent

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_TRACES = sorted(path.stem for path in GOLDEN.glob("*.jsonl"))
ACTIONS = ["spawn", "move", "consume", "trigger-fired", "blocked", "quiescent"]


def outcome(read, text):
    try:
        return read(text)
    except TraceParseError as exc:
        return ("error", exc.line_no, str(exc))


def assert_same_as_reference(text: str) -> None:
    expected = outcome(trace_reference.read_trace, text)
    assert outcome(read_trace, text) == expected
    # Lines from a file keep their "\n", so none is in the writer's shape.
    assert outcome(read_trace, io.StringIO(text)) == outcome(trace_reference.read_trace, io.StringIO(text))


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
        assert read_trace(text) == trace
    assert_same_as_reference(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(events, min_size=1, max_size=8), long_ints, st.randoms(use_true_random=False))
def test_reader_matches_reference_on_mutants(trace, rewrites, rnd):
    assert_same_as_reference(mutate(rnd, writer_text(trace, rewrites)))


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
    assert calls == []
    assert traces == expected
    # Records share their strings: one object per distinct value.
    strings = [s for event in traces[-1] for s in event[3:] if s is not None]
    assert len({id(s) for s in strings}) == len(set(strings))


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

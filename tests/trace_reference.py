"""Reference trace reader: ``fmkit.export.read_trace`` as it was before it
had a fast path for the writer's line shape.

Every line is scanned as one JSON value from its first character; a line
the scan does not consume whole is skipped when blank and otherwise goes
through the full decoder, so every error message is the decoder's.  The
one change from the original is the bugfix both readers share: an integer
longer than ``sys.get_int_max_str_digits``, on which the decoder raises a
plain ValueError, is the error ``not valid JSON: number is out of range``
instead of an escaping ValueError.
"""
from __future__ import annotations

import json
from typing import Iterable

from fmkit import jsonl
from fmkit.export import TraceParseError
from fmkit.simulate import Trace, TraceEvent

_ACTIONS = {"spawn", "move", "consume", "trigger-fired", "blocked", "quiescent"}

_DECODER = json.JSONDecoder()
_decode = _DECODER.decode
_scan = _DECODER.scan_once


def read_trace(text: str | Iterable[str]) -> Trace:
    lines = jsonl.split_lines(text) if isinstance(text, str) else list(text)
    trace: Trace = []
    append = trace.append
    for i, line in enumerate(lines, start=1):
        try:
            obj, end = _scan(line, 0)
        except (StopIteration, ValueError, RecursionError):  # JSONDecodeError is a ValueError
            end = -1
        if end != len(line):
            if not line.strip():
                continue
            try:
                obj = _decode(line)
            except json.JSONDecodeError as exc:
                raise TraceParseError(i, f"not valid JSON: {exc.msg}") from exc
            except RecursionError:
                raise TraceParseError(i, "not valid JSON: nesting too deep") from None
            except ValueError:
                raise TraceParseError(i, "not valid JSON: number is out of range") from None
        if type(obj) is not dict:
            raise TraceParseError(i, "expected a JSON object")
        try:
            tick, action, thing = obj["tick"], obj["action"], obj["thing"]
            kind, at, arc = obj["kind"], obj["at"], obj["arc"]
        except KeyError as exc:
            raise TraceParseError(i, f"missing '{exc.args[0]}' field") from None
        if type(tick) is not int:
            raise TraceParseError(i, "'tick' must be an integer")
        if type(action) is not str or action not in _ACTIONS:
            raise TraceParseError(i, f"unknown action '{action}'")
        if thing is not None and type(thing) is not int:
            raise TraceParseError(i, "'thing' must be an integer or null")
        if kind is not None and type(kind) is not str:
            raise TraceParseError(i, "'kind' must be a string or null")
        if at is not None and type(at) is not str:
            raise TraceParseError(i, "'at' must be a string or null")
        if arc is not None and type(arc) is not str:
            raise TraceParseError(i, "'arc' must be a string or null")
        append(TraceEvent(tick, action, thing, kind, at, arc))
    return trace

"""Compact JSON with sorted keys: the one text form of every record fmkit
writes (trace lines, ledger lines, verdicts and reports), and the line
splitting and line decoding its JSON-lines readers share."""
from __future__ import annotations

import json
from typing import Iterable

# json.dumps with keyword arguments builds a new encoder on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_DECODE = json.JSONDecoder().decode


class JSONLineError(ValueError):
    """Text that is not one JSON value; the message reads
    ``not valid JSON: <reason>``."""


def dumps(obj: object) -> str:
    return _ENCODER.encode(obj)


def lines(objects: Iterable[object]) -> str:
    """One compact JSON object per line."""
    encode = _ENCODER.encode
    return "".join(encode(obj) + "\n" for obj in objects)


def split_lines(text: str) -> list[str]:
    """Split at \\n, \\r\\n and \\r only.  str.splitlines also breaks at
    U+0085, U+2028, U+2029, \\x1c-\\x1e, \\v and \\f: the first three may
    stand raw inside a JSON string, and a raw control character is a
    decoder error that belongs to the line holding it.  A trailing line
    end leaves one empty last line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def decode(text: str) -> object:
    """The one JSON value of ``text`` (surrounding whitespace allowed).

    Every way the decoder fails is one JSONLineError: a syntax error keeps
    the decoder's message, nesting past the recursion limit is ``nesting
    too deep``, and an integer longer than ``sys.get_int_max_str_digits``
    (a plain ValueError from int()) is ``number is out of range``."""
    try:
        return _DECODE(text)
    except json.JSONDecodeError as exc:
        reason = exc.msg
    except RecursionError:
        reason = "nesting too deep"
    except ValueError:
        reason = "number is out of range"
    raise JSONLineError(f"not valid JSON: {reason}")

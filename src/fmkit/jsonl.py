"""Compact JSON with sorted keys: the one text form of every record fmkit
writes (trace lines, ledger lines, verdicts and reports), and the line
splitting its JSON-lines readers share."""
from __future__ import annotations

import json
from typing import Iterable

# json.dumps with keyword arguments builds a new encoder on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


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

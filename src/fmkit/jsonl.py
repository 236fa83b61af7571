"""Compact JSON with sorted keys: the one text form of every record fmkit
writes (trace lines, ledger lines, verdicts and reports)."""
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

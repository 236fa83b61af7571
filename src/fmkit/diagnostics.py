"""Source spans and diagnostics shared by the parser, validator, and CLI,
and the two bases of the records that are not tuples."""
from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import NamedTuple

_set = object.__setattr__  # how a frozen record sets its fields


class Record:
    """A record with ``__slots__``: equal only to a record of its own class
    whose ``_key`` (its ``_fields``, unless it defines one) is equal, and
    printed with ``_fields``.  Slots not named there (source spans) stay out
    of equality and repr.  A plain record is mutable and unhashable; see
    ``FrozenRecord``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if cls._fields and "_key" not in cls.__dict__:  # an attrgetter is no descriptor: called as self._key(self)
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        return self._key(self) == other._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __getstate__(self) -> list:
        return [getattr(self, name) for name in self.__slots__]

    def __setstate__(self, state: list) -> None:
        for name, value in zip(self.__slots__, state):
            _set(self, name, value)


class FrozenRecord(Record):
    """A record whose fields are set once, by ``__init__`` through
    ``object.__setattr__``, and hashed with its equality."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class _Span(NamedTuple):
    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int


class SourceSpan(_Span):
    """A 1-based [start, end] region inside one source file."""

    __slots__ = ()

    def __new__(cls, file: str, start_line: int, start_col: int, end_line: int, end_col: int) -> SourceSpan:
        if start_line > end_line or (start_line == end_line and start_col > end_col):
            raise ValueError("span start must not follow span end")
        return tuple.__new__(cls, (file, start_line, start_col, end_line, end_col))

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


class Diagnostic(NamedTuple):
    """One reportable finding, rendered as ``file:line:col: severity[code]: message``."""

    severity: Severity
    code: str
    message: str
    span: SourceSpan

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def render(self) -> str:
        return f"{self.span}: {self.severity.value}[{self.code}]: {self.message}"

    def to_json(self) -> dict:
        return {
            "severity": self.severity.value,
            "code": self.code,
            "message": self.message,
            "file": self.span.file,
            "line": self.span.start_line,
            "col": self.span.start_col,
        }


def error(code: str, message: str, span: SourceSpan) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, span)


def warning(code: str, message: str, span: SourceSpan) -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, message, span)

"""Diagram export (DOT) and trace serialization.

Node names follow ``sphere.machine.stage`` and all node/edge lines are
emitted sorted, so output is byte-stable across runs and platforms.
"""
from __future__ import annotations

import gc
import re
import sys
from typing import TYPE_CHECKING, Iterable, Iterator

from . import jsonl
from .model import Model, Sphere
from .simulate import Trace, TraceEvent

if TYPE_CHECKING:
    from .behavior import BehaviorAutomaton


def _q(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def model_to_dot(model: Model, show_implicit: bool = True) -> str:
    """One nested cluster per sphere, one node per (machine, stage), solid
    flow edges, dashed trigger edges.  With show_implicit=False the stages
    inserted by canonicalization are elided and each chain collapses back to
    its authored shorthand edge."""
    lines: list[str] = ["digraph model {", "  rankdir=LR;", "  node [shape=box];"]

    def emit_sphere(sphere: Sphere, prefix: tuple[str, ...], depth: int) -> None:
        pad = "  " * (depth + 1)
        path = prefix + (sphere.name,)
        lines.append(f"{pad}subgraph {_q('cluster_' + '.'.join(path))} {{")
        lines.append(f"{pad}  label={_q(sphere.name)};")
        node_lines: list[str] = []
        for machine in sphere.machines:
            stages = machine.stages() if show_implicit else machine.declared
            for stage in stages:
                node_id = ".".join(path) + f".{machine.name}.{stage.value}"
                attrs = [f"label={_q(machine.name + '.' + stage.value)}"]
                if stage in machine.implicit:
                    attrs.append("style=dashed")
                node_lines.append(f"{pad}  {_q(node_id)} [{', '.join(attrs)}];")
        lines.extend(sorted(node_lines))
        for child in sphere.children:
            emit_sphere(child, path, depth + 1)
        lines.append(f"{pad}}}")

    for root in model.roots:
        emit_sphere(root, (), 0)

    def node_of(ep) -> str:
        return ".".join(ep.path) + "." + ep.stage.value

    edge_lines: list[str] = []
    if show_implicit:
        for arc in model.flows:
            attrs = []
            if not arc.label.startswith("@"):
                attrs.append(f"label={_q(arc.label)}")
            if arc.is_implicit:
                attrs.append("color=gray")
            suffix = f" [{', '.join(attrs)}]" if attrs else ""
            edge_lines.append(f"  {_q(node_of(arc.src))} -> {_q(node_of(arc.dst))}{suffix};")
    else:
        for arc in model.flows:
            if not arc.is_chain_head:
                continue
            src = arc.authored_src or arc.src
            dst = arc.authored_dst or arc.dst
            suffix = f" [label={_q(arc.label)}]" if not arc.label.startswith("@") else ""
            edge_lines.append(f"  {_q(node_of(src))} -> {_q(node_of(dst))}{suffix};")
    for trig in model.triggers:
        attrs = ["style=dashed"]
        if not trig.label.startswith("@"):
            attrs.append(f"label={_q(trig.label)}")
        edge_lines.append(f"  {_q(node_of(trig.src))} -> {_q(node_of(trig.dst))} [{', '.join(attrs)}];")
    lines.extend(sorted(edge_lines))
    lines.append("}")
    return "\n".join(lines) + "\n"


def behavior_to_dot(automaton: BehaviorAutomaton) -> str:
    """States as nodes (accepting doubled), occurrence-labeled edges,
    interrupt-watcher edges dashed."""
    lines = ["digraph behavior {", "  rankdir=LR;"]
    node_lines = []
    for state in range(automaton.n_states):
        shape = "doublecircle" if state in automaton.accepting else "circle"
        node_lines.append(f"  {_q(f's{state}')} [shape={shape}];")
    lines.extend(sorted(node_lines))
    edge_lines = []
    for (src, label), dst in automaton.transitions.items():
        attrs = [f"label={_q(label)}"]
        if (src, label) in automaton.watcher_edges:
            attrs.append("style=dashed")
        edge_lines.append(f"  {_q(f's{src}')} -> {_q(f's{dst}')} [{', '.join(attrs)}];")
    lines.extend(sorted(edge_lines))
    lines.append("}")
    return "\n".join(lines) + "\n"


# Trace files ----------------------------------------------------------------

_ACTIONS = {"spawn", "move", "consume", "trigger-fired", "blocked", "quiescent"}


class TraceParseError(Exception):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message

    def __reduce__(self):
        return type(self), (self.line_no, self.message)


class _Quoted(dict):
    """JSON text of each distinct string (and of None), encoded on first use."""

    def __missing__(self, value: str | None) -> str:
        text = self[value] = jsonl.dumps(value)
        return text


def trace_lines(trace: Iterable[TraceEvent]) -> Iterator[str]:
    """The lines of write_trace, one per record, each ending in a newline.

    The six keys are fixed, so each line comes from one template with the
    keys in sorted order (action, arc, at, kind, thing, tick).  Strings go
    through the record encoder (jsonl) once each, so the text is exactly
    what jsonl.lines gives for the records' to_json() dicts."""
    quoted = _Quoted()
    for tick, action, thing, kind, at, arc in trace:
        thing_text = "null" if thing is None else thing
        yield (
            f'{{"action":{quoted[action]},"arc":{quoted[arc]},"at":{quoted[at]},'
            f'"kind":{quoted[kind]},"thing":{thing_text},"tick":{tick}}}\n'
        )


def write_trace(trace: Trace) -> str:
    """One compact JSON object per line; key order is fixed by sorting."""
    return "".join(trace_lines(trace))


# The writer's line shape, split at the first ',"thing":'.  The head holds
# the action and the three string fields; a string holding no '"', no '\'
# and no control character decodes to the text between its quotes.  The
# tail holds two JSON integers, written with [0-9] because \d also matches
# digits outside ASCII.
_STRING = r'(null|"[^"\\\x00-\x1f]*")'
_ACTION = '("(?:' + "|".join(sorted(_ACTIONS)) + ')")'  # letters and '-' only
_HEAD = re.compile(rf'\{{"action":{_ACTION},"arc":{_STRING},"at":{_STRING},"kind":{_STRING}')
_TAIL = re.compile(r'(null|-?(?:0|[1-9][0-9]*)),"tick":(-?(?:0|[1-9][0-9]*))\}')


def _head_fields(head: str) -> tuple[str, str | None, str | None, str | None] | None:
    """(action, kind, at, arc) of a head in the writer's shape, strings
    interned, or None when the head is in any other shape."""
    match = _HEAD.fullmatch(head)
    if match is None:
        return None
    action, arc, at, kind = (None if text == "null" else sys.intern(text[1:-1]) for text in match.groups())
    return action, kind, at, arc


def _decode_line(i: int, line: str) -> TraceEvent | None:
    """The full decoder's reading of line ``i``: None when it is blank,
    otherwise its record or the TraceParseError that names what is wrong.
    Field types are checked exactly (``bool`` is not an ``int`` here):
    ``tick`` is an integer, ``thing`` an integer or null, and ``kind``,
    ``at`` and ``arc`` are strings or null."""
    if not line.strip():
        return None
    try:
        obj = jsonl.decode(line)
    except jsonl.JSONLineError as exc:
        raise TraceParseError(i, str(exc)) from None
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
    return TraceEvent(tick, action, thing, kind, at, arc)


def read_trace(text: str | Iterable[str]) -> Trace:
    """Inverse of write_trace; raises TraceParseError naming the bad line.

    One fast path reads the writer's own line shape: each distinct head
    (the text before ``,"thing":``) is checked by one pattern once per
    call, so records with the same head share its interned strings, and
    the two integers after it by another.  Every other line (blank lines,
    escapes, whitespace, other key orders, ``true`` or ``1.0`` as a tick,
    integers past ``sys.get_int_max_str_digits``) goes through the full
    decoder, which gives the same record, or the same error with the same
    line number, as it would for a line in the writer's shape."""
    lines = jsonl.split_lines(text) if isinstance(text, str) else list(text)
    # The cyclic collector never untracks a tuple subclass, so each
    # collection during the read would walk every record read so far.
    # Records of strings, integers and None form no cycle: pause it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _records(lines)
    finally:
        if collecting:
            gc.enable()


def _records(lines: Iterable[str]) -> Trace:
    trace: Trace = []
    append = trace.append
    new = tuple.__new__
    heads: dict[str, tuple[str, str | None, str | None, str | None]] = {}
    for i, line in enumerate(lines, start=1):
        head, _, tail = line.partition(',"thing":')
        fields = heads.get(head)
        if fields is None:
            fields = _head_fields(head)
            if fields is not None:
                heads[head] = fields
        match = _TAIL.fullmatch(tail) if fields is not None else None
        if match is not None:
            thing, tick = match.groups()
            action, kind, at, arc = fields
            try:
                append(new(TraceEvent, (int(tick), action, None if thing == "null" else int(thing), kind, at, arc)))
                continue
            except ValueError:  # past sys.get_int_max_str_digits
                pass
        event = _decode_line(i, line)
        if event is not None:
            append(event)
    return trace


# DOT mini-grammar ------------------------------------------------------------

# One alternative per token class, each a single capturing group, so
# ``match.lastindex`` names the class (None at the end: only blanks were
# left); blanks before a token are skipped by the same match.  A backslash
# escapes any character in a quoted string; an ID starts with a ``\w``
# character (``str.isalnum()`` or '_') and runs on through '.'.
_DOT_TOKEN = re.compile(r"""[ \t\r\n]*(?:
    "((?:[^"\\]|\\.)*)"         # 1 closed quoted string
  | (->|[{}\[\];,=])            # 2 symbol
  | (\w[\w.]*)                  # 3 ID
  | (")                         # 4 a quote that never closes
  | ([^ \t\r\n])                # 5 anything else
  | \Z
)""", re.VERBOSE | re.DOTALL)
_DOT_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_DOT_SYMBOLS = {s: (s, s) for s in ("->", "{", "}", "[", "]", ";", ",", "=")}


def dot_check(text: str) -> list[str]:
    """Validate DOT output against a small structural grammar; returns a
    list of problems (empty when the document parses).  Subgraphs nested
    past the parser's MAX_NESTING, deeper than ``model_to_dot`` draws any
    model that loads, are one problem on their own."""
    from .parser import MAX_NESTING

    problems: list[str] = []
    tokens = _dot_tokenize(text, problems)
    if problems:
        return problems
    tokens.append(("EOF", ""))  # nothing consumes it, so no index runs past

    def expected(type_: str, pos: int) -> None:
        found_type, found_text = tokens[pos]
        problems.append(f"expected {type_}, found {found_text or found_type}")

    def parse_attrs(pos: int) -> int:  # [ ID [= ID] [,] ... ] from the '['
        pos += 1
        while True:
            type_ = tokens[pos][0]
            if type_ == "]":
                return pos + 1
            if type_ != "ID":
                expected("]" if type_ == "EOF" else "ID", pos)
                return pos
            pos += 1
            if tokens[pos][0] == "=":
                pos += 1
                if tokens[pos][0] != "ID":
                    problems.append("expected a value after '='")
                    return pos
                pos += 1
            if tokens[pos][0] == ",":
                pos += 1

    def parse_body(pos: int, depth: int) -> int:  # statements up to a '}' or EOF
        while True:
            type_, value = tokens[pos]
            if type_ == "}" or type_ == "EOF":
                return pos
            if type_ != "ID":
                expected("ID", pos)
                return pos
            pos += 1
            if value == "subgraph":
                if tokens[pos][0] == "ID":
                    pos += 1
                pos = parse_block(pos, depth + 1)
                continue
            type_ = tokens[pos][0]
            if type_ == "=":  # graph-level attribute like rankdir=LR
                pos += 1
                if tokens[pos][0] != "ID":
                    problems.append("expected a value after '='")
                    return pos
                pos += 1
            else:
                while type_ == "->":
                    pos += 1
                    if tokens[pos][0] != "ID":
                        expected("ID", pos)
                        return pos
                    pos += 1
                    type_ = tokens[pos][0]
                if type_ == "[":
                    pos = parse_attrs(pos)
            if tokens[pos][0] != ";":
                expected(";", pos)
                return pos
            pos += 1

    def parse_block(pos: int, depth: int) -> int:
        """``{ body }`` from pos, ``depth`` subgraphs in; a problem in the
        body does not stop it."""
        if tokens[pos][0] != "{":
            expected("{", pos)
            return pos
        if depth > MAX_NESTING:
            raise RecursionError  # caught below: this one problem replaces any others
        pos = parse_body(pos + 1, depth)
        if tokens[pos][0] != "}":
            expected("}", pos)
            return pos
        return pos + 1

    if tokens[0] != ("ID", "digraph"):
        problems.append("document must start with 'digraph'")
        return problems
    pos = 2 if tokens[1][0] == "ID" else 1
    try:
        pos = parse_block(pos, 0)
    except RecursionError:
        return [f"subgraphs nest deeper than {MAX_NESTING} levels"]
    if not problems and tokens[pos][0] != "EOF":
        problems.append("trailing content after closing brace")
    return problems


def _dot_tokenize(text: str, problems: list[str]) -> list[tuple[str, str]]:
    """The (type, text) tokens of text; at the first bad character or
    unclosed quote, a problem and the tokens before it."""
    tokens: list[tuple[str, str]] = []
    add = tokens.append
    symbols = _DOT_SYMBOLS
    for m in _DOT_TOKEN.finditer(text):
        kind = m.lastindex
        if kind == 2:
            add(symbols[m[2]])
        elif kind == 1:
            body = m[1]
            add(("ID", _DOT_ESCAPE.sub(r"\1", body) if "\\" in body else body))
        elif kind == 3:
            add(("ID", m[3]))
        elif kind == 4:
            problems.append("unterminated quoted string")
            break
        elif kind == 5:
            problems.append(f"unexpected character {m[5]!r} in DOT output")
            break
        else:
            break
    return tokens

"""Diagram export (DOT) and trace serialization.

Node names follow ``sphere.machine.stage`` and all node/edge lines are
emitted sorted, so output is byte-stable across runs and platforms.
"""
from __future__ import annotations

import re
import sys
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from . import jsonl
from .model import Endpoint, Model, Sphere, Stage
from .simulate import Trace, TraceEvent

if TYPE_CHECKING:
    from .behavior import BehaviorAutomaton


def _escape(text: str) -> str:
    """``text`` as it goes between the quotes of a DOT string.  It escapes
    character by character, so the escape of a joined text is the join of
    the escapes."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _q(text: str) -> str:
    return '"' + _escape(text) + '"'


# Each stage's text, read without the Enum ``value`` descriptor, a Python
# call per read.
_STAGE_TEXT = {stage: stage.value for stage in Stage}


class _NodeNames(dict):
    """endpoint -> its quoted node name ``"sphere.machine.stage"``, each
    built on first use."""

    def __missing__(self, ep: Endpoint) -> str:
        name = self[ep] = f'"{_escape(".".join(ep.path))}.{_STAGE_TEXT[ep.stage]}"'
        return name


def model_to_dot(model: Model, show_implicit: bool = True) -> str:
    """One nested cluster per sphere, one node per (machine, stage), solid
    flow edges, dashed trigger edges.  With show_implicit=False the stages
    inserted by canonicalization are elided and each chain collapses back to
    its authored shorthand edge."""
    lines: list[str] = ["digraph model {", "  rankdir=LR;", "  node [shape=box];"]

    for root in model.roots:
        _dot_sphere(lines, root, (root.name,), 1, show_implicit)

    names = _NodeNames()
    edge_lines: list[str] = []
    for arc in model.flows:
        # A chain head (index 0) is never implicit: without implicit
        # stages, no edge is gray.
        if show_implicit:
            dst = arc.dst
        elif arc.index:
            continue
        else:
            dst = arc.authored_dst or arc.dst
        if arc.label.startswith("@"):
            attrs = " [color=gray]" if arc.index else ""
        else:
            attrs = f" [label={_q(arc.label)}, color=gray]" if arc.index else f" [label={_q(arc.label)}]"
        edge_lines.append(f"  {names[arc.src]} -> {names[dst]}{attrs};")
    for trig in model.triggers:
        label = "" if trig.label.startswith("@") else f", label={_q(trig.label)}"
        edge_lines.append(f"  {names[trig.src]} -> {names[trig.dst]} [style=dashed{label}];")
    lines.extend(sorted(edge_lines))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_sphere(lines: list[str], sphere: Sphere, path: tuple[str, ...], depth: int, show_implicit: bool) -> None:
    pad = "  " * depth
    prefix = ".".join(path)
    lines.append(f"{pad}subgraph {_q('cluster_' + prefix)} {{")
    lines.append(f"{pad}  label={_q(sphere.name)};")
    node_lines: list[str] = []
    stage_text = _STAGE_TEXT
    for machine in sphere.machines:
        node = _escape(f"{prefix}.{machine.name}.")  # stage names need no escape
        label = _escape(machine.name + ".")
        implicit = machine.implicit
        for stage in machine.stages() if show_implicit else machine.declared:
            text = stage_text[stage]
            style = ", style=dashed" if stage in implicit else ""
            node_lines.append(f'{pad}  "{node}{text}" [label="{label}{text}"{style}];')
    lines.extend(sorted(node_lines))
    for child in sphere.children:
        _dot_sphere(lines, child, path + (child.name,), depth + 1, show_implicit)
    lines.append(f"{pad}}}")


def behavior_to_dot(automaton: BehaviorAutomaton) -> str:
    """States as nodes (accepting doubled), occurrence-labeled edges,
    interrupt-watcher edges dashed."""
    lines = ["digraph behavior {", "  rankdir=LR;"]
    accepting = automaton.accepting
    lines.extend(sorted(
        f'  "s{state}" [shape={"doublecircle" if state in accepting else "circle"}];'
        for state in range(automaton.n_states)
    ))
    transitions = automaton.transitions
    labels = {label: _q(label) for _, label in transitions}
    watcher_edges = automaton.watcher_edges
    lines.extend(sorted(
        f'  "s{src}" -> "s{dst}" [label={labels[label]}{", style=dashed" if (src, label) in watcher_edges else ""}];'
        for (src, label), dst in transitions.items()
    ))
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


def trace_lines(trace: Iterable[TraceEvent]) -> Iterator[str]:
    """The lines of write_trace, one per record, each ending in a newline.

    The six keys are fixed, so each line comes from one template with the
    keys in sorted order (action, arc, at, kind, thing, tick).  Strings go
    through the record encoder (jsonl) once each, so the text is exactly
    what jsonl.lines gives for the records' to_json() dicts."""
    quoted = jsonl.Quoted()
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
# tail holds two JSON integers of at most 301 digits (so int() takes them
# under any sys.get_int_max_str_digits; [0-9], as \d also matches digits
# outside ASCII) and the line end a given line may keep.  A line that misses
# goes to the decoder whole, so its error is the one it always was.
_STRING = r'(null|"[^"\\\x00-\x1f]*")'
_ACTION = '("(?:' + "|".join(sorted(_ACTIONS)) + ')")'  # letters and '-' only
_HEAD = re.compile(rf'\{{"action":{_ACTION},"arc":{_STRING},"at":{_STRING},"kind":{_STRING}')
_INT = "-?(?:0|[1-9][0-9]{0,300})"
_TAIL_TEXT = rf'(?:null|{_INT}),"tick":{_INT}\}}\r?\n?'

# The tails of a run of lines, each followed by a NUL, checked by one
# match: the NULs it passes count the good tails.  The NUL keeps two bad
# tails from joining into a good one (a tail holding a NUL of its own ends
# the run).  A possessive repeat keeps no backtracking state per tail;
# Python 3.10 has none, and its plain repeat holds about 0.7 KB per tail
# until the match returns.
_BLOCK = 256
_TAILS = re.compile(rf"(?:{_TAIL_TEXT}\x00)*" + ("+" if sys.version_info >= (3, 11) else ""))


class _Heads(dict):
    """head -> (action, kind, at, arc) of each head in the writer's shape
    met in one read, or () for a head that ``watched`` calls false; a head
    in any other shape is None and is not kept.  Its strings go through
    one table, so every record shares one object per distinct string."""

    def __init__(self, watched: Callable[..., object] | None) -> None:
        self.watched = watched
        self.strings: dict[str, str] = {}

    def __missing__(self, head: str) -> tuple[str, str | None, str | None, str | None] | tuple[()] | None:
        match = _HEAD.fullmatch(head)
        if match is None:
            return None
        share = self.strings.setdefault
        action, arc, at, kind = (None if text == "null" else share(text[1:-1], text[1:-1]) for text in match.groups())
        watched = self.watched is None or self.watched(action, at, arc)
        fields = self[head] = (action, kind, at, arc) if watched else ()
        return fields


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
    for name, value in (("kind", kind), ("at", at), ("arc", arc)):
        if value is not None and type(value) is not str:
            raise TraceParseError(i, f"'{name}' must be a string or null")
    return TraceEvent(tick, action, thing, kind, at, arc)


def read_trace(text: str | Iterable[str]) -> Trace:
    """Inverse of write_trace; raises TraceParseError naming the bad line.

    The records of ``trace_records`` over the text's lines (split as
    ``jsonl.split_lines`` splits them), or over the given lines, as a list."""
    return list(trace_records(jsonl.split_lines(text) if isinstance(text, str) else text))


def trace_records(lines: Iterable[str], watched: Callable[..., object] | None = None) -> Iterator[TraceEvent]:
    """Each record of a trace's lines as it is read; raises TraceParseError
    naming the bad line.  A line may keep its final ``\\n`` (a file opened in
    text mode gives its lines so, broken where ``jsonl.split_lines`` breaks
    them); the line end is never part of what is decoded.

    The lines are read 256 at a time, and each block by one fast path and
    the full decoder.  Each distinct head (the text before ``,"thing":``)
    is checked by one pattern once per call, and its strings go through a
    table that lives for the call, so records share one object per
    distinct string.  A line is in the writer's shape when its head is and
    its tail (the two integers after the head, of at most 301 digits each)
    matches one tail pattern.  The fast path takes the lines from the
    first one of a block up to the first whose head is off that shape,
    checks their tails together by the tail pattern, repeated, and builds
    the records of the leading lines whose tails pass.  The line that ends
    that run, and each line after it whose head is off the shape, goes to
    the full decoder (blank lines, escapes, whitespace, other key orders,
    ``true`` or ``1.0`` as a tick, integers longer than 301 digits), which
    gives the same record, or the same error with the same line number, as
    it would for a line in the writer's shape; then the fast path resumes.

    Given ``watched(action, at, arc)`` (``fmkit conform`` passes the
    events' ``OccurrenceScanner.owners``), it is asked once per distinct
    head, and only records whose head it calls true are built.  Every line
    is still validated, with the same errors: a line with an unwatched head
    yields nothing when it is in the writer's shape, and is otherwise read
    as unfiltered."""
    heads = _Heads(watched)
    lines = iter(lines)
    start = 1
    while True:
        block: list[str] = []
        try:
            block.extend(islice(lines, _BLOCK))
        except (OSError, ValueError):  # a failed read, say of bytes that are not UTF-8,
            # comes after the lines read before it, as it would one line at a time
            yield from chain.from_iterable(_block_records(block, start, heads))
            raise
        if not block:
            return
        yield from chain.from_iterable(_block_records(block, start, heads))
        start += len(block)


def _block_records(block: list[str], start: int, heads: _Heads) -> Iterator[list[TraceEvent]]:
    """The watched records of a block, its first line numbered ``start``, a
    list at a time: one per run of lines in the writer's shape, checked by
    one match, and one per line that goes to the decoder."""
    new = tuple.__new__
    i, n = 0, len(block)
    while i < n:
        tails: list[str] = []
        picked: list[tuple[tuple[str, str | None, str | None, str | None], str]] = []
        for line in block[i:]:
            head, _, tail = line.partition(',"thing":')
            fields = heads[head]
            if fields is None:
                break
            tails.append(tail)
            if fields:
                picked.append((fields, tail))
        text = "\x00".join(tails) + "\x00"
        good = text.count("\x00", 0, _TAILS.match(text).end())
        if text.count("\x00") != len(tails):  # a tail holding a NUL ends the run
            good = min(good, next((k for k, tail in enumerate(tails) if "\x00" in tail), good))
        if good < len(tails):  # the run ends at a bad tail: only the watched lines before it
            del picked[sum(1 for line in block[i:i + good] if heads[line.partition(',"thing":')[0]]):]
        records = []
        for (action, kind, at, arc), tail in picked:
            number, _, tick = tail.partition(',"tick":')
            thing = None if number == "null" else int(number)
            records.append(new(TraceEvent, (int(tick.rstrip("}\r\n")), action, thing, kind, at, arc)))
        yield records
        i += good
        while i < n:  # the line that ends the run, and each after it whose head is off the shape
            line = block[i]
            event = _decode_line(start + i, line[:-1] if line[-1:] == "\n" else line)
            if event is not None:
                yield [event]
            i += 1
            if i < n and heads[block[i].partition(',"thing":')[0]] is not None:
                break


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
    if tokens[0] != ("ID", "digraph"):
        problems.append("document must start with 'digraph'")
        return problems
    pos = 2 if tokens[1][0] == "ID" else 1
    try:
        pos = _dot_block(tokens, problems, pos, MAX_NESTING)
    except RecursionError:
        return [f"subgraphs nest deeper than {MAX_NESTING} levels"]
    if not problems and tokens[pos][0] != "EOF":
        problems.append("trailing content after closing brace")
    return problems


def _dot_expected(tokens: list[tuple[str, str]], problems: list[str], type_: str, pos: int) -> None:
    found_type, found_text = tokens[pos]
    problems.append(f"expected {type_}, found {found_text or found_type}")


def _dot_attrs(tokens: list[tuple[str, str]], problems: list[str], pos: int) -> int:  # [ ID [= ID] [,] ... ] from the '['
    pos += 1
    while True:
        type_ = tokens[pos][0]
        if type_ == "]":
            return pos + 1
        if type_ != "ID":
            _dot_expected(tokens, problems, "]" if type_ == "EOF" else "ID", pos)
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


def _dot_body(tokens: list[tuple[str, str]], problems: list[str], pos: int, room: int) -> int:  # statements to a '}' or EOF
    while True:
        type_, value = tokens[pos]
        if type_ == "}" or type_ == "EOF":
            return pos
        if type_ != "ID":
            _dot_expected(tokens, problems, "ID", pos)
            return pos
        pos += 1
        if value == "subgraph":
            if tokens[pos][0] == "ID":
                pos += 1
            pos = _dot_block(tokens, problems, pos, room - 1)
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
                    _dot_expected(tokens, problems, "ID", pos)
                    return pos
                pos += 1
                type_ = tokens[pos][0]
            if type_ == "[":
                pos = _dot_attrs(tokens, problems, pos)
        if tokens[pos][0] != ";":
            _dot_expected(tokens, problems, ";", pos)
            return pos
        pos += 1


def _dot_block(tokens: list[tuple[str, str]], problems: list[str], pos: int, room: int) -> int:
    """``{ body }`` from pos, ``room`` more subgraph levels allowed in it; a problem in the body does not stop it."""
    if tokens[pos][0] != "{":
        _dot_expected(tokens, problems, "{", pos)
        return pos
    if room < 0:
        raise RecursionError  # caught in dot_check: this one problem replaces any others
    pos = _dot_body(tokens, problems, pos + 1, room)
    if tokens[pos][0] != "}":
        _dot_expected(tokens, problems, "}", pos)
        return pos
    return pos + 1


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

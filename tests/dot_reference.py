"""The DOT writers and the DOT checker fmkit used before its current ones.

Kept only as references for the differential tests in test_export.py:
``model_to_dot`` and ``behavior_to_dot`` are the writers that built each
line from a list of attributes, quoting every name as they met it, and
their text must equal the current writers'; ``dot_check`` is the
character-walking tokenizer and checker, and every token, every problem
and every ``dot_check`` result must agree with it.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fmkit.behavior import BehaviorAutomaton
    from fmkit.model import Model, Sphere


def _q(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def model_to_dot(model: Model, show_implicit: bool = True) -> str:
    lines: list[str] = ["digraph model {", "  rankdir=LR;", "  node [shape=box];"]

    for root in model.roots:
        _dot_sphere(lines, root, (root.name,), 1, show_implicit)

    def node_of(ep) -> str:
        return ".".join(ep.path) + "." + ep.stage.value

    edge_lines: list[str] = []
    for arc in model.flows:
        if not (show_implicit or arc.is_chain_head):
            continue
        dst = arc.dst if show_implicit else arc.authored_dst or arc.dst
        attrs = [] if arc.label.startswith("@") else [f"label={_q(arc.label)}"]
        if arc.is_implicit:
            attrs.append("color=gray")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        edge_lines.append(f"  {_q(node_of(arc.src))} -> {_q(node_of(dst))}{suffix};")
    for trig in model.triggers:
        attrs = ["style=dashed"]
        if not trig.label.startswith("@"):
            attrs.append(f"label={_q(trig.label)}")
        edge_lines.append(f"  {_q(node_of(trig.src))} -> {_q(node_of(trig.dst))} [{', '.join(attrs)}];")
    lines.extend(sorted(edge_lines))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_sphere(lines: list[str], sphere: Sphere, path: tuple[str, ...], depth: int, show_implicit: bool) -> None:
    pad = "  " * depth
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
        _dot_sphere(lines, child, path + (child.name,), depth + 1, show_implicit)
    lines.append(f"{pad}}}")


def behavior_to_dot(automaton: BehaviorAutomaton) -> str:
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


def dot_check(text: str) -> list[str]:
    """Validate DOT output against a small structural grammar; returns a
    list of problems (empty when the document parses)."""
    problems: list[str] = []
    tokens = _dot_tokenize(text, problems)
    if problems:
        return problems
    pos = 0

    def cur() -> str:
        return tokens[pos][0] if pos < len(tokens) else "EOF"

    def cur_text() -> str:
        return tokens[pos][1] if pos < len(tokens) else ""

    def eat(type_: str) -> bool:
        nonlocal pos
        if cur() == type_:
            pos += 1
            return True
        problems.append(f"expected {type_}, found {cur_text() or cur()}")
        return False

    def parse_attrs() -> None:
        nonlocal pos
        if cur() != "[":
            return
        pos += 1
        while cur() not in ("]", "EOF"):
            if not eat("ID"):
                return
            if cur() == "=":
                pos += 1
                if cur() != "ID":
                    problems.append("expected a value after '='")
                    return
                pos += 1
            if cur() == ",":
                pos += 1
        eat("]")

    def parse_body() -> None:
        nonlocal pos
        while cur() not in ("}", "EOF"):
            if cur() == "ID" and cur_text() == "subgraph":
                pos += 1
                if cur() == "ID":
                    pos += 1
                if eat("{"):
                    parse_body()
                    eat("}")
                continue
            if not eat("ID"):
                return
            if cur() == "=":  # graph-level attribute like rankdir=LR
                pos += 1
                if cur() != "ID":
                    problems.append("expected a value after '='")
                    return
                pos += 1
            else:
                while cur() == "->":
                    pos += 1
                    if not eat("ID"):
                        return
                parse_attrs()
            if not eat(";"):
                return

    if cur() == "ID" and cur_text() == "digraph":
        pos += 1
    else:
        problems.append("document must start with 'digraph'")
        return problems
    if cur() == "ID":
        pos += 1
    if eat("{"):
        parse_body()
        eat("}")
    if not problems and pos != len(tokens):
        problems.append("trailing content after closing brace")
    return problems


def _dot_tokenize(text: str, problems: list[str]) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                problems.append("unterminated quoted string")
                return tokens
            tokens.append(("ID", "".join(buf)))
            i = j + 1
            continue
        if text.startswith("->", i):
            tokens.append(("->", "->"))
            i += 2
            continue
        if ch in "{}[];,=":
            tokens.append((ch, ch))
            i += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            tokens.append(("ID", text[i:j]))
            i = j
            continue
        problems.append(f"unexpected character {ch!r} in DOT output")
        return tokens
    return tokens

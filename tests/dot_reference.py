"""The character-walking DOT tokenizer and the checker fmkit used before
its one-pattern tokenizer.

Kept only as the reference for the differential test in test_export.py:
every token, every problem and every ``dot_check`` result must agree with
it.
"""
from __future__ import annotations


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

"""The character-walking tokenizer fmkit used before its one-pattern lexer.

Kept only as the reference for the differential test in test_dsl.py.  It
differs from the original in one place: a number is a run of
``str.isdecimal()`` characters, not ``str.isdigit()`` ones, so a stray
``²`` is an unexpected character instead of an ``INT`` that ``int()``
cannot read.
"""
from __future__ import annotations

from dataclasses import dataclass

from fmkit.diagnostics import Diagnostic, SourceSpan, error
from fmkit.lexer import KEYWORDS

# Longest symbols first so '->' wins over '-' and '==' over '='.
SYMBOLS = ["->", "=>", "==", "!=", "<=", ">=", "{", "}", "(", ")", ",", ":",
           "=", "<", ">", "+", "-", "*", "/", "."]

LABEL_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.")


@dataclass(frozen=True)
class RefToken:
    type: str
    text: str
    span: SourceSpan


def tokenize(source: str, file: str) -> tuple[list[RefToken], list[Diagnostic]]:
    tokens: list[RefToken] = []
    diags: list[Diagnostic] = []
    line, col, i = 1, 1, 0
    n = len(source)

    def span(l0: int, c0: int) -> SourceSpan:
        return SourceSpan(file, l0, c0, line, max(col - 1, c0))

    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        l0, c0 = line, col
        if ch == "#":
            i += 1
            col += 1
            start = i
            while i < n and source[i] in LABEL_CHARS:
                i += 1
                col += 1
            if i == start:
                diags.append(error("lex-error", "expected a label after '#'", span(l0, c0)))
                continue
            tokens.append(RefToken("LABEL", source[start:i], span(l0, c0)))
            continue
        if ch == '"':
            i += 1
            col += 1
            buf = []
            closed = False
            while i < n:
                c = source[i]
                if c == "\n":
                    break
                i += 1
                col += 1
                if c == '"':
                    closed = True
                    break
                if c == "\\" and i < n and source[i] in '"\\':
                    buf.append(source[i])
                    i += 1
                    col += 1
                else:
                    buf.append(c)
            if not closed:
                diags.append(error("lex-error", "unterminated string literal", span(l0, c0)))
            tokens.append(RefToken("STRING", "".join(buf), span(l0, c0)))
            continue
        if ch.isdecimal():
            start = i
            while i < n and source[i].isdecimal():
                i += 1
                col += 1
            if i + 1 < n and source[i] == "." and source[i + 1].isdecimal():
                i += 1
                col += 1
                while i < n and source[i].isdecimal():
                    i += 1
                    col += 1
                tokens.append(RefToken("DEC", source[start:i], span(l0, c0)))
            else:
                tokens.append(RefToken("INT", source[start:i], span(l0, c0)))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
                col += 1
            text = source[start:i]
            tokens.append(RefToken(text if text in KEYWORDS else "IDENT", text, span(l0, c0)))
            continue
        for sym in SYMBOLS:
            if source.startswith(sym, i):
                i += len(sym)
                col += len(sym)
                tokens.append(RefToken(sym, sym, span(l0, c0)))
                break
        else:
            diags.append(error("lex-error", f"unexpected character {ch!r}", span(l0, c0)))
            i += 1
            col += 1
    tokens.append(RefToken("EOF", "", SourceSpan(file, line, col, line, col)))
    return tokens, diags

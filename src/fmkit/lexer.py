"""Tokenizer for the .fm model language and .fms scenario files."""
from __future__ import annotations

import re
from typing import NamedTuple

from .diagnostics import Diagnostic, SourceSpan, error

KEYWORDS = {
    "thing", "sphere", "machine", "event", "behavior", "region",
    "flow", "trigger", "spawn", "when", "assign", "consuming", "implicit",
    "possible", "seq", "choice", "par", "repeat", "interrupt",
    "int", "dec", "str", "bool", "true", "false", "and", "or", "not",
    "create", "process", "release", "transfer", "receive",
    "inject", "at", "tick",
}

# One alternative per token class, each a single capturing group, so
# ``match.lastindex`` names the class.  Blanks before a token are skipped by
# the same match; only '\n' ends a line.  A number is a run of decimal
# digits (``\d`` is Unicode Nd, what ``int()`` reads).  ``\w`` is
# ``str.isalnum()`` or '_', but an identifier must start with a letter or
# '_', which no character class here can say: a word starting otherwise
# (say '²') is checked by hand.  Longest symbols first so '->' wins over '-'.
_TOKEN = re.compile(r"""[ \t\r]*(?:
    ([A-Za-z_]\w*)                              # 1 ASCII-initial word
  | (//[^\n]*)                                  # 2 comment
  | (->|=>|==|!=|<=|>=|[{}(),:=<>+\-*/.])       # 3 symbol
  | (\n)                                        # 4 line end
  | (\#[A-Za-z0-9_.]*)                          # 5 label
  | (\d+\.\d+)                                  # 6 DEC
  | (\d+)                                       # 7 INT
  | ("(?:[^"\\\n]|\\["\\]?)*"?)                 # 8 string, maybe unterminated
  | (\w+)                                       # 9 other word
  | ([^ \t\r])                                  # 10 anything else
)""", re.VERBOSE)
_ESCAPE = re.compile(r'\\(["\\])')


class Token(NamedTuple):
    """One token on one line, columns 1-based and inclusive.  A tuple is the
    cheapest record to build per token; the parser asks few of them for a
    ``span``, which is built on demand."""

    type: str  # keyword/symbol literal, or IDENT, INT, DEC, STRING, LABEL, EOF
    text: str
    file: str
    line: int
    col: int
    end_col: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.file, self.line, self.col, self.line, self.end_col)

    @property
    def value(self):
        if self.type == "INT":
            return int(self.text)
        if self.type == "DEC":
            return float(self.text)
        return self.text


def tokenize(source: str, file: str) -> tuple[list[Token], list[Diagnostic]]:
    """Total tokenizer: bad characters become diagnostics, never exceptions."""
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    add = tokens.append
    new = tuple.__new__  # skips NamedTuple's Python-level __new__
    match = _TOKEN.match
    keywords = KEYWORDS
    line, line_start, pos = 1, 0, 0

    def lex_error(message: str, col: int, end_col: int) -> None:
        diags.append(error("lex-error", message, SourceSpan(file, line, col, line, end_col)))

    while True:
        m = match(source, pos)
        if m is None:  # only blanks are left
            break
        kind = m.lastindex
        text = m[kind]
        pos = m.end()
        end_col = pos - line_start
        col = end_col - len(text) + 1
        if kind == 1:
            add(new(Token, (text if text in keywords else "IDENT", text, file, line, col, end_col)))
        elif kind == 3:
            add(new(Token, (text, text, file, line, col, end_col)))
        elif kind == 4:
            line += 1
            line_start = pos
        elif kind == 5:
            if len(text) == 1:
                lex_error("expected a label after '#'", col, end_col)
            else:
                add(new(Token, ("LABEL", text[1:], file, line, col, end_col)))
        elif kind == 6 or kind == 7:
            add(new(Token, ("DEC" if kind == 6 else "INT", text, file, line, col, end_col)))
        elif kind == 8:
            body = text[1:]
            # Closed when it ends in a '"' that no backslash escapes: the
            # backslashes before that '"' pair off, so there is an even run.
            escapes = len(body) - 1 - len(body[:-1].rstrip("\\"))
            if body[-1:] == '"' and escapes % 2 == 0:
                body = body[:-1]
            else:
                lex_error("unterminated string literal", col, end_col)
            if "\\" in body:
                body = _ESCAPE.sub(r"\1", body)
            add(new(Token, ("STRING", body, file, line, col, end_col)))
        elif kind == 9:
            if text[0].isalpha():
                add(new(Token, (text if text in keywords else "IDENT", text, file, line, col, end_col)))
            else:  # rescan after the first character
                lex_error(f"unexpected character {text[0]!r}", col, col)
                pos -= len(text) - 1
        elif kind == 10:
            lex_error(f"unexpected character {text!r}", col, end_col)
        # kind 2, a comment, yields nothing.
    eof_col = len(source) - line_start + 1
    tokens.append(Token("EOF", "", file, line, eof_col, eof_col))
    return tokens, diags

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

# One match per token, in two groups: the blanks before it and the token.
# Only '\n' ends a line.  A number is a run of decimal digits (``\d`` is
# Unicode Nd, what ``int()`` reads).  ``\w`` is ``str.isalnum()`` or '_',
# but an identifier must start with a letter or '_', which no character
# class here can say: a word starting otherwise (say '²') is checked by
# hand.  Longest symbols first so '->' wins over '-'.
_TOKEN = re.compile(r"""([ \t\r]*)(
    [A-Za-z_]\w*                                # ASCII-initial word
  | //[^\n]*                                    # comment
  | ->|=>|==|!=|<=|>=|[{}(),:=<>+\-*/.\n]       # symbol or line end
  | \#[A-Za-z0-9_.]*                            # label
  | \d+(?:\.\d+)?                               # DEC or INT
  | "(?:[^"\\\n]|\\["\\]?)*"?                   # string, maybe unterminated
  | \w+                                         # other word
  | [^ \t\r]                                    # anything else
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


# Keywords and symbols are their own token type.
_TYPES = {text: text for text in KEYWORDS | {"->", "=>", "==", "!=", "<=", ">=", *"{}(),:=<>+-*/."}}
_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# The text is matched a block at a time, each ending just after a '\n' at
# least this many characters on: no token crosses a line end, so none
# crosses a cut.
_BLOCK = 8192


def tokenize(source: str, file: str) -> tuple[list[Token], list[Diagnostic]]:
    """Total tokenizer: bad characters become diagnostics, never exceptions."""
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    add = tokens.append
    new = tuple.__new__  # skips NamedTuple's Python-level __new__
    findall = _TOKEN.findall
    types = _TYPES.get
    word_start = _WORD_START
    n = len(source)
    line, line_start, pos = 1, 0, 0
    while pos < n:
        end = source.find("\n", pos + _BLOCK) + 1 or n
        col = pos - line_start  # of the last character read, 0 at a line start
        for blanks, text in findall(source, pos, end):
            col += len(blanks)
            start_col = col + 1
            col += len(text)
            type_ = types(text)
            if type_ is None:
                if text[0] in word_start:
                    type_ = "IDENT"
                elif text == "\n":
                    line += 1
                    line_start += col
                    col = 0
                    continue
                elif _other(text, file, line, start_col, col, tokens, diags):
                    pos = line_start + start_col  # one character into the word
                    break
                else:
                    continue
            add(new(Token, (type_, text, file, line, start_col, col)))
        else:
            pos = end
    eof_col = n - line_start + 1
    tokens.append(Token("EOF", "", file, line, eof_col, eof_col))
    return tokens, diags


def _other(text: str, file: str, line: int, col: int, end_col: int, tokens: list[Token], diags: list[Diagnostic]) -> bool:
    """Add the token or lex error of a match that is neither a keyword, a
    symbol, an ASCII-initial word nor a line end; True when scanning must
    resume one character into it, after a word whose first character is
    no letter."""
    first = text[0]
    if first == "/":  # a comment; '/' alone is a symbol
        return False
    if first == "#":
        if len(text) == 1:
            diags.append(error("lex-error", "expected a label after '#'", SourceSpan(file, line, col, line, end_col)))
        else:
            tokens.append(Token("LABEL", text[1:], file, line, col, end_col))
    elif first == '"':
        body = text[1:]
        # Closed when it ends in a '"' that no backslash escapes: the
        # backslashes before that '"' pair off, so there is an even run.
        escapes = len(body) - 1 - len(body[:-1].rstrip("\\"))
        if body[-1:] == '"' and escapes % 2 == 0:
            body = body[:-1]
        else:
            diags.append(error("lex-error", "unterminated string literal", SourceSpan(file, line, col, line, end_col)))
        if "\\" in body:
            body = _ESCAPE.sub(r"\1", body)
        tokens.append(Token("STRING", body, file, line, col, end_col))
    elif first.isdecimal():
        tokens.append(Token("DEC" if "." in text else "INT", text, file, line, col, end_col))
    elif first.isalpha():
        tokens.append(Token("IDENT", text, file, line, col, end_col))
    else:
        diags.append(error("lex-error", f"unexpected character {first!r}", SourceSpan(file, line, col, line, col)))
        return len(text) > 1
    return False

"""The one-pattern lexer against the character-walking reference lexer.

``lexer_reference.tokenize`` is the tokenizer fmkit had before, with
numbers restricted to decimal digits.  Every token's type, text and span
and every diagnostic must agree with it.
"""
from __future__ import annotations

import pathlib
import random
import sys

import lexer_reference
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmkit.diagnostics import SourceSpan
from fmkit.lexer import KEYWORDS, Token, tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

# Quotes, escapes, label and comment starts, blanks and line ends (only
# '\n' ends a line), operators, keywords, and non-ASCII letters, fractions,
# superscripts, other decimal digits and letter-like numerals.
FRAGMENTS = (
    list('"\\#/.\r\t\n\x0c ') + ["//", "->", "=>", "==", "!=", "<=", ">=", "<", ">", "=", "!"]
    + list("{}(),:+-*") + sorted(KEYWORDS)
    + ["x", "Z", "_", "n1", "0", "7", "1.5", "2.", "é", "½", "²", "٣", "Ⅻ", "a\u0301"]
)


def assert_same_as_reference(source: str) -> None:
    tokens, diags = tokenize(source, "f.fm")
    ref_tokens, ref_diags = lexer_reference.tokenize(source, "f.fm")
    assert [(t.type, t.text, t.span) for t in tokens] == [(t.type, t.text, t.span) for t in ref_tokens]
    assert diags == ref_diags


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join))
@example('"a\\"b" "c\\\\" "d\\" "e\\x')
@example("a\rb\r\nc")
@example("½x ²1 Ⅻ é1 ٣.٣")
def test_tokenize_matches_reference(source):
    assert_same_as_reference(source)
    for token in tokenize(source, "f.fm")[0]:
        token.value  # numbers are decimal digits, so int()/float() read them


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.fm")) + sorted(CORPUS.glob("*.fms")), ids=lambda p: p.name)
def test_tokenize_corpus_matches_reference(path):
    assert_same_as_reference(path.read_text(encoding="utf-8"))


def test_tokenize_static_benchmark_model_matches_reference(tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    workloads.gen_static(random.Random(3), CORPUS, tmp_path)
    source = (tmp_path / "big.fm").read_text(encoding="utf-8")
    assert_same_as_reference(source)
    assert len(tokenize(source, "big.fm")[0]) > 10_000


def test_token_is_a_tuple_with_an_on_demand_span():
    tokens, diags = tokenize('flow a\n  "x"', "m.fm")
    assert diags == []
    assert tokens[2] == ("STRING", "x", "m.fm", 2, 3, 5)
    assert tokens[2].span == SourceSpan("m.fm", 2, 3, 2, 5)
    assert tokens[-1] == Token("EOF", "", "m.fm", 2, 6, 6)
    with pytest.raises(ValueError):
        Token("IDENT", "x", "m.fm", 1, 3, 2).span  # start after end


@pytest.mark.parametrize("source,col", [("²", 1), ("1.²", 3), ("x = ½", 5), ("Ⅻ", 1)])
def test_non_decimal_digits_are_unexpected_characters(source, col):
    tokens, diags = tokenize(source, "f.fm")
    assert [d.code for d in diags] == ["lex-error"]
    assert diags[0].span.start_col == col and "unexpected character" in diags[0].message
    for token in tokens:
        token.value


def test_other_decimal_digits_are_numbers():
    tokens, diags = tokenize("٣ ٣.٣", "f.fm")
    assert diags == []
    assert [(t.type, t.value) for t in tokens[:-1]] == [("INT", 3), ("DEC", 3.3)]

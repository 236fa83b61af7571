"""The token walker fmkit used to read .fms scenarios before scenario
parsing moved onto the model parser.

Kept only as the reference for the differential property in
test_scenario.py: on every well-formed scenario both give equal
``Scenario`` values, and wherever this walker reports an error the parser
does too.
"""
from __future__ import annotations

from typing import Optional

from fmkit.ast import Injection, Scenario
from fmkit.diagnostics import Diagnostic, error
from fmkit.exprs import Value
from fmkit.lexer import Token, tokenize
from fmkit.model import STAGES_BY_NAME, Endpoint, Stage


def parse_scenario(source: str, file: str = "<scenario>") -> tuple[Scenario, list[Diagnostic]]:
    """Parse ``inject <kind> at <endpoint> tick <n> { attr = literal, ... }``
    lines.  Total: problems come back as diagnostics."""
    tokens, diags = tokenize(source, file)
    injections: list[Injection] = []
    pos = 0

    def cur() -> Token:
        return tokens[pos]

    def fail(message: str) -> None:
        diags.append(error("syntax-error", message, cur().span))

    while cur().type != "EOF":
        if cur().type != "inject":
            fail(f"expected 'inject', found '{cur().text or cur().type}'")
            while cur().type not in ("inject", "EOF"):
                pos += 1
            continue
        pos += 1
        if cur().type != "IDENT":
            fail("expected a thing-kind name")
            continue
        kind = cur().text
        pos += 1
        if cur().type != "at":
            fail("expected 'at'")
            continue
        pos += 1
        segments: list[str] = []
        stage: Optional[Stage] = None
        while cur().type == "IDENT":
            segments.append(cur().text)
            pos += 1
            if cur().type == "/":
                pos += 1
                continue
            break
        if cur().type == ".":
            pos += 1
            if cur().text in STAGES_BY_NAME:
                stage = STAGES_BY_NAME[cur().text]
                pos += 1
        if not segments or stage is None:
            fail("expected an endpoint like sphere/machine.create")
            continue
        if cur().type != "tick":
            fail("expected 'tick'")
            continue
        pos += 1
        if cur().type != "INT":
            fail("expected a tick number")
            continue
        tick = int(cur().text)
        pos += 1
        attrs: list[tuple[str, Value]] = []
        if cur().type == "{":
            pos += 1
            while cur().type not in ("}", "EOF"):
                if cur().type == ",":
                    pos += 1
                    continue
                if cur().type != "IDENT":
                    fail("expected an attribute name")
                    break
                name = cur().text
                pos += 1
                if cur().type != "=":
                    fail("expected '='")
                    break
                pos += 1
                tok = cur()
                if tok.type in ("INT", "DEC", "STRING"):
                    attrs.append((name, tok.value))
                    pos += 1
                elif tok.type in ("true", "false"):
                    attrs.append((name, tok.type == "true"))
                    pos += 1
                elif tok.type == "-" and tokens[pos + 1].type in ("INT", "DEC"):
                    pos += 2
                    attrs.append((name, -tokens[pos - 1].value))
                else:
                    fail("expected a literal value")
                    break
            if cur().type == "}":
                pos += 1
        injections.append(Injection(tick, kind, Endpoint(tuple(segments), stage), tuple(attrs)))
    return Scenario(tuple(injections)), diags

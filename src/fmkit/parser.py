"""Recursive-descent parser for .fm models and .fms scenarios.

Parsing is total: every failure becomes a diagnostic and the parser
resynchronizes, so callers always get an AST (possibly partial) plus the
diagnostic list.  A binding pass resolves names so duplicate-name and
unresolved-reference problems surface here with precise spans.

Nesting is bounded by MAX_NESTING: sphere, chronology, bracket and
prefix-operator levels, and the height of every expression tree, operator
chains included.  Past it the parser reports one ``nesting-too-deep``
diagnostic and skips the expression, or else the enclosing top-level item,
so no tree handed on is deeper than the limit and no later recursive pass
can overflow the stack.
"""
from __future__ import annotations

import math
from typing import Optional

from . import ast, exprs
from .diagnostics import Diagnostic, SourceSpan, error
from .exprs import ATOM_PREC, BINARY_PREC, CMP_PREC, NOT_PREC
from .lexer import Token, tokenize
from .model import (
    AttrSpec, BehaviorDecl, Chrono, Choice, Endpoint, Interrupt, Machine, Par, Ref, Repeat, Seq, Sphere, Stage,
    STAGES_BY_NAME, ThingKind,
)

STAGE_KEYWORDS = frozenset(STAGES_BY_NAME)
ITEM_KEYWORDS = frozenset({"thing", "sphere", "event", "behavior"})
SPHERE_ITEM_KEYWORDS = frozenset({"sphere", "machine", "flow", "trigger"})
CHRONO_HEADS = frozenset({"seq", "choice", "par", "repeat", "interrupt"})
LITERAL_TOKENS = frozenset({"INT", "DEC", "STRING", "true", "false"})
# Token types that end a block, group or attribute, or that skip_expr steps over.
_BLOCK_END = frozenset({"}", "EOF"})
_GROUP_END = frozenset({")", "EOF"})
_ATTR_END = frozenset({",", "}"})
_PREFIX = frozenset({"not", "-", "("})
_OPERAND = LITERAL_TOKENS | {"IDENT"}
MAX_NESTING = 200
_BRACKETS = {"{": 1, "(": 1, "}": -1, ")": -1}


class _TooDeep(Exception):
    """Nesting past MAX_NESTING; unwinds to the expression or top-level
    item being parsed."""

    def __init__(self, span: SourceSpan) -> None:
        super().__init__(span)
        self.span = span


class _Parser:
    def __init__(self, tokens: list[Token], file: str) -> None:
        self.tokens = tokens
        self.pos = 0
        self.cur = tokens[0]
        self.file = file
        self.diags: list[Diagnostic] = []
        self.depth = 0  # sphere, chronology, bracket and prefix levels open

    # Token plumbing -------------------------------------------------------
    # ``cur`` is a plain attribute, ``tokens[pos]``: advance (never past the
    # final EOF), expect and seek move ``pos`` and set ``cur`` with it.  ``at``
    # tests one type; a test against several is ``self.cur.type in`` a
    # module-level frozenset, and hot loops compare ``self.cur.type`` directly.

    def advance(self) -> Token:
        tok = self.cur
        if tok.type != "EOF":
            self.pos += 1
            self.cur = self.tokens[self.pos]
        return tok

    def seek(self, pos: int) -> None:
        self.pos = pos
        self.cur = self.tokens[pos]

    def at(self, type_: str) -> bool:
        return self.cur.type == type_

    def expect(self, type_: str, what: str = "") -> Optional[Token]:
        if self.cur.type == type_:
            return self.advance()
        label = what or f"'{type_}'"
        self.error(f"expected {label}, found '{self.cur.text or self.cur.type}'")
        return None

    def error(self, message: str, span: Optional[SourceSpan] = None) -> None:
        self.diags.append(error("syntax-error", message, span or self.cur.span))

    def synchronize(self, keywords: frozenset[str]) -> None:
        while self.cur.type not in _BLOCK_END and self.cur.type not in keywords:
            self.advance()

    def nest(self, tok: Token) -> None:
        """Open one nesting level at tok; the caller closes it with
        ``self.depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _TooDeep(tok.span)

    def too_deep(self, exc: _TooDeep) -> None:
        self.diags.append(error("nesting-too-deep", f"nesting is deeper than {MAX_NESTING} levels", exc.span))

    def skip_item(self, start: int) -> None:
        """Skip the top-level item starting at token index start: up to the
        '}' that closes its first '{' (or EOF)."""
        self.seek(start)
        self.depth = 0
        open_braces = 0
        while self.cur.type != "EOF":
            tok = self.advance()
            if tok.type == "{":
                open_braces += 1
            elif tok.type == "}" and open_braces > 0:
                open_braces -= 1
                if open_braces == 0:
                    return

    # Grammar --------------------------------------------------------------

    def parse_model(self) -> ast.ModelAst:
        out = ast.ModelAst(self.file)
        while self.cur.type != "EOF":
            start = self.pos
            try:
                self.parse_item(out)
            except _TooDeep as exc:
                self.too_deep(exc)
                self.skip_item(start)
        return out

    def parse_item(self, out: ast.ModelAst) -> None:
        if self.at("thing"):
            decl = self.parse_kind()
            if decl:
                out.kinds.append(decl)
        elif self.at("sphere"):
            decl = self.parse_sphere(out.arcs)
            if decl:
                out.spheres.append(decl)
        elif self.at("event"):
            decl = self.parse_event()
            if decl:
                out.events.append(decl)
        elif self.at("behavior"):
            decl = self.parse_behavior()
            if decl:
                out.behaviors.append(decl)
        else:
            self.error(
                f"expected thing, sphere, event, or behavior, found '{self.cur.text or self.cur.type}'"
            )
            self.advance()
            self.synchronize(ITEM_KEYWORDS)

    def parse_kind(self) -> Optional[ThingKind]:
        self.advance()  # 'thing'
        name_tok = self.expect("IDENT", "a thing-kind name")
        if name_tok is None:
            self.synchronize(ITEM_KEYWORDS)
            return None
        attrs: list[AttrSpec] = []
        if self.at("{"):
            self.advance()
            while self.cur.type not in _BLOCK_END:
                if self.at(","):
                    self.advance()
                    continue
                attr_tok = self.expect("IDENT", "an attribute name")
                if attr_tok is None:
                    break
                if self.expect(":") is None:
                    break
                if self.cur.type in exprs.SCALAR_TYPES:
                    type_tok = self.advance()
                else:
                    self.error("expected a scalar type (int, dec, str, bool)")
                    break
                default = None
                if self.at("="):
                    self.advance()
                    default = self.parse_literal()
                    if default is None:  # skip to the ',' or '}' that ends this attribute
                        depth = 0
                        while self.cur.type != "EOF" and (depth or self.cur.type not in _ATTR_END):
                            depth = max(0, depth + _BRACKETS.get(self.advance().type, 0))
                attrs.append(AttrSpec(attr_tok.text, type_tok.text, default, attr_tok.span))
            self.expect("}")
        return ThingKind(name_tok.text, tuple(attrs), name_tok.span)

    def parse_literal(self) -> Optional[exprs.Value]:
        """``[-] INT | [-] DEC | STRING | true | false``, or None after an error.
        A number int() cannot read or float() rounds to infinity is an error."""
        tok = self.cur
        if tok.type == "-":
            self.advance()
            if self.cur.type != "INT" and self.cur.type != "DEC":
                self.error(f"expected a number, found '{self.cur.text or self.cur.type}'")
                return None
            value = self.parse_literal()
            return None if value is None else -value
        if tok.type not in LITERAL_TOKENS:
            self.error("expected a literal value")
            return None
        self.advance()
        if tok.type in ("true", "false"):
            return tok.type == "true"
        try:
            value = tok.value
        except ValueError:  # more digits than int() reads
            value = math.inf
        if value == math.inf:
            self.error("number is out of range", tok.span)
            return None
        return value

    def parse_sphere(self, arcs: list[ast.ArcDecl]) -> Optional[Sphere]:
        """A sphere; its arcs go onto ``arcs`` once it closes, its own in
        source order and then each child's."""
        start = self.advance()  # 'sphere'
        name_tok = self.expect("IDENT", "a sphere name")
        if name_tok is None or self.expect("{") is None:
            self.synchronize(ITEM_KEYWORDS)
            return None
        self.nest(start)
        sphere = Sphere(name_tok.text, span=start.span)
        own: list[ast.ArcDecl] = []
        inner: list[ast.ArcDecl] = []
        while self.cur.type not in _BLOCK_END:
            if self.cur.type == "sphere":
                child = self.parse_sphere(inner)
                if child:
                    sphere.children.append(child)
            elif self.cur.type == "machine":
                m = self.parse_machine()
                if m:
                    sphere.machines.append(m)
            elif self.cur.type == "flow" or self.cur.type == "trigger":
                a = self.parse_arc()
                if a:
                    own.append(a)
            else:
                self.error(
                    f"expected sphere, machine, flow, or trigger, found '{self.cur.text or self.cur.type}'"
                )
                self.advance()
                self.synchronize(SPHERE_ITEM_KEYWORDS)
        self.expect("}")
        self.depth -= 1
        arcs.extend(own + inner)
        return sphere

    def parse_machine(self) -> Optional[Machine]:
        start = self.advance()  # 'machine'
        name_tok = self.expect("IDENT", "a machine name")
        if name_tok is None or self.expect(":") is None:
            self.synchronize(SPHERE_ITEM_KEYWORDS)
            return None
        kind_tok = self.expect("IDENT", "a thing-kind name")
        if kind_tok is None or self.expect("{") is None:
            self.synchronize(SPHERE_ITEM_KEYWORDS)
            return None
        declared: list[Stage] = []
        implicit: list[Stage] = []
        repeats: list[Stage] = []
        assigns: list[tuple[str, exprs.Expr, SourceSpan]] = []
        while self.cur.type not in _BLOCK_END:
            stages = declared
            if self.cur.type == "implicit":
                self.advance()
                stages = implicit
            if self.cur.type in STAGE_KEYWORDS:
                stage = STAGES_BY_NAME[self.advance().text]
                (repeats if stage in declared or stage in implicit else stages).append(stage)
            elif self.cur.type == "assign" and stages is declared:
                self.advance()
                if self.expect("{") is None:
                    break
                assigns.extend(self.parse_assignments())
            else:
                self.error("expected a stage name or an assign block")
                break
        self.expect("}")
        return Machine(
            name_tok.text, kind_tok.text, tuple(declared), tuple(implicit),
            tuple((name, expr) for name, expr, _ in assigns), start.span, kind_tok.span,
            tuple(span for _, _, span in assigns), tuple(repeats),
        )

    def parse_assignments(self) -> list[tuple[str, exprs.Expr, SourceSpan]]:
        """``IDENT = expr`` pairs, with commas, through the closing '}'."""
        out = []
        while self.cur.type not in _BLOCK_END:
            if self.at(","):
                self.advance()
                continue
            attr_tok = self.expect("IDENT", "an attribute name")
            if attr_tok is None or self.expect("=") is None:
                break
            out.append((attr_tok.text, self.parse_expr(), attr_tok.span))
        self.expect("}")
        return out

    def parse_endpoint(self) -> Optional[tuple[Endpoint, SourceSpan]]:
        first = self.expect("IDENT", "an endpoint path")
        if first is None:
            return None
        segments = [first.text]
        while self.cur.type == "/":
            self.advance()
            seg = self.expect("IDENT", "a path segment")
            if seg is None:
                return None
            segments.append(seg.text)
        if self.expect(".", "'.' before the stage") is None:
            return None
        if self.cur.type not in STAGE_KEYWORDS:
            self.error(f"expected a stage name, found '{self.cur.text or self.cur.type}'")
            return None
        stage_tok = self.advance()
        span = SourceSpan(first.file, first.line, first.col, stage_tok.line, stage_tok.end_col)
        return Endpoint(tuple(segments), STAGES_BY_NAME[stage_tok.text]), span

    def parse_arc(self) -> Optional[ast.ArcDecl]:
        start = self.advance()  # 'flow' | 'trigger'
        is_flow = start.type == "flow"
        src = self.parse_endpoint()
        if src is None:
            self.synchronize(SPHERE_ITEM_KEYWORDS)
            return None
        arrow = "->" if is_flow else "=>"
        if self.expect(arrow) is None:
            self.synchronize(SPHERE_ITEM_KEYWORDS)
            return None
        dst = self.parse_endpoint()
        if dst is None:
            self.synchronize(SPHERE_ITEM_KEYWORDS)
            return None
        consuming = False
        spawn: list[tuple[str, exprs.Expr, SourceSpan]] = []
        if not is_flow:
            if self.cur.type == "consuming":
                self.advance()
                consuming = True
            if self.cur.type == "spawn":
                self.advance()
                if self.expect("{") is not None:
                    spawn = self.parse_assignments()
        guard = None
        if self.cur.type == "when":
            self.advance()
            guard = self.parse_expr()
        label = None
        if self.cur.type == "LABEL":
            label_tok = self.advance()
            if "." in label_tok.text:
                self.error("arc labels may not contain '.'", label_tok.span)
            else:
                label = label_tok.text
        return ast.ArcDecl(is_flow, src[0], dst[0], guard, tuple(spawn), consuming, label, start.span, src[1], dst[1])

    def parse_event(self) -> Optional[ast.EventDecl]:
        start = self.advance()  # 'event'
        name_tok = self.expect("IDENT", "an event name")
        if name_tok is None or self.expect("{") is None:
            self.synchronize(ITEM_KEYWORDS)
            return None
        labels: list[str] = []
        if self.expect("region") is not None and self.expect("{") is not None:
            while self.at("LABEL"):
                labels.append(self.advance().text)
            self.expect("}")
        self.expect("}")
        return ast.EventDecl(name_tok.text, tuple(labels), start.span)

    def parse_behavior(self) -> Optional[BehaviorDecl]:
        start = self.advance()  # 'behavior'
        name_tok = self.expect("IDENT", "a behavior name")
        if name_tok is None or self.expect("{") is None:
            self.synchronize(ITEM_KEYWORDS)
            return None
        program = self.parse_chrono()
        self.expect("}")
        if program is None:
            return None
        return BehaviorDecl(name_tok.text, program, start.span)

    def parse_chrono(self) -> Optional[Chrono]:
        tok = self.cur
        if tok.type == "IDENT":
            self.advance()
            return Ref(tok.text)
        if tok.type not in CHRONO_HEADS:
            self.error("expected a chronology term (seq, choice, par, repeat, interrupt, or an event name)")
            return None
        head = self.advance()
        if self.expect("(") is None:
            return None
        self.nest(head)
        children: list[Chrono] = []
        while self.cur.type not in _GROUP_END:
            if self.at(","):
                self.advance()
                continue
            child = self.parse_chrono()
            if child is None:
                break
            children.append(child)
        self.expect(")")
        self.depth -= 1
        if head.type == "repeat":
            possible = False
            if self.at("possible"):
                self.advance()
                possible = True
            if len(children) != 1:
                self.error("repeat takes exactly one term", head.span)
                return None
            return Repeat(children[0], possible)
        if head.type == "interrupt":
            if len(children) != 3:
                self.error("interrupt takes exactly watcher, handler, body", head.span)
                return None
            return Interrupt(children[0], children[1], children[2])
        if len(children) < 2:
            self.error(f"{head.type} needs at least two terms", head.span)
            return None
        return {"seq": Seq, "choice": Choice, "par": Par}[head.type](tuple(children))

    def parse_scenario(self) -> ast.Scenario:
        """``inject IDENT at <endpoint> tick INT [{ IDENT = literal, ... }]``
        lines; after an error, skip to the next 'inject'."""
        injections: list[ast.Injection] = []
        while self.cur.type != "EOF":
            if self.at("inject"):
                injection = self.parse_injection()
                if injection is not None:
                    injections.append(injection)
                    continue
            else:
                self.error(f"expected 'inject', found '{self.cur.text or self.cur.type}'")
            while self.cur.type != "inject" and self.cur.type != "EOF":
                self.advance()
        return ast.Scenario(tuple(injections))

    def parse_injection(self) -> Optional[ast.Injection]:
        start = self.advance()  # 'inject'
        kind_tok = self.expect("IDENT", "a thing-kind name")
        if kind_tok is None or self.expect("at") is None:
            return None
        target = self.parse_endpoint()
        if target is None or self.expect("tick") is None:
            return None
        tick = self.parse_literal() if self.at("INT") else self.expect("INT", "a tick number")
        if tick is None:
            return None
        attrs: list[tuple[str, exprs.Value]] = []
        if self.at("{"):
            self.advance()
            while self.cur.type not in _BLOCK_END:
                if self.at(","):
                    self.advance()
                    continue
                attr_tok = self.expect("IDENT", "an attribute name")
                if attr_tok is None or self.expect("=") is None:
                    return None
                value = self.parse_literal()
                if value is None:
                    return None
                attrs.append((attr_tok.text, value))
            if self.expect("}") is None:
                return None
        return ast.Injection(tick, kind_tok.text, target[0], tuple(attrs), start.span)

    # Expressions ----------------------------------------------------------

    def parse_expr(self) -> exprs.Expr:
        start, depth = self.pos, self.depth
        try:
            return self.parse_binary(1)[0]
        except _TooDeep as exc:
            self.too_deep(exc)
            self.skip_expr(start)
            self.depth = depth
            return exprs.Lit(False)

    def skip_expr(self, start: int) -> None:
        """Move past the expression starting at token index start without
        building it: operands and operators in turn, brackets counted."""
        self.seek(start)
        open_parens = 0
        while True:
            while self.cur.type in _PREFIX:
                if self.advance().type == "(":
                    open_parens += 1
            if self.cur.type not in _OPERAND:
                return
            self.advance()
            while open_parens and self.at(")"):
                self.advance()
                open_parens -= 1
            if self.cur.type not in BINARY_PREC:
                return
            self.advance()

    def parse_binary(self, min_prec: int) -> tuple[exprs.Expr, int]:
        """An expression whose operators all bind at least as tightly as
        min_prec, by precedence climbing; returns it with its tree height.
        Each chain is built in a loop, so the parser recurses only into
        brackets, prefix operators and tighter right operands."""
        if min_prec <= NOT_PREC and self.cur.type == "not":
            tok = self.advance()
            self.nest(tok)
            operand, height = self.parse_binary(NOT_PREC)
            self.depth -= 1
            height += 1
            self.check_height(height, tok)
            left, left_prec = exprs.Unary("not", operand), NOT_PREC
        else:
            left, height = self.parse_factor()
            left_prec = ATOM_PREC
        while True:
            prec = BINARY_PREC.get(self.cur.type, 0)
            if prec < min_prec or (prec == CMP_PREC and left_prec <= CMP_PREC):
                return left, height
            tok = self.advance()
            right, right_height = self.parse_binary(prec + 1)
            height = max(height, right_height) + 1
            self.check_height(height, tok)
            left, left_prec = exprs.Binary(tok.type, left, right), prec

    def check_height(self, height: int, tok: Token) -> None:
        """Stop before building a tree taller than MAX_NESTING at operator tok."""
        if height > MAX_NESTING:
            raise _TooDeep(tok.span)

    def parse_factor(self) -> tuple[exprs.Expr, int]:
        """A unary minus, literal, attribute or bracketed expression, with
        its tree height."""
        if self.cur.type == "-":
            tok = self.advance()
            self.nest(tok)
            operand, height = self.parse_factor()
            self.depth -= 1
            self.check_height(height + 1, tok)
            return exprs.Unary("-", operand), height + 1
        if self.cur.type in LITERAL_TOKENS:
            value = self.parse_literal()
            return exprs.Lit(False if value is None else value), 0
        if self.cur.type == "IDENT":
            return exprs.Attr(self.advance().text), 0
        if self.cur.type == "(":
            tok = self.advance()
            self.nest(tok)
            inner = self.parse_binary(1)
            self.expect(")")
            self.depth -= 1
            return inner
        self.error(f"expected an expression, found '{self.cur.text or self.cur.type}'")
        self.advance()
        return exprs.Lit(False), 0


def parse(source: str, file: str = "<input>") -> tuple[ast.ModelAst, list[Diagnostic]]:
    """Parse a .fm source into an AST plus diagnostics (never raises)."""
    tokens, diags = tokenize(source, file)
    parser = _Parser(tokens, file)
    tree = parser.parse_model()
    all_diags = diags + parser.diags
    all_diags.extend(_bind(tree))
    return tree, all_diags


def parse_scenario(source: str, file: str = "<scenario>") -> tuple[ast.Scenario, list[Diagnostic]]:
    """Parse a .fms source into a Scenario plus diagnostics (never raises)."""
    tokens, diags = tokenize(source, file)
    parser = _Parser(tokens, file)
    return parser.parse_scenario(), diags + parser.diags


# Binding ------------------------------------------------------------------


def _bind(tree: ast.ModelAst) -> list[Diagnostic]:
    """Resolve every name in the AST, reporting duplicates and dangling refs."""
    diags: list[Diagnostic] = []

    kinds: dict[str, ThingKind] = {}
    for kind in tree.kinds:
        if kind.name in kinds:
            diags.append(error("duplicate-name", f"thing kind '{kind.name}' is already declared", kind.span))
        else:
            kinds[kind.name] = kind
        seen_attrs = set()
        for attr in kind.attrs:
            if attr.name in seen_attrs:
                diags.append(error("duplicate-name", f"attribute '{attr.name}' is already declared", attr.span))
            seen_attrs.add(attr.name)

    # Index machines by full path while checking sibling uniqueness.
    machines: dict[tuple[str, ...], Machine] = {}

    def walk(sphere: Sphere, prefix: tuple[str, ...]) -> None:
        path = prefix + (sphere.name,)
        seen: set[str] = set()
        for child in sphere.children:
            if child.name in seen:
                diags.append(error("duplicate-name", f"sphere '{child.name}' is already declared here", child.span))
            seen.add(child.name)
        for m in sphere.machines:
            if m.name in seen:
                diags.append(error("duplicate-name", f"machine '{m.name}' is already declared here", m.span))
            seen.add(m.name)
            machines[path + (m.name,)] = m
            if m.kind not in kinds:
                diags.append(error("unresolved-reference", f"unknown thing kind '{m.kind}'", m.kind_span))
            for stage in m.repeats:
                diags.append(error("duplicate-name", f"stage '{stage}' is already declared on '{m.name}'", m.span))
        for child in sphere.children:
            walk(child, path)

    top_seen: set[str] = set()
    for sphere in tree.spheres:
        if sphere.name in top_seen:
            diags.append(error("duplicate-name", f"sphere '{sphere.name}' is already declared", sphere.span))
        top_seen.add(sphere.name)
        walk(sphere, ())

    def check_endpoint(ep: Endpoint, span: SourceSpan) -> Optional[Machine]:
        m = machines.get(ep.path)
        if m is None:
            diags.append(error("unresolved-reference", f"no machine at '{'/'.join(ep.path)}'", span))
            return None
        if not m.has_stage(ep.stage):
            diags.append(error("unresolved-reference", f"stage '{ep.stage}' is not declared on '{m.name}'", span))
            return None
        return m

    kind_attrs = {name: kind.attr_types() for name, kind in kinds.items()}

    def check_expr_refs(expr: exprs.Expr, names: dict[str, str], span: SourceSpan, role: str) -> None:
        if isinstance(expr, exprs.Attr):
            if expr.name not in names:
                diags.append(error("unresolved-reference", f"unknown attribute '{expr.name}' in {role}", span))
        elif isinstance(expr, exprs.Unary):
            check_expr_refs(expr.operand, names, span, role)
        elif isinstance(expr, exprs.Binary):
            check_expr_refs(expr.left, names, span, role)
            check_expr_refs(expr.right, names, span, role)

    labels: set[str] = set()
    for arc in tree.arcs:
        src_m = check_endpoint(arc.src, arc.src_span)
        dst_m = check_endpoint(arc.dst, arc.dst_span)
        if arc.label is not None:
            if arc.label in labels:
                diags.append(error("duplicate-name", f"arc label '{arc.label}' is already used", arc.span))
            labels.add(arc.label)
        if src_m is not None:
            src_attrs = kind_attrs.get(src_m.kind, {})
            if arc.guard is not None:
                check_expr_refs(arc.guard, src_attrs, arc.span, "guard")
            for _, expr, span in arc.spawn_attrs:
                check_expr_refs(expr, src_attrs, span, "spawn expression")
        if not arc.is_flow and dst_m is not None:
            target_attrs = kind_attrs.get(dst_m.kind, {})
            for name, _, span in arc.spawn_attrs:
                if name not in target_attrs:
                    diags.append(
                        error("unresolved-reference", f"'{dst_m.kind}' has no attribute '{name}'", span)
                    )

    for m in machines.values():
        names = kind_attrs.get(m.kind, {})
        for (name, expr), span in zip(m.assigns, m.assign_spans):
            if name not in names:
                diags.append(error("unresolved-reference", f"'{m.kind}' has no attribute '{name}'", span))
            check_expr_refs(expr, names, span, "assign expression")

    event_names: set[str] = set()
    for event in tree.events:
        if event.name in event_names:
            diags.append(error("duplicate-name", f"event '{event.name}' is already declared", event.span))
        event_names.add(event.name)
        for label in event.labels:
            if label not in labels:
                diags.append(error("unresolved-reference", f"no arc labeled '{label}'", event.span))

    behavior_names: set[str] = set()
    for behavior in tree.behaviors:
        if behavior.name in behavior_names:
            diags.append(error("duplicate-name", f"behavior '{behavior.name}' is already declared", behavior.span))
        behavior_names.add(behavior.name)
        for ref in _chrono_refs(behavior.program):
            if ref not in event_names:
                diags.append(
                    error("unresolved-reference", f"behavior '{behavior.name}' references unknown event '{ref}'", behavior.span)
                )

    return diags


def _chrono_refs(node: Chrono) -> list[str]:
    if isinstance(node, Ref):
        return [node.event]
    if isinstance(node, Repeat):
        return _chrono_refs(node.child)
    parts = (node.watcher, node.handler, node.body) if isinstance(node, Interrupt) else node.children
    return [ref for child in parts for ref in _chrono_refs(child)]

"""Lexing, parsing and pretty-printing of textual instance models.

The lexer knows five value terminals plus four punctuation marks and line
comments. Keywords are not a lexical category: every word comes out as an
Identifier token and the parser promotes it by context, so member names
never clash with class names. A token carries its start offset and the
line index of its text; its line:col span is computed only when read,
which the parser does for element and cross-reference positions and for
diagnostics.

The parser is a recursive-descent interpreter over the grammar IR. It is
deliberately forgiving: every problem becomes a diagnostic with a span,
and an unparseable construct is skipped as a whole so that one typo does
not cascade. Besides the tree it records one :class:`Body` per brace pair
it opens, with the members present in it, so that completion reads the
cursor's container from the same parse.

The formatter is the inverse direction and defines the canonical layout:
four-space indents, braces on their own lines, one construct per line.
Formatting canonical text is the identity.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field

from .diagnostics import ConfigError, Diagnostic, ERROR, SerializationError, Span, WARNING
from .grammar import (
    Grammar,
    InlineContainment,
    KeywordAttribute,
    KeywordCrossRef,
    MemberEntry,
    ProductionRule,
    WrappedContainment,
)
from .metamodel import Metamodel, PrimitiveKind
from .model import CrossRef, ModelElement, QualifiedName, assign_preorder_ids

INDENT = "    "
PUNCT = "{},."

# When two terminals match the same longest lexeme, the earlier kind wins.
_PRIORITY = [
    PrimitiveKind.UUID,
    PrimitiveKind.NUMERICAL,
    PrimitiveKind.BOOLEAN,
    PrimitiveKind.STRING,
    PrimitiveKind.IDENTIFIER,
]

_NEWLINE = re.compile("\n")
# Whitespace and ``//`` comments between tokens, in one match.
_SKIP = re.compile(r"(?:[ \t\r\n]+|//[^\n]*\n?)*")
# An unlexable run: scanning resumes at the next whitespace.
_UNLEXABLE = re.compile(r"[^ \t\r\n]*")


class LineIndex:
    """Translation between offsets and 1-based (line, col) positions of
    one text, by bisection over the offsets where lines start."""

    __slots__ = ("starts",)

    def __init__(self, text: str):
        self.starts = [0]
        self.starts += [m.end() for m in _NEWLINE.finditer(text)]

    def position(self, offset: int) -> tuple[int, int]:
        line = bisect_right(self.starts, offset)
        return line, offset - self.starts[line - 1] + 1

    def span(self, start: int, end: int) -> Span:
        line, col = self.position(start)
        end_line, end_col = self.position(end)
        return Span(line, col, end_line, end_col)

    def offset(self, line: int, col: int) -> int:
        """Offset of a 1-based position; the caller checks the range."""
        return self.starts[line - 1] + col - 1


class Token:
    """One lexeme, its kind (a PrimitiveKind value name, or one of
    ``{`` ``}`` ``,`` ``.``) and its start offset. Tokens share the line
    index of their text and build their :class:`Span` only when it is
    read: for an element or cross-reference position, or a diagnostic."""

    __slots__ = ("kind", "lexeme", "offset", "lines")

    def __init__(self, kind: str, lexeme: str, offset: int, lines: LineIndex):
        self.kind = kind
        self.lexeme = lexeme
        self.offset = offset
        self.lines = lines

    @property
    def span(self) -> Span:
        return self.lines.span(self.offset, self.offset + len(self.lexeme))


def lex(
    text: str, terminals: dict[PrimitiveKind, str],
) -> tuple[list[Token], list[Diagnostic]]:
    """Tokenize with longest-match semantics, one pattern per terminal kind.

    An unlexable character yields one error diagnostic; scanning resumes
    at the next whitespace. ``//`` comments are dropped.
    """
    missing = [k.value for k in PrimitiveKind if k not in terminals]
    if missing:
        raise ConfigError(
            "lexer needs a pattern for every terminal kind; missing: "
            + ", ".join(missing)
        )
    matchers = [(kind.value, re.compile(terminals[kind]).match) for kind in _PRIORITY]
    lines = LineIndex(text)
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    append = tokens.append
    skip = _SKIP.match

    n = len(text)
    pos = skip(text, 0).end()
    while pos < n:
        ch = text[pos]
        if ch in PUNCT:
            append(Token(ch, ch, pos, lines))
            pos = skip(text, pos + 1).end()
            continue
        best_kind = None
        best_end = pos
        for kind, match in matchers:
            m = match(text, pos)
            if m is not None and m.end() > best_end:
                best_kind, best_end = kind, m.end()
        if best_kind is None:
            diagnostics.append(Diagnostic(
                ERROR, f"cannot read character {ch!r}", lines.span(pos, pos + 1),
            ))
            best_end = _UNLEXABLE.match(text, pos).end()
        else:
            append(Token(best_kind, text[pos:best_end], pos, lines))
        pos = skip(text, best_end).end()

    return tokens, diagnostics


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _is_name_slot_entry(entry: MemberEntry) -> bool:
    return (
        entry.member == "shortName"
        and isinstance(entry.form, KeywordAttribute)
        and entry.form.kind is PrimitiveKind.IDENTIFIER
    )


class _RuleInfo:
    """Per-rule dispatch tables, built once per parse."""

    def __init__(self, rule: ProductionRule):
        self.rule = rule
        self.by_keyword: dict[str, MemberEntry] = {}
        self.inline: list[MemberEntry] = []
        self.positional: MemberEntry | None = None
        for entry in rule.entries:
            form = entry.form
            if isinstance(form, InlineContainment):
                self.inline.append(entry)
            elif isinstance(form, KeywordAttribute) and form.keyword is None:
                self.positional = entry
            else:
                keyword = form.keyword  # type: ignore[union-attr]
                self.by_keyword[keyword] = entry


@dataclass(slots=True)
class Body:
    """One brace pair the parser opened: an element body, or a wrapped
    ``member { ... }`` block (then ``class_name`` is the block's target
    and ``element_id`` its owner's). Elements are numbered in textual
    start order, the pre-order id for a clean document. ``present`` holds
    the members whose keyword, child or positional value appeared in an
    element body, even a keyword still lacking its value.
    ``close_offset`` is None for a brace never closed."""

    open_offset: int
    close_offset: int | None
    class_name: str
    element_id: int
    member: str | None = None
    present: set[str] = field(default_factory=set)


@dataclass
class Document:
    """One parse of a text: the tree and its diagnostics, plus what
    completion needs from it. The tokens themselves are not kept; only
    the offsets of string literals and the line index survive."""

    root: ModelElement | None
    diagnostics: list[Diagnostic]
    bodies: list[Body]
    strings: list[tuple[int, int]]
    lines: LineIndex


class _Parser:
    def __init__(self, tokens: list[Token], g: Grammar, mm: Metamodel):
        self.tokens = tokens
        self.i = 0
        self.g = g
        self.mm = mm
        self.diagnostics: list[Diagnostic] = []
        self.bodies: list[Body] = []
        self.elements = 0
        self.rules = {name: _RuleInfo(rule) for name, rule in g.rules.items()}
        self.class_keywords = {rule.keyword: name for name, rule in g.rules.items()}

    # -- token access -------------------------------------------------------

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, span: Span) -> None:
        self.diagnostics.append(Diagnostic(ERROR, message, span))

    def warning(self, message: str, span: Span) -> None:
        self.diagnostics.append(Diagnostic(WARNING, message, span))

    def _last_span(self) -> Span:
        if self.tokens:
            tok = self.tokens[min(self.i, len(self.tokens) - 1)]
            return tok.span
        return Span(1, 1, 1, 1)

    # -- document -----------------------------------------------------------

    def parse_root(self) -> ModelElement | None:
        tok = self.peek()
        if tok is None:
            self.error("empty document: expected an element", Span(1, 1, 1, 1))
            return None
        if tok.kind != "Identifier" or tok.lexeme not in self.class_keywords:
            self.error(
                f"expected an element, got '{tok.lexeme}'", tok.span,
            )
            return None
        root = self.parse_element(self.class_keywords[tok.lexeme])
        extra = self.peek()
        if extra is not None:
            self.error(
                f"unexpected text after the top-level element: '{extra.lexeme}'",
                extra.span,
            )
        return root

    def parse_detached(self) -> None:
        """Parse every class keyword left over as a detached element.

        Runs after the top-level element ended early or never started, so
        that the bodies of a damaged document are still recorded. The
        trees and diagnostics of this pass are dropped.
        """
        reported = len(self.diagnostics)
        while (tok := self.peek()) is not None:
            if tok.kind == "Identifier" and tok.lexeme in self.class_keywords:
                self.parse_element(self.class_keywords[tok.lexeme])
            else:
                self.i += 1
        del self.diagnostics[reported:]

    # -- elements -----------------------------------------------------------

    def parse_element(self, class_name: str) -> ModelElement:
        info = self.rules[class_name]
        rule = info.rule
        keyword_tok = self.advance()
        el = ModelElement(class_name=class_name, span=keyword_tok.span)
        self.elements += 1
        element_id = self.elements

        if rule.name_inline:
            tok = self.peek()
            if tok is not None and tok.kind == "Identifier":
                el.short_name = self.advance().lexeme
            else:
                self.error(
                    f"expected a name after '{rule.keyword}'",
                    tok.span if tok else keyword_tok.span,
                )

        tok = self.peek()
        if tok is not None and tok.kind == "{":
            self.advance()
            body = Body(tok.offset, None, class_name, element_id)
            self.bodies.append(body)
            body.close_offset = self.parse_body(el, info, body)
        elif not rule.body_optional:
            self.error(
                f"expected '{{' to open the body of '{rule.keyword}'",
                tok.span if tok else keyword_tok.span,
            )

        self.check_lower_bounds(el, info)
        return el

    def parse_body(self, el: ModelElement, info: _RuleInfo, body: Body) -> int | None:
        """Parse members up to the closing brace; return its offset, or
        None when the text ends first."""
        counts: dict[str, int] = {}
        while True:
            tok = self.peek()
            if tok is None:
                self.error(
                    f"unexpected end of file inside '{info.rule.keyword}'",
                    self._last_span(),
                )
                return None
            if tok.kind == "}":
                self.advance()
                return tok.offset
            self.parse_member_line(el, info, counts, body)

    def parse_member_line(
        self,
        el: ModelElement,
        info: _RuleInfo,
        counts: dict[str, int],
        body: Body,
    ) -> None:
        tok = self.peek()
        assert tok is not None
        rule = info.rule

        if tok.kind == "Identifier":
            entry = info.by_keyword.get(tok.lexeme)
            if entry is not None:
                self.parse_keyworded_member(el, entry, counts, body)
                return
            child_class = self.class_keywords.get(tok.lexeme)
            if child_class is not None:
                self.parse_inline_child(el, info, child_class, counts, body)
                return
            if (
                info.positional is not None
                and info.positional.form.kind is PrimitiveKind.IDENTIFIER  # type: ignore[union-attr]
            ):
                self.take_positional(el, info.positional, counts, body)
                return
            expected = list(info.by_keyword)
            for entry in info.inline:
                expected.extend(sorted(
                    self.g.rules[c].keyword
                    for c in self.mm.concrete_subclasses(entry.form.target)  # type: ignore[union-attr]
                    if c in self.g.rules
                ))
            self.error(
                f"unknown keyword '{tok.lexeme}' in '{rule.keyword}'; "
                "expected one of: " + ", ".join(expected),
                tok.span,
            )
            self.skip_construct(info)
            return

        if tok.kind in ("String", "Boolean", "Numerical", "UUID"):
            pos = info.positional
            if pos is not None and pos.form.kind.value == tok.kind:  # type: ignore[union-attr]
                self.take_positional(el, pos, counts, body)
            else:
                self.error(
                    f"unexpected value '{tok.lexeme}' in '{rule.keyword}'",
                    tok.span,
                )
                self.advance()
            return

        # Stray punctuation at body level.
        self.error(f"unexpected '{tok.lexeme}' in '{rule.keyword}'", tok.span)
        self.advance()

    # -- member forms ---------------------------------------------------------

    def bump(
        self, el: ModelElement, entry: MemberEntry, counts: dict[str, int], tok: Token,
    ) -> bool:
        """Count one occurrence; report a violated upper bound at ``tok``."""
        member = self.mm.member_of(el.class_name, entry.member)
        n = counts.get(entry.member, 0) + 1
        counts[entry.member] = n
        upper = member.upper if member is not None else None
        if upper is not None and n > upper:
            if upper == 1:
                self.error(f"duplicate member '{entry.member}'", tok.span)
            else:
                self.error(
                    f"member '{entry.member}' allows at most {upper} values",
                    tok.span,
                )
            return False
        return True

    def parse_keyworded_member(
        self,
        el: ModelElement,
        entry: MemberEntry,
        counts: dict[str, int],
        body: Body,
    ) -> None:
        keyword_tok = self.advance()
        form = entry.form
        seen = entry.member in body.present
        body.present.add(entry.member)

        if isinstance(form, KeywordAttribute):
            self.parse_attribute_value(el, entry, keyword_tok, counts)
            return

        if isinstance(form, KeywordCrossRef):
            qn, span = self.parse_qualified_name(keyword_tok)
            if qn is not None and self.bump(el, entry, counts, keyword_tok):
                el.cross_refs.append(CrossRef(entry.member, qn, span=span))
            return

        # Wrapped containment: keyword { child ("," child)* }
        if seen:
            self.error(f"duplicate '{entry.member}' block", keyword_tok.span)
        tok = self.peek()
        if tok is None or tok.kind != "{":
            self.error(
                f"expected '{{' after '{entry.member}'",
                tok.span if tok else keyword_tok.span,
            )
            return
        self.advance()
        block = Body(tok.offset, None, form.target, body.element_id, entry.member)
        self.bodies.append(block)
        accepted = set(self.mm.concrete_subclasses(form.target))
        while True:
            tok = self.peek()
            if tok is None:
                self.error(
                    f"unexpected end of file inside '{entry.member}' block",
                    self._last_span(),
                )
                return
            if tok.kind == "}":
                self.advance()
                block.close_offset = tok.offset
                return
            if tok.kind == ",":
                self.advance()
                continue
            child_class = (
                self.class_keywords.get(tok.lexeme)
                if tok.kind == "Identifier" else None
            )
            if child_class is None or child_class not in accepted:
                self.error(
                    f"'{entry.member}' accepts {form.target} elements, "
                    f"got '{tok.lexeme}'",
                    tok.span,
                )
                self.skip_construct()
                continue
            child = self.parse_element(child_class)
            if self.bump(el, entry, counts, tok):
                el.children.append((entry.member, child))

    def parse_attribute_value(
        self,
        el: ModelElement,
        entry: MemberEntry,
        keyword_tok: Token,
        counts: dict[str, int],
    ) -> None:
        kind: PrimitiveKind = entry.form.kind  # type: ignore[union-attr]
        article = "an" if kind is PrimitiveKind.IDENTIFIER else "a"
        tok = self.peek()
        if tok is None or tok.kind in PUNCT:
            self.error(
                f"expected {article} {kind.value} value for '{entry.member}'",
                tok.span if tok else keyword_tok.span,
            )
            return
        tok = self.advance()
        if tok.kind != kind.value:
            self.error(
                f"expected {article} {kind.value} value for '{entry.member}', "
                f"got {tok.kind} '{tok.lexeme}'",
                tok.span,
            )
            return
        if not self.bump(el, entry, counts, tok):
            return
        self.store_attribute(el, entry, tok.lexeme)

    def take_positional(
        self, el: ModelElement, entry: MemberEntry, counts: dict[str, int], body: Body,
    ) -> None:
        body.present.add(entry.member)
        tok = self.advance()
        if self.bump(el, entry, counts, tok):
            self.store_attribute(el, entry, tok.lexeme)

    def store_attribute(self, el: ModelElement, entry: MemberEntry, lexeme: str) -> None:
        if _is_name_slot_entry(entry):
            el.short_name = lexeme
        else:
            el.attributes.append((entry.member, lexeme))

    def parse_qualified_name(
        self, keyword_tok: Token,
    ) -> tuple[QualifiedName | None, Span]:
        tok = self.peek()
        if tok is None or tok.kind != "Identifier":
            self.error(
                "expected a qualified name after "
                f"'{keyword_tok.lexeme}'",
                tok.span if tok else keyword_tok.span,
            )
            return None, keyword_tok.span
        first = self.advance()
        segments = [first.lexeme]
        last = first
        while True:
            tok = self.peek()
            if tok is None or tok.kind != ".":
                break
            self.advance()
            tok = self.peek()
            if tok is None or tok.kind != "Identifier":
                self.error(
                    "qualified name ends with '.'",
                    tok.span if tok else last.span,
                )
                break
            last = self.advance()
            segments.append(last.lexeme)
        span = first.lines.span(first.offset, last.offset + len(last.lexeme))
        return QualifiedName(tuple(segments)), span

    def parse_inline_child(
        self,
        el: ModelElement,
        info: _RuleInfo,
        child_class: str,
        counts: dict[str, int],
        body: Body,
    ) -> None:
        tok = self.peek()
        assert tok is not None
        fitting = [
            e for e in info.inline
            if self.mm.is_subtype(child_class, e.form.target)  # type: ignore[union-attr]
        ]
        if not fitting:
            self.error(
                f"'{info.rule.keyword}' has no containment that accepts "
                f"{child_class}",
                tok.span,
            )
            self.parse_element(child_class)  # consume the whole subtree
            return
        if len(fitting) > 1:
            names = ", ".join(e.member for e in fitting)
            self.warning(
                f"{child_class} fits several containments ({names}); "
                f"using '{fitting[0].member}'",
                tok.span,
            )
        entry = fitting[0]
        body.present.add(entry.member)
        child = self.parse_element(child_class)
        if self.bump(el, entry, counts, tok):
            el.children.append((entry.member, child))

    # -- bookkeeping ----------------------------------------------------------

    def check_lower_bounds(self, el: ModelElement, info: _RuleInfo) -> None:
        present: dict[str, int] = {}
        for member, _ in el.attributes:
            present[member] = present.get(member, 0) + 1
        for ref in el.cross_refs:
            present[ref.member] = present.get(ref.member, 0) + 1
        for member, _ in el.children:
            present[member] = present.get(member, 0) + 1
        if el.short_name is not None:
            present["shortName"] = 1

        for entry in info.rule.entries:
            member = self.mm.member_of(el.class_name, entry.member)
            lower = member.lower if member is not None else (0 if entry.optional else 1)
            if present.get(entry.member, 0) < lower:
                self.error(
                    f"missing mandatory member '{entry.member}' "
                    f"in '{info.rule.keyword}'",
                    el.span or Span(1, 1, 1, 1),
                )

    def skip_construct(self, info: _RuleInfo | None = None) -> None:
        """Drop an unrecognized construct without flooding diagnostics.

        Consumes the offending token and everything up to the next point
        where a construct can start: a member keyword of the enclosing
        rule, a class keyword, a comma, or the closing brace. A braced
        block on the way is swallowed whole.
        """
        self.advance()
        while True:
            tok = self.peek()
            if tok is None or tok.kind in ("}", ","):
                return
            if tok.kind == "{":
                depth = 0
                while True:
                    tok = self.peek()
                    if tok is None:
                        return
                    self.advance()
                    if tok.kind == "{":
                        depth += 1
                    elif tok.kind == "}":
                        depth -= 1
                        if depth == 0:
                            return
            if tok.kind == "Identifier":
                if info is not None and tok.lexeme in info.by_keyword:
                    return
                if tok.lexeme in self.class_keywords:
                    return
            self.advance()


def parse_document(text: str, g: Grammar, mm: Metamodel) -> Document:
    """Lex and parse once, keeping what both checking and completion need."""
    tokens, diagnostics = lex(text, g.terminal_patterns())
    parser = _Parser(tokens, g, mm)
    root = parser.parse_root()
    parser.parse_detached()
    diagnostics.extend(parser.diagnostics)
    if root is not None:
        assign_preorder_ids(root)
    string = PrimitiveKind.STRING.value
    strings = [(t.offset, t.offset + len(t.lexeme)) for t in tokens if t.kind == string]
    lines = tokens[0].lines if tokens else LineIndex(text)
    return Document(root, diagnostics, parser.bodies, strings, lines)


def parse_model(
    text: str, g: Grammar, mm: Metamodel,
) -> tuple[ModelElement | None, list[Diagnostic]]:
    """Parse one top-level element. Always returns every diagnostic found;
    the tree is best-effort and is None only when nothing parseable was
    present at the top level."""
    doc = parse_document(text, g, mm)
    return doc.root, doc.diagnostics


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

def _attribute_lines(el: ModelElement, rule: ProductionRule) -> list[str]:
    lines: list[str] = []
    for entry in rule.entries:
        form = entry.form
        if isinstance(form, KeywordAttribute):
            if _is_name_slot_entry(entry):
                if el.short_name is not None:
                    lines.append(f"shortName {el.short_name}")
                continue
            for value in el.attribute_values(entry.member):
                if value == '""':
                    continue  # empty strings are dropped from text
                if form.keyword is None:
                    lines.append(value)
                else:
                    lines.append(f"{form.keyword} {value}")
        elif isinstance(form, KeywordCrossRef):
            for ref in el.cross_refs:
                if ref.member == entry.member:
                    lines.append(f"{form.keyword} {ref.target.dotted}")
    return lines


def _format_element(el: ModelElement, g: Grammar, indent: int, out: list[str]) -> None:
    rule = g.rules.get(el.class_name)
    if rule is None:
        raise SerializationError(f"no production rule for class '{el.class_name}'")
    pad = INDENT * indent

    header = rule.keyword
    if rule.name_inline and el.short_name:
        header += f" {el.short_name}"

    body: list[str] = [pad + INDENT + line for line in _attribute_lines(el, rule)]

    # Children in document order. Consecutive children of one wrapped member
    # share a single keyword block; inline children print directly.
    runs: list[tuple[str, list[ModelElement]]] = []
    for member, child in el.children:
        if runs and runs[-1][0] == member:
            runs[-1][1].append(child)
        else:
            runs.append((member, [child]))
    for member, children in runs:
        entry = rule.entry_for(member)
        if entry is None:
            raise SerializationError(
                f"class '{el.class_name}' has no grammar entry for "
                f"containment '{member}'"
            )
        if isinstance(entry.form, InlineContainment):
            for child in children:
                _format_element(child, g, indent + 1, body)
        else:
            form = entry.form
            assert isinstance(form, WrappedContainment)
            body.append(pad + INDENT + form.keyword)
            body.append(pad + INDENT + "{")
            for pos, child in enumerate(children):
                if pos:
                    body.append(pad + INDENT * 2 + ",")
                _format_element(child, g, indent + 2, body)
            body.append(pad + INDENT + "}")

    if not body and rule.body_optional:
        out.append(pad + header)
        return
    out.append(pad + header)
    out.append(pad + "{")
    out.extend(body)
    out.append(pad + "}")


def format_model(root: ModelElement, g: Grammar) -> str:
    """Canonical text for a model tree. Ends with a newline."""
    out: list[str] = []
    _format_element(root, g, 0, out)
    return "\n".join(out) + "\n"

"""Lexing, parsing and pretty-printing of textual instance models.

The lexer knows five value terminals plus four punctuation marks and line
comments. Keywords are not a lexical category: every word comes out as an
Identifier token and the parser promotes it by context, so member names
never clash with class names. :func:`lex` returns :class:`Tokens`: the
kinds, lexemes and start offsets of the tokens in three parallel lists,
plus the line index of the text. Indexing or iterating it builds
:class:`Token` views for callers that want one object per token; the
parser reads the lists by index and builds none. Line:col spans are
computed from offsets only when needed: for element and cross-reference
positions and for diagnostics.

The parser is a recursive-descent interpreter over the grammar IR. It is
deliberately forgiving: every problem becomes a diagnostic with a span,
and an unparseable construct is skipped as a whole so that one typo does
not cascade. It builds the tables of a class's rule (member keywords,
bounds, accepted child classes) when it first meets the class. Besides
the tree it records one :class:`Body` per brace pair it opens, with the
members present in it, so that completion reads the cursor's container
from the same parse. Nesting deeper than the interpreter's recursion
limit allows becomes one error diagnostic instead of a crash.

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

    def span(self, start: int, end: int) -> Span:
        starts = self.starts
        line = bisect_right(starts, start)
        end_line = bisect_right(starts, end)
        return Span(
            line, start - starts[line - 1] + 1, end_line, end - starts[end_line - 1] + 1,
        )

    def offset(self, line: int, col: int) -> int:
        """Offset of a 1-based position; the caller checks the range."""
        return self.starts[line - 1] + col - 1


class Token:
    """A view of one token of :class:`Tokens`: its kind (a PrimitiveKind
    value name, or one of ``{`` ``}`` ``,`` ``.``), lexeme and start
    offset. Its :class:`Span` is built only when read."""

    __slots__ = ("kind", "lexeme", "offset", "lines")

    def __init__(self, kind: str, lexeme: str, offset: int, lines: LineIndex):
        self.kind = kind
        self.lexeme = lexeme
        self.offset = offset
        self.lines = lines

    @property
    def span(self) -> Span:
        return self.lines.span(self.offset, self.offset + len(self.lexeme))


class Tokens:
    """The tokens of one text, column by column: three parallel lists
    (kind, lexeme and start offset of each token) and the text's line
    index. Indexing builds a :class:`Token` view (and so does iteration,
    which indexes until ``IndexError``); the parser reads the lists."""

    __slots__ = ("kinds", "lexemes", "offsets", "lines")

    def __init__(
        self, kinds: list[str], lexemes: list[str], offsets: list[int], lines: LineIndex,
    ):
        self.kinds = kinds
        self.lexemes = lexemes
        self.offsets = offsets
        self.lines = lines

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i: int) -> Token:
        return Token(self.kinds[i], self.lexemes[i], self.offsets[i], self.lines)


def lex(
    text: str, terminals: dict[PrimitiveKind, str],
) -> tuple[Tokens, list[Diagnostic]]:
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
    kinds: list[str] = []
    lexemes: list[str] = []
    offsets: list[int] = []
    diagnostics: list[Diagnostic] = []
    add_kind, add_lexeme, add_offset = kinds.append, lexemes.append, offsets.append
    skip = _SKIP.match

    n = len(text)
    pos = skip(text, 0).end()
    while pos < n:
        ch = text[pos]
        if ch in PUNCT:
            add_kind(ch)
            add_lexeme(ch)
            add_offset(pos)
            pos = skip(text, pos + 1).end()
            continue
        best_kind = None
        best_end = pos
        for kind, match in matchers:
            m = match(text, pos)
            if m is not None and (end := m.end()) > best_end:
                best_kind, best_end = kind, end
        if best_kind is None:
            diagnostics.append(Diagnostic(
                ERROR, f"cannot read character {ch!r}", lines.span(pos, pos + 1),
            ))
            best_end = _UNLEXABLE.match(text, pos).end()
        else:
            add_kind(best_kind)
            add_lexeme(text[pos:best_end])
            add_offset(pos)
        pos = skip(text, best_end).end()

    return Tokens(kinds, lexemes, offsets, lines), diagnostics


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# The kind of the sentinel the parser reads after the last token.
_END = "<end>"


def _is_name_slot_entry(entry: MemberEntry) -> bool:
    return (
        entry.member == "shortName"
        and isinstance(entry.form, KeywordAttribute)
        and entry.form.kind is PrimitiveKind.IDENTIFIER
    )


class _RuleInfo:
    """The tables of one class's rule, built when the parser first meets
    the class: dispatch by member keyword, the value kind and bounds of
    each member, the classes each wrapped block accepts and, filled per
    child class, the inline containments a child fits.

    A rule whose class the metamodel lacks raises MetamodelError here,
    unless the rule has no entries."""

    def __init__(self, class_name: str, rule: ProductionRule, mm: Metamodel):
        self.rule = rule
        self.by_keyword: dict[str, MemberEntry] = {}
        self.inline: list[MemberEntry] = []
        self.positional: MemberEntry | None = None
        self.upper: dict[str, int | None] = {}
        self.lower: list[tuple[str, int]] = []
        self.accepted: dict[str, set[str]] = {}
        self.fitting: dict[str, list[MemberEntry]] = {}
        self.value_kind: dict[str, str] = {}
        for entry in rule.entries:
            form = entry.form
            if isinstance(form, InlineContainment):
                self.inline.append(entry)
            elif isinstance(form, KeywordAttribute) and form.keyword is None:
                self.positional = entry
            else:
                self.by_keyword[form.keyword] = entry  # type: ignore[union-attr]
            if isinstance(form, KeywordAttribute):
                self.value_kind[entry.member] = form.kind.value
            elif isinstance(form, WrappedContainment):
                self.accepted[entry.member] = set(mm.concrete_subclasses(form.target))
            member = mm.member_of(class_name, entry.member)
            if member is None:
                upper, lower = None, (0 if entry.optional else 1)
            else:
                upper, lower = member.upper, member.lower
            self.upper[entry.member] = upper
            if lower > 0:
                self.lower.append((entry.member, lower))


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
    """Recursive descent over the token columns. ``i`` indexes the next
    token; the lists end with an ``_END`` sentinel, so reading past the
    last token needs no bounds check."""

    def __init__(self, tokens: Tokens, g: Grammar, mm: Metamodel):
        self.kinds = tokens.kinds + [_END]
        self.lexemes = tokens.lexemes + [""]
        self.offsets = tokens.offsets
        self.lines = tokens.lines
        self.n = len(tokens)
        self.i = 0
        self.g = g
        self.mm = mm
        self.diagnostics: list[Diagnostic] = []
        self.bodies: list[Body] = []
        self.elements = 0
        self.rules: dict[str, _RuleInfo] = {}
        self.class_keywords = {rule.keyword: name for name, rule in g.rules.items()}

    # -- positions ------------------------------------------------------------

    def span(self, i: int) -> Span:
        """Span of token ``i``, or of the last token for the sentinel:
        at the end of the text, a problem is reported at the last token."""
        if i >= self.n:
            if not self.n:
                return Span(1, 1, 1, 1)
            i = self.n - 1
        start = self.offsets[i]
        return self.lines.span(start, start + len(self.lexemes[i]))

    def error(self, message: str, span: Span) -> None:
        self.diagnostics.append(Diagnostic(ERROR, message, span))

    def warning(self, message: str, span: Span) -> None:
        self.diagnostics.append(Diagnostic(WARNING, message, span))

    # -- document -----------------------------------------------------------

    def parse_root(self) -> ModelElement | None:
        kind = self.kinds[0]
        if kind == _END:
            self.error("empty document: expected an element", Span(1, 1, 1, 1))
            return None
        lexeme = self.lexemes[0]
        if kind != "Identifier" or lexeme not in self.class_keywords:
            self.error(f"expected an element, got '{lexeme}'", self.span(0))
            return None
        root = self.parse_element(self.class_keywords[lexeme])
        if self.kinds[self.i] != _END:
            self.error(
                "unexpected text after the top-level element: "
                f"'{self.lexemes[self.i]}'",
                self.span(self.i),
            )
        return root

    def parse_detached(self) -> None:
        """Parse every class keyword left over as a detached element.

        Runs after the top-level element ended early or never started, so
        that the bodies of a damaged document are still recorded. The
        trees and diagnostics of this pass are dropped.
        """
        kinds, lexemes, class_keywords = self.kinds, self.lexemes, self.class_keywords
        reported = len(self.diagnostics)
        try:
            while (kind := kinds[self.i]) != _END:
                class_name = class_keywords.get(lexemes[self.i])
                if kind == "Identifier" and class_name is not None:
                    self.parse_element(class_name)
                else:
                    self.i += 1
        finally:
            del self.diagnostics[reported:]

    # -- elements -----------------------------------------------------------

    def parse_element(self, class_name: str) -> ModelElement:
        """Parse the element whose class keyword is the next token."""
        info = self.rules.get(class_name)
        if info is None:
            info = self.rules[class_name] = _RuleInfo(
                class_name, self.g.rules[class_name], self.mm,
            )
        rule = info.rule
        kinds = self.kinds
        i = self.i
        start = self.offsets[i]
        span = self.lines.span(start, start + len(self.lexemes[i]))
        el = ModelElement(class_name=class_name, span=span)
        self.elements += 1
        element_id = self.elements
        i += 1

        if rule.name_inline:
            if kinds[i] == "Identifier":
                el.short_name = self.lexemes[i]
                i += 1
            else:
                self.error(f"expected a name after '{rule.keyword}'", self.span(i))

        counts: dict[str, int] = {}
        if kinds[i] == "{":
            self.i = i + 1
            body = Body(self.offsets[i], None, class_name, element_id)
            self.bodies.append(body)
            # Members up to the closing brace, or to the end of the text.
            while True:
                kind = kinds[self.i]
                if kind == "}":
                    body.close_offset = self.offsets[self.i]
                    self.i += 1
                    break
                if kind == _END:
                    self.error(
                        f"unexpected end of file inside '{rule.keyword}'",
                        self.span(self.i),
                    )
                    break
                self.parse_member_line(el, info, counts, body)
        else:
            self.i = i
            if not rule.body_optional:
                self.error(
                    f"expected '{{' to open the body of '{rule.keyword}'",
                    span if kinds[i] == _END else self.span(i),
                )

        if info.lower:
            self.check_lower_bounds(el, info, counts)
        return el

    def parse_member_line(
        self,
        el: ModelElement,
        info: _RuleInfo,
        counts: dict[str, int],
        body: Body,
    ) -> None:
        i = self.i
        kind = self.kinds[i]
        lexeme = self.lexemes[i]
        rule = info.rule

        if kind == "Identifier":
            entry = info.by_keyword.get(lexeme)
            if entry is not None:
                self.parse_keyworded_member(el, info, entry, counts, body)
                return
            child_class = self.class_keywords.get(lexeme)
            if child_class is not None:
                self.parse_inline_child(el, info, child_class, counts, body)
                return
            if (
                info.positional is not None
                and info.positional.form.kind is PrimitiveKind.IDENTIFIER  # type: ignore[union-attr]
            ):
                self.take_positional(el, info, info.positional, counts, body)
                return
            expected = list(info.by_keyword)
            for entry in info.inline:
                expected.extend(sorted(
                    self.g.rules[c].keyword
                    for c in self.mm.concrete_subclasses(entry.form.target)  # type: ignore[union-attr]
                    if c in self.g.rules
                ))
            self.error(
                f"unknown keyword '{lexeme}' in '{rule.keyword}'; "
                "expected one of: " + ", ".join(expected),
                self.span(i),
            )
            self.skip_construct(info)
            return

        if kind in ("String", "Boolean", "Numerical", "UUID"):
            pos = info.positional
            if pos is not None and info.value_kind[pos.member] == kind:
                self.take_positional(el, info, pos, counts, body)
            else:
                self.error(f"unexpected value '{lexeme}' in '{rule.keyword}'", self.span(i))
                self.i = i + 1
            return

        # Stray punctuation at body level.
        self.error(f"unexpected '{lexeme}' in '{rule.keyword}'", self.span(i))
        self.i = i + 1

    # -- member forms ---------------------------------------------------------

    def bump(
        self, info: _RuleInfo, entry: MemberEntry, counts: dict[str, int], i: int,
    ) -> bool:
        """Count one occurrence; report a violated upper bound at token ``i``."""
        member = entry.member
        n = counts.get(member, 0) + 1
        counts[member] = n
        upper = info.upper[member]
        if upper is not None and n > upper:
            if upper == 1:
                self.error(f"duplicate member '{member}'", self.span(i))
            else:
                self.error(f"member '{member}' allows at most {upper} values", self.span(i))
            return False
        return True

    def parse_keyworded_member(
        self,
        el: ModelElement,
        info: _RuleInfo,
        entry: MemberEntry,
        counts: dict[str, int],
        body: Body,
    ) -> None:
        keyword = self.i
        self.i += 1
        form = entry.form
        seen = entry.member in body.present
        body.present.add(entry.member)

        if isinstance(form, KeywordAttribute):
            self.parse_attribute_value(el, info, entry, keyword, counts)
            return

        if isinstance(form, KeywordCrossRef):
            qn, span = self.parse_qualified_name(keyword)
            if qn is not None and self.bump(info, entry, counts, keyword):
                el.cross_refs.append(CrossRef(entry.member, qn, span=span))
            return

        # Wrapped containment: keyword { child ("," child)* }
        if seen:
            self.error(f"duplicate '{entry.member}' block", self.span(keyword))
        kinds, lexemes = self.kinds, self.lexemes
        i = self.i
        if kinds[i] != "{":
            self.error(f"expected '{{' after '{entry.member}'", self.span(i))
            return
        self.i = i + 1
        block = Body(self.offsets[i], None, form.target, body.element_id, entry.member)
        self.bodies.append(block)
        accepted = info.accepted[entry.member]
        while True:
            i = self.i
            kind = kinds[i]
            if kind == _END:
                self.error(
                    f"unexpected end of file inside '{entry.member}' block", self.span(i),
                )
                return
            if kind == "}":
                self.i = i + 1
                block.close_offset = self.offsets[i]
                return
            if kind == ",":
                self.i = i + 1
                continue
            child_class = (
                self.class_keywords.get(lexemes[i]) if kind == "Identifier" else None
            )
            if child_class is None or child_class not in accepted:
                self.error(
                    f"'{entry.member}' accepts {form.target} elements, "
                    f"got '{lexemes[i]}'",
                    self.span(i),
                )
                self.skip_construct()
                continue
            child = self.parse_element(child_class)
            if self.bump(info, entry, counts, i):
                el.children.append((entry.member, child))

    def parse_attribute_value(
        self,
        el: ModelElement,
        info: _RuleInfo,
        entry: MemberEntry,
        keyword: int,
        counts: dict[str, int],
    ) -> None:
        kind = info.value_kind[entry.member]
        i = self.i
        got = self.kinds[i]
        if got != kind:
            article = "an" if kind == "Identifier" else "a"
            if got == _END or got in PUNCT:
                self.error(
                    f"expected {article} {kind} value for '{entry.member}'", self.span(i),
                )
                return
            self.i = i + 1
            self.error(
                f"expected {article} {kind} value for '{entry.member}', "
                f"got {got} '{self.lexemes[i]}'",
                self.span(i),
            )
            return
        self.i = i + 1
        if self.bump(info, entry, counts, i):
            self.store_attribute(el, entry, self.lexemes[i])

    def take_positional(
        self,
        el: ModelElement,
        info: _RuleInfo,
        entry: MemberEntry,
        counts: dict[str, int],
        body: Body,
    ) -> None:
        body.present.add(entry.member)
        i = self.i
        self.i = i + 1
        if self.bump(info, entry, counts, i):
            self.store_attribute(el, entry, self.lexemes[i])

    def store_attribute(self, el: ModelElement, entry: MemberEntry, lexeme: str) -> None:
        if _is_name_slot_entry(entry):
            el.short_name = lexeme
        else:
            el.attributes.append((entry.member, lexeme))

    def parse_qualified_name(
        self, keyword: int,
    ) -> tuple[QualifiedName | None, Span | None]:
        kinds, lexemes = self.kinds, self.lexemes
        i = self.i
        if kinds[i] != "Identifier":
            self.error(
                f"expected a qualified name after '{lexemes[keyword]}'", self.span(i),
            )
            return None, None
        first = last = i
        segments = [lexemes[i]]
        i += 1
        while kinds[i] == ".":
            i += 1
            if kinds[i] != "Identifier":
                self.error(
                    "qualified name ends with '.'",
                    self.span(last if kinds[i] == _END else i),
                )
                break
            last = i
            segments.append(lexemes[i])
            i += 1
        self.i = i
        start = self.offsets[first]
        end = self.offsets[last] + len(lexemes[last])
        return QualifiedName(tuple(segments)), self.lines.span(start, end)

    def parse_inline_child(
        self,
        el: ModelElement,
        info: _RuleInfo,
        child_class: str,
        counts: dict[str, int],
        body: Body,
    ) -> None:
        i = self.i
        fitting = info.fitting.get(child_class)
        if fitting is None:
            fitting = info.fitting[child_class] = [
                e for e in info.inline
                if self.mm.is_subtype(child_class, e.form.target)  # type: ignore[union-attr]
            ]
        if not fitting:
            self.error(
                f"'{info.rule.keyword}' has no containment that accepts "
                f"{child_class}",
                self.span(i),
            )
            self.parse_element(child_class)  # consume the whole subtree
            return
        if len(fitting) > 1:
            names = ", ".join(e.member for e in fitting)
            self.warning(
                f"{child_class} fits several containments ({names}); "
                f"using '{fitting[0].member}'",
                self.span(i),
            )
        entry = fitting[0]
        body.present.add(entry.member)
        child = self.parse_element(child_class)
        if self.bump(info, entry, counts, i):
            el.children.append((entry.member, child))

    # -- bookkeeping ----------------------------------------------------------

    def check_lower_bounds(
        self, el: ModelElement, info: _RuleInfo, counts: dict[str, int],
    ) -> None:
        """Report every member occurring fewer times than its lower bound.

        ``counts`` counts occurrences, stored or not; since no upper bound
        lies below its lower bound, it is short of a lower bound exactly
        when the stored values are. The name counts once when set.
        """
        for member, lower in info.lower:
            n = counts.get(member, 0)
            if member == "shortName" and el.short_name is not None:
                n = 1
            if n < lower:
                self.error(
                    f"missing mandatory member '{member}' in '{info.rule.keyword}'",
                    el.span,  # type: ignore[arg-type]
                )

    def skip_construct(self, info: _RuleInfo | None = None) -> None:
        """Drop an unrecognized construct without flooding diagnostics.

        Consumes the offending token and everything up to the next point
        where a construct can start: a member keyword of the enclosing
        rule, a class keyword, a comma, or the closing brace. A braced
        block on the way is swallowed whole.
        """
        kinds, lexemes = self.kinds, self.lexemes
        i = self.i + 1
        while True:
            kind = kinds[i]
            if kind == _END or kind == "}" or kind == ",":
                break
            if kind == "{":
                depth = 0
                while (kind := kinds[i]) != _END:
                    i += 1
                    if kind == "{":
                        depth += 1
                    elif kind == "}":
                        depth -= 1
                        if depth == 0:
                            break
                break
            if kind == "Identifier":
                lexeme = lexemes[i]
                if info is not None and lexeme in info.by_keyword:
                    break
                if lexeme in self.class_keywords:
                    break
            i += 1
        self.i = i


def parse_document(text: str, g: Grammar, mm: Metamodel) -> Document:
    """Lex and parse once, keeping what both checking and completion need.

    Nesting deeper than the interpreter's recursion limit allows ends the
    parse with one error at the token reached; the root is then None and
    the bodies opened so far are kept."""
    tokens, diagnostics = lex(text, g.terminal_patterns())
    parser = _Parser(tokens, g, mm)
    try:
        root = parser.parse_root()
        parser.parse_detached()
    except RecursionError:
        root = None
        parser.error("elements nested too deeply", parser.span(parser.i))
    diagnostics.extend(parser.diagnostics)
    if root is not None:
        assign_preorder_ids(root)
    string = PrimitiveKind.STRING.value
    strings = [
        (offset, offset + len(lexeme))
        for kind, lexeme, offset in zip(tokens.kinds, tokens.lexemes, tokens.offsets)
        if kind == string
    ]
    return Document(root, diagnostics, parser.bodies, strings, tokens.lines)


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

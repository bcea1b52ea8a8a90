"""Lexing, parsing and pretty-printing of textual instance models.

The lexer knows five value terminals plus four punctuation marks and line
comments. Keywords are not a lexical category: every word comes out as an
Identifier token and the parser promotes it by context, so member names
never clash with class names. It scans with one regex built from the
grammar's terminals: skip whitespace and comments, then take the first
of punctuation, each terminal in tie-break order, or an unlexable run.
So most tokens cost one regex step; a token that a later kind could
still outbid with a longer match is checked against that kind's own
pattern. A terminal pattern that would mean something else as a branch
of that regex (a numbered backreference or conditional, a named group,
an inline flag) is kept out of it and tried on its own at every token.
:class:`Tokens` holds the kinds, lexemes and start offsets of the tokens
in three parallel lists, plus the line index of the text and the offsets
of its string literals, and lexes them a batch at a time, on demand;
:func:`lex` drains it. The parser reads the lists by index, and deletes
the tokens it has passed from their front, so that they hold a window of
about two batches. Elements and cross-references keep offsets too; only
a diagnostic holds a line:col, which :class:`LineIndex`, the one owner
of positions, places.

The parser interprets the grammar IR in one loop over the tokens and an
explicit stack of the elements whose body is open, so nesting depth has
no bound but memory. It is deliberately forgiving: every problem becomes
a diagnostic with a span, and an unparseable construct is skipped as a
whole so that one typo does not cascade. It builds the tables of a
class's rule (how each member keyword's value is read, bounds, accepted
child classes) when it first meets the class, and numbers the elements
it keeps in pre-order as it opens them. Besides the tree it records one
:class:`Body` per brace pair it opens, with the members present in it,
so that completion reads the cursor's container from the same parse.

A :class:`Parser` goes only as far as it is pulled, and lexes only the
tokens it reads: one generator parses the whole text, the top level
included, and stops after each element it opens. It decides whether a
child is kept when the child opens, so the tree it has built at any stop
is a prefix of the final pre-order. :func:`parse_document` pulls it to
the end of the text and returns it; completion pulls it until the
cursor's container has closed, and its reference lookups pull on only as
far as the first fitting element.

The formatter is the inverse direction and defines the canonical layout:
four-space indents, braces on their own lines, one construct per line.
Formatting canonical text is the identity. It is the one writer of model
text: completion templates are skeleton elements that it formats.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from itertools import islice
from typing import Iterator

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
from .model import CrossRef, ModelElement, QualifiedName

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
# Builds a named tuple without its Python-level ``__new__``: the parser
# makes a QualifiedName per reference.
_new_tuple = tuple.__new__
# Whitespace and ``//`` comments between tokens, in one match that never
# backtracks: possessive quantifiers, which need Python 3.11's ``re``.
_SKIP = r"[ \t\r\n]*+(?://[^\n]*+\n?[ \t\r\n]*+)*+"
# Scanner matches per lexer batch: a parser that stops early has lexed at
# most this many tokens past the last one it read.
_BATCH = 1024
# An unlexable run: scanning resumes at the next whitespace.
_UNLEXABLE = r"[^ \t\r\n]*"
# Terminal patterns that would change meaning as a branch of the scanner:
# numbered backreferences and conditionals (group numbers shift), named
# groups (names may collide) and inline flags, which are global unless
# scoped. The text is read rather than the compiled flags, which do not
# show ``(?u)``; scoped flags and octal escapes are kept out too.
_KEPT_OUT = r"\\[0-9]|\(\?[(P]|\(\?[aiLmsux]"


class LineIndex:
    """Offsets to and from 1-based (line, col) positions of one text, by
    bisection over its line starts: the one owner of positions. It finds
    each line start once, and only as far as asked: up to the end that
    :meth:`span` places, or the line of :meth:`start` or :meth:`offset`."""

    __slots__ = ("_text", "_starts", "_found")

    def __init__(self, text: str):
        self._text = text
        self._starts = [0]
        self._found = 0  # every line start up to this offset is in _starts

    def _find(self, offset: int) -> list[int]:
        """The line starts, every one up to ``offset`` found."""
        starts = self._starts
        if offset > self._found:
            starts += [m.end() for m in _NEWLINE.finditer(self._text, self._found, offset)]
            self._found = offset
        return starts

    def start(self, line: int) -> int | None:
        """Offset where 1-based ``line`` starts, or None when the text has
        no such line. Newlines are found only up to that line; there is at
        most one a character, a count that ``islice`` takes."""
        starts, text = self._starts, self._text
        if line > len(starts) and self._found < len(text):
            wanted = islice(_NEWLINE.finditer(text, self._found), min(line - len(starts), len(text)))
            starts += [m.end() for m in wanted]
            self._found = starts[-1] if line <= len(starts) else len(text)
        return starts[line - 1] if 1 <= line <= len(starts) else None

    def span(self, start: int, end: int) -> Span:
        starts = self._find(end)
        line = bisect_right(starts, start)
        end_line = bisect_right(starts, end)
        return Span(line, start - starts[line - 1] + 1, end_line, end - starts[end_line - 1] + 1)

    def offset(self, line: int, col: int) -> int:
        """Offset of a 1-based position in the text, with line starts found
        only up to it. Outside the text, a ValueError gives the range."""
        start = self.start(line)
        if start is None:
            raise ValueError(f"line {line} out of range (1..{len(self._find(len(self._text)))})")
        offset = start + col - 1
        if col < 1 or offset > len(self._text) or bisect_right(self._find(offset), offset) > line:
            width = (self.start(line + 1) or len(self._text) + 1) - start
            raise ValueError(f"column {col} out of range (1..{width}) on line {line}")
        return offset


class Tokens:
    """The tokens of one text, column by column: three parallel lists, the
    text's line index, the start and end offsets of its String tokens and
    the lexer's diagnostics. A token's kind is a PrimitiveKind value name
    or one of ``{`` ``}`` ``,`` ``.``; its offset is where its lexeme
    starts.

    The lists start empty and grow a batch at a time: :meth:`more` lexes on
    from where the last batch ended, so that a parser reads only as much
    of the text as it asks for. :func:`lex` drains them. A parser deletes
    the tokens it has passed from the front of the lists and adds their
    number to ``dropped``, so ``len`` counts every token lexed."""

    __slots__ = (
        "kinds", "lexemes", "offsets", "lines", "strings", "diagnostics", "dropped", "_text",
        "_pos", "_scanner",
    )

    def __init__(self, text: str, terminals: dict[PrimitiveKind, str]):
        missing = [k.value for k in PrimitiveKind if k not in terminals]
        if missing:
            raise ConfigError(
                "lexer needs a pattern for every terminal kind; missing: "
                + ", ".join(missing)
            )
        self._scanner = _scanner(terminals)
        self._text = text
        self._pos = 0
        self.lines = LineIndex(text)
        self.kinds: list[str] = []
        self.lexemes: list[str] = []
        self.offsets: list[int] = []
        self.strings: list[tuple[int, int]] = []
        self.diagnostics: list[Diagnostic] = []
        self.dropped = 0

    def __len__(self) -> int:
        return self.dropped + len(self.kinds)

    def more(self) -> bool:
        """Lex the next batch of about ``_BATCH`` tokens; False, lexing
        nothing, once the text is used up."""
        text = self._text
        n = len(text)
        pos = self._pos
        if pos >= n:
            return False
        finditer, sure, rivals = self._scanner
        add_kind, add_lexeme = self.kinds.append, self.lexemes.append
        add_offset, strings = self.offsets.append, self.strings
        string = PrimitiveKind.STRING.value

        # The scanner matches at every position, its last branch possibly
        # empty, so ``finditer`` never skips text. A pass ends at the end of
        # the text, where a token ends elsewhere than the scanner's match,
        # or after a batch of matches, each a token, a diagnostic or the end.
        while pos < n:
            resume, pos = pos, n
            for m in islice(finditer(text, resume), _BATCH):
                g = m.lastindex
                kind = sure[g]
                if kind is not None:
                    lexeme = m[g]
                    if lexeme:
                        add_kind(kind or lexeme)
                        add_lexeme(lexeme)
                        add_offset(m.start(g))
                        continue
                # An empty match, a kind that may be outbid, or no kind at all.
                start, end = m.span(g)
                best_kind = None
                best_end = start
                for other, match in rivals[g] or ():
                    if match is None:
                        other_end = end
                    elif (other_match := match(text, start)) is None:
                        continue
                    else:
                        other_end = other_match.end()
                    if other_end > best_end:
                        best_kind, best_end = other, other_end
                if best_kind is not None:
                    add_kind(best_kind)
                    add_lexeme(text[start:best_end])
                    add_offset(start)
                    if best_kind == string:  # never a sure kind
                        strings.append((start, best_end))
                elif start == n:
                    break
                else:
                    self.diagnostics.append(Diagnostic(
                        ERROR, f"cannot read character {text[start]!r}",
                        self.lines.span(start, start + 1),
                    ))
                    best_end = re.compile(_UNLEXABLE).match(text, start).end()
                if best_end != end:
                    pos = best_end  # the token ends elsewhere: rescan from there
                    break
            else:
                pos = m.end()  # the batch is full; the text goes on
                break
        self._pos = pos
        return True


def _scanner(terminals: dict[PrimitiveKind, str]) -> tuple:
    """The scanner regex of one set of terminals and what its groups mean.

    Returns the scanner's ``finditer`` and two lists indexed by group.
    ``sure`` holds the kind of a token that no other kind can outbid (""
    for punctuation, whose lexeme is its kind); every kind but the last
    has a later rival, so only an Identifier can be sure. ``rivals``
    holds, for any other group that ends a match, the kinds to try there
    in priority order, as (kind, match) pairs in which None stands for
    the scanner's own match. The last group is the unlexable run; its
    rivals are the kinds kept out of the alternation.
    """
    source = [f"{_SKIP}(?:([{re.escape(PUNCT)}])"]
    sure: list[str | None] = [None, ""]
    contenders = []  # (kind, match, its group, or None when kept out)
    for kind in _PRIORITY:
        pattern = terminals[kind]
        compiled = re.compile(pattern)
        group = None
        if not re.search(_KEPT_OUT, pattern):
            group = len(sure)
            source.append(f"|({pattern})")
            sure += [None] * (compiled.groups + 1)
        contenders.append((kind.value, compiled.match, group))
    source.append(f"|({_UNLEXABLE}))")
    sure.append(None)
    rivals: list[list | None] = [None] * len(sure)
    rivals[-1] = [(value, match) for value, match, group in contenders if group is None]
    for rank, (value, _, group) in enumerate(contenders):
        if group is None:
            continue
        tried = [
            (other, None if at == rank else match)
            for at, (other, match, other_group) in enumerate(contenders)
            if at >= rank or other_group is None
        ]
        if len(tried) == 1:
            sure[group] = value
        else:
            rivals[group] = tried
    return re.compile("".join(source)).finditer, sure, rivals


def lex(
    text: str, terminals: dict[PrimitiveKind, str],
) -> tuple[Tokens, list[Diagnostic]]:
    """Tokenize with longest-match semantics, one pattern per terminal kind.

    One scanner regex, compiled once per grammar by ``re``'s cache, skips
    whitespace and comments and takes the first of: punctuation, each
    terminal in ``_PRIORITY`` order, an unlexable run. An alternation
    takes its first branch that matches, with that branch's own match, so
    no kind before it matches here. Only a later kind can still win, by
    matching strictly longer, and only those are tried with their own
    pattern: none for an Identifier, the last kind. A pattern in which a
    group number, a group name or an inline flag would change meaning is
    kept out of the alternation and tried with its own pattern at every
    token. A match of no characters never counts.

    An unlexable character yields one error diagnostic; scanning resumes
    at the next whitespace. ``//`` comments are dropped. Lexes the whole
    text, batch after batch.
    """
    tokens = Tokens(text, terminals)
    while tokens.more():
        pass
    return tokens, tokens.diagnostics


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# The kind of the sentinel the parser reads after the last token.
_END = "<end>"
# How many tokens past token i one turn of the parser's loop may read
# without asking the lexer for more (``Parser.fill``).
_LOOKAHEAD = 3
# How the parser reads the value of a member keyword (``_RuleInfo``).
_VALUE, _NAME, _REFERENCE, _BLOCK = "value", "name", "reference", "block"
# The upper bound of a repeatable member, above every count.
_UNBOUNDED = sys.maxsize
# Value kinds that a stray token at body level may have.
_LITERALS = ("String", "Boolean", "Numerical", "UUID")


class _RuleInfo:
    """The tables of one class's rule, built when the parser first meets
    the class.

    ``by_keyword`` maps each member keyword to how its value is read, as
    ``(form, member, upper bound, kind or target class)``. A ``_VALUE``
    is a token of the kind, and so is a ``_NAME``, which is stored as the
    short name; a ``_REFERENCE`` is a qualified name; a ``_BLOCK`` opens a
    wrapped block of target elements. ``positional`` is the value written
    without a keyword, if any, in the same form. Then come the upper bound
    of each member (``_UNBOUNDED`` for none), the lower bounds above zero,
    the classes each wrapped block accepts and, filled per child class,
    the inline containments a child fits. ``body_names`` says whether a
    value in the body can set the name, and ``renames`` whether one can
    replace a name already set: after an inline name, or when the name
    allows several values, each of which replaces the last.

    A rule whose class the metamodel lacks raises MetamodelError here,
    unless the rule has no entries."""

    __slots__ = (
        "rule", "by_keyword", "positional", "inline", "upper", "lower", "accepted", "fitting",
        "body_names", "renames",
    )

    def __init__(self, class_name: str, rule: ProductionRule, mm: Metamodel):
        self.rule = rule
        self.by_keyword: dict[str, tuple] = {}
        self.positional: tuple | None = None
        self.inline: list[MemberEntry] = []
        self.upper: dict[str, int] = {}
        self.lower: list[tuple[str, int]] = []
        self.accepted: dict[str, set[str]] = {}
        self.fitting: dict[str, list[str]] = {}
        self.body_names = self.renames = False
        for entry in rule.entries:
            member = mm.member_of(class_name, entry.member)
            if member is None:
                upper, lower = None, (0 if entry.optional else 1)
            else:
                upper, lower = member.upper, member.lower
            upper = _UNBOUNDED if upper is None else upper
            self.upper[entry.member] = upper
            if lower > 0:
                self.lower.append((entry.member, lower))
            form = entry.form
            if isinstance(form, InlineContainment):
                self.inline.append(entry)
            elif isinstance(form, KeywordAttribute):
                read = _VALUE
                if entry.is_name_slot():
                    read = _NAME
                    self.body_names = True
                    self.renames |= rule.name_inline or upper > 1
                action = (read, entry.member, upper, form.kind.value)
                if form.keyword is None:
                    self.positional = action
                else:
                    self.by_keyword[form.keyword] = action
            elif isinstance(form, KeywordCrossRef):
                self.by_keyword[form.keyword] = (_REFERENCE, entry.member, upper, form.target)
            else:
                self.accepted[entry.member] = set(mm.concrete_subclasses(form.target))
                self.by_keyword[form.keyword] = (_BLOCK, entry.member, upper, form.target)


class Body:
    """One brace pair the parser opened: an element body, or a wrapped
    ``member { ... }`` block (then ``class_name`` is the block's target).
    ``present`` holds the members whose keyword, child or positional
    value appeared in an element body, even a keyword still lacking its
    value. ``close_offset`` is None until the brace closes."""

    __slots__ = ("open_offset", "close_offset", "class_name", "member", "present")

    def __init__(self, open_offset: int, class_name: str, member: str | None = None):
        self.open_offset = open_offset
        self.close_offset: int | None = None
        self.class_name = class_name
        self.member = member
        self.present: set[str] = set()


class Parser:
    """One parse of a text, which goes only as far as it is pulled.

    :meth:`step` parses on until the next element opens, and lexes on
    only when it needs more tokens; :func:`parse_document` pulls to the
    end. Use a parse that may stop early in a ``with`` block, which frees
    it when it ends. A parse holds the tree at ``root``, one ``Body``
    per brace pair in ``bodies``, the offsets of the string literals in
    ``strings``, the line index ``lines`` and the ``diagnostics``. An
    element or reference records the ``start`` and ``end`` offsets of its
    class keyword or qualified name, which ``lines.span`` places. What
    it holds so far is final in these ways: ``root`` after the first
    step; an element's id, class and place in the tree as soon as it
    opens, and the rest of it when it is no longer in ``open``, which
    lists the elements whose body is open, outermost first; every
    ``Body`` but its ``close_offset`` and, in an element body,
    ``present``, which are final when it closes; ``strings``,
    ``reported`` (the parser's diagnostics) and ``tokens.diagnostics``
    (the lexer's) as they grow.

    One generator, :meth:`_run`, parses the whole text: the root, its
    subtree and any detached elements, so a step resumes one frame. Its
    loop holds the innermost element whose body is open in its locals: the
    element, its rule tables, its member counts, its ``Body``, the wrapped
    block open in its body if any, and whether it is dropped when it ends.
    A child whose body opens saves these on a stack, and they come back
    when it ends. The token lists end with an ``_END`` sentinel once the
    text is lexed to its end, so reading past the last token needs no
    bounds check. Before that, each turn of the loop first makes sure that
    the tokens it may read are lexed, and so does each loop that can read
    further (:meth:`fill`). A turn that lexes on first deletes the tokens
    before the one just before it, which an end-of-text diagnostic places,
    from the front of the lists, and counts its token ``i`` from the
    first one kept (:meth:`slide`). No turn reads further back, so the
    lists hold a window of the text, not a copy of what is already
    parsed. A loop that lexes within a turn leaves the turn's ``limit``
    behind, so that the next turn slides the window. A skip over damaged
    text, which may swallow a long braced block, slides the window as it
    lexes, and the turn then takes up the new ``limit``. An element that
    ends places its diagnostics from its own ``start`` and ``end``,
    however far back its class keyword is.

    Elements are numbered in pre-order as they open. A dropped element
    was the last one opened before its subtree, so dropping it sets the
    number back to the one before its own."""

    def __init__(self, text: str, g: Grammar, mm: Metamodel):
        self.tokens = tokens = Tokens(text, g.terminal_patterns())
        self.kinds = tokens.kinds
        self.lexemes = tokens.lexemes
        self.offsets = tokens.offsets
        self.lines = tokens.lines
        self.strings = tokens.strings
        self.limit = 0  # below it, a turn of the loop finds its tokens lexed
        self.i = 0  # the next token in the lists, whenever the parse is not running
        self.g = g
        self.mm = mm
        self.root: ModelElement | None = None
        # Diagnostics go to the sink; ``_run`` swaps it for a dropped list.
        self.reported: list[Diagnostic] = []
        self.sink = self.reported
        self.bodies: list[Body] = []
        self.open: list[ModelElement] = []
        self.rules: dict[str, _RuleInfo] = {}
        self.class_keywords = {rule.keyword: name for name, rule in g.rules.items()}
        self._steps = self._run()

    # -- pulling --------------------------------------------------------------

    def __enter__(self) -> Parser:
        return self

    def __exit__(self, *exc_info) -> None:
        # The loop's generator refers back to the parser: close it, or an
        # unfinished parse waits for the cyclic garbage collector.
        self._steps.close()

    def step(self) -> bool:
        """Parse on until the next element opens; False once the parse
        has reached the end of the text."""
        return next(self._steps, None) is not None

    def finish(self) -> None:
        """Parse to the end of the text."""
        for _ in self._steps:
            pass

    def read_to(self, offset: int) -> bool:
        """Parse on until the next token starts at ``offset`` or later,
        or the end of the text is read; False if the parse ended before.
        Every token before ``offset`` is then read, and every body and
        string that starts there recorded."""
        offsets = self.offsets
        for _ in self._steps:
            i = self.i
            if i == len(offsets) or offsets[i] >= offset:
                return True
        return False

    def is_open(self, el: ModelElement, depth: int) -> bool:
        """Whether the body of ``el``, at ``depth`` in the tree (0 for the
        root), is open, so that it may still gain members and children."""
        opened = self.open
        return depth < len(opened) and opened[depth] is el

    def name_final(self, el: ModelElement, depth: int) -> bool:
        """Whether the name of ``el`` is final: its body has closed, its
        body cannot name it, or it has a name that the body cannot
        replace."""
        if not self.is_open(el, depth):
            return True
        info = self.rules[el.class_name]
        return not info.body_names or (el.short_name is not None and not info.renames)

    @property
    def diagnostics(self) -> list[Diagnostic]:
        """The diagnostics so far, the lexer's before the parser's."""
        return self.tokens.diagnostics + self.reported

    def slide(self, i: int) -> int:
        """Delete the tokens before token ``i - 1`` from the front of the
        lists; returns the index that token ``i`` then has."""
        if i > 1:
            del self.kinds[:i - 1], self.lexemes[:i - 1], self.offsets[:i - 1]
            self.tokens.dropped += i - 1
            i = 1
        return i

    def fill(self, i: int) -> int:
        """Lex on until token ``i + _LOOKAHEAD`` exists, or to the end of
        the text, where the ``_END`` sentinel follows the last token.
        Returns the new ``limit``."""
        if self.limit != _UNBOUNDED:
            kinds, more = self.kinds, self.tokens.more
            while len(kinds) <= i + _LOOKAHEAD:
                if not more():
                    kinds.append(_END)
                    self.lexemes.append("")
                    self.limit = _UNBOUNDED
                    return _UNBOUNDED
            self.limit = len(kinds) - _LOOKAHEAD
        return self.limit

    # -- positions and reports ------------------------------------------------

    def span(self, i: int) -> Span:
        """Span of token ``i``, or of the last token for the sentinel:
        at the end of the text, a problem is reported at the last token
        (an empty document, which has none, is reported before)."""
        if self.kinds[i] == _END:
            i -= 1
        start = self.offsets[i]
        return self.lines.span(start, start + len(self.lexemes[i]))

    def error(self, message: str, span: Span) -> None:
        self.sink.append(Diagnostic(ERROR, message, span))

    def too_many(self, member: str, upper: int, span: Span) -> None:
        """Report a value of ``member`` beyond its upper bound at ``span``."""
        if upper == 1:
            self.error(f"duplicate member '{member}'", span)
        else:
            self.error(f"member '{member}' allows at most {upper} values", span)

    def bad_value(self, action: tuple, i: int) -> int:
        """Report token ``i``, which is not a value of the keyword before
        it. Returns the token to go on from: the next one after a stray
        value, this one at punctuation or the end."""
        member, kind = action[1], action[3]
        got = self.kinds[i]
        article = "an" if kind == "Identifier" else "a"
        if got == _END or got in PUNCT:
            self.error(f"expected {article} {kind} value for '{member}'", self.span(i))
            return i
        self.error(
            f"expected {article} {kind} value for '{member}', got {got} '{self.lexemes[i]}'",
            self.span(i),
        )
        return i + 1

    def unknown_keyword(self, info: _RuleInfo, i: int) -> int:
        """Report token ``i``, a word that starts nothing in ``info``'s
        body, and skip its construct; returns the token to go on from."""
        expected = list(info.by_keyword)
        for entry in info.inline:
            expected.extend(sorted(
                self.g.rules[c].keyword
                for c in self.mm.concrete_subclasses(entry.form.target)  # type: ignore[union-attr]
                if c in self.g.rules
            ))
        self.error(
            f"unknown keyword '{self.lexemes[i]}' in '{info.rule.keyword}'; "
            "expected one of: " + ", ".join(expected),
            self.span(i),
        )
        return self.skip_construct(i, info)

    def skip_construct(self, i: int, info: _RuleInfo | None = None) -> int:
        """Drop the unrecognized construct at token ``i`` without flooding
        diagnostics; returns the token to go on from.

        Consumes the offending token and everything up to the next point
        where a construct can start: a member keyword of the enclosing
        rule, a class keyword, a comma, or the closing brace. A braced
        block on the way is swallowed whole. The window slides as the
        skip lexes on, as at the top of a turn of :meth:`_run`, so the
        returned index counts from the first token kept.
        """
        kinds, lexemes, fill, slide = self.kinds, self.lexemes, self.fill, self.slide
        i += 1
        while True:
            if i >= self.limit:
                i = slide(i)
                fill(i)
            kind = kinds[i]
            if kind == _END or kind == "}" or kind == ",":
                return i
            if kind == "{":
                depth = 0
                while (kind := kinds[i]) != _END:
                    i += 1
                    if i >= self.limit:
                        i = slide(i)
                        fill(i)
                    if kind == "{":
                        depth += 1
                    elif kind == "}":
                        depth -= 1
                        if depth == 0:
                            break
                return i
            if kind == "Identifier":
                lexeme = lexemes[i]
                if info is not None and lexeme in info.by_keyword:
                    return i
                if lexeme in self.class_keywords:
                    return i
            i += 1

    # -- the parsing loop -----------------------------------------------------

    def _run(self) -> Iterator[ModelElement]:
        """Parse the text, yielding each element right after it opens.
        Each turn of the loop opens the element the turn before met, reads
        one construct of the innermost open body or wrapped block, or,
        when no element is open, looks for the next top-level element. A
        turn in which an element ends, at its closing brace or at once for
        one without a body, checks its lower bounds.

        The root must be token 0; after a slide of the window ``i`` is never
        below 1, so no other token is. Text that does not start with an
        element, or goes on after the root, is reported once; after that
        every class keyword starts a detached element, whose ids restart at
        1 and whose diagnostics go to a dropped sink, so that the bodies of
        a damaged document are still recorded.

        Whether a child is kept is decided when it opens, for its parent's
        counts cannot change while it is open. A kept child joins its
        parent's children at once, so the tree built so far is a prefix of
        the final pre-order. A child that fits no containment, or one over
        its member's upper bound, is dropped with its subtree when it
        ends, and the bound is reported then."""
        kinds, lexemes, offsets = self.kinds, self.lexemes, self.offsets
        class_keywords, rules, bodies = self.class_keywords, self.rules, self.bodies
        opened, fill = self.open, self.fill
        i = last_id = limit = 0
        stack: list[tuple] = []
        # ``drop`` is None for a kept element, the member it goes over the
        # bound of, or "" when no containment fits it.
        el = info = counts = body = block = drop = None
        child_class: str | None = None
        child_link: str | None = None
        while True:
            if i >= limit:
                i = self.slide(i)
                limit = fill(i)
            if child_class is not None:
                # Token i is the child's class keyword; its inline name
                # and its opening brace may follow.
                ci = rules.get(child_class)
                if ci is None:
                    ci = rules[child_class] = _RuleInfo(
                        child_class, self.g.rules[child_class], self.mm,
                    )
                rule = ci.rule
                start = offsets[i]
                last_id += 1
                c = ModelElement(child_class, id=last_id, start=start, end=start + len(lexemes[i]))
                if child_link:
                    n = counts.get(child_link, 0) + 1
                    counts[child_link] = n
                    if n <= info.upper[child_link]:
                        el.children.append((child_link, c))
                        child_link = None
                elif i == 0:
                    self.root = c
                i += 1
                if rule.name_inline:
                    if kinds[i] == "Identifier":
                        c.short_name = lexemes[i]
                        i += 1
                    else:
                        self.error(f"expected a name after '{rule.keyword}'", self.span(i))
                if kinds[i] == "{":
                    b = Body(offsets[i], child_class)
                    bodies.append(b)
                    i += 1
                    stack.append((el, info, counts, body, block, drop))
                    el, info, counts, body, block, drop = c, ci, {}, b, None, child_link
                    opened.append(c)
                    child_class = None
                    self.i = i
                    yield c
                    continue
                if not rule.body_optional:
                    self.error(
                        f"expected '{{' to open the body of '{rule.keyword}'",
                        self.lines.span(c.start, c.end) if kinds[i] == _END else self.span(i),
                    )
                cc, c_drop = {}, child_link
                child_class = None
                self.i = i
                yield c
            elif el is None:
                kind = kinds[i]
                class_name = class_keywords.get(lexemes[i]) if kind == "Identifier" else None
                if self.sink is self.reported and (i or class_name is None):
                    if i == 0 and kind == _END:
                        self.error("empty document: expected an element", Span(1, 1, 1, 1))
                    elif i == 0:
                        self.error(f"expected an element, got '{lexemes[0]}'", self.span(0))
                    elif kind != _END:
                        self.error(
                            f"unexpected text after the top-level element: '{lexemes[i]}'",
                            self.span(i),
                        )
                    self.sink = []
                if class_name is not None:
                    child_class, child_link, last_id = class_name, None, 0
                elif kind == _END:
                    self.i = i
                    return
                else:
                    i += 1
                continue
            else:
                kind = kinds[i]
                if block is not None:
                    # A wrapped block: keyword { child ("," child)* }.
                    if kind == "}":
                        block.close_offset = offsets[i]
                        block = None
                        i += 1
                    elif kind == ",":
                        i += 1
                    elif kind == _END:
                        self.error(
                            f"unexpected end of file inside '{block.member}' block",
                            self.span(i),
                        )
                        block = None
                    elif (
                        kind == "Identifier"
                        and class_keywords.get(lexemes[i]) in info.accepted[block.member]
                    ):
                        child_class, child_link = class_keywords[lexemes[i]], block.member
                    else:
                        self.error(
                            f"'{block.member}' accepts {block.class_name} elements, "
                            f"got '{lexemes[i]}'",
                            self.span(i),
                        )
                        i = self.skip_construct(i)
                        limit = self.limit
                    continue
                if kind == "}" or kind == _END:
                    if kind == "}":
                        body.close_offset = offsets[i]
                        i += 1
                    else:
                        self.error(
                            f"unexpected end of file inside '{info.rule.keyword}'",
                            self.span(i),
                        )
                    c, ci, cc, c_drop = el, info, counts, drop
                    el, info, counts, body, block, drop = stack.pop()
                    opened.pop()
                else:
                    if kind == "Identifier":
                        lexeme = lexemes[i]
                        action = info.by_keyword.get(lexeme)
                        if action is not None:
                            body.present.add(action[1])
                            i += 1
                            form = action[0]
                            if form is _REFERENCE:
                                if kinds[i] != "Identifier":
                                    self.error(
                                        f"expected a qualified name after '{lexeme}'",
                                        self.span(i),
                                    )
                                    continue
                                first = i
                                i += 1
                                while kinds[i] == "." and kinds[i + 1] == "Identifier":
                                    i += 2
                                    if i >= limit:
                                        fill(i)
                                last = i - 1
                                if kinds[i] == ".":
                                    i += 1
                                    self.error(
                                        "qualified name ends with '.'",
                                        self.span(last if kinds[i] == _END else i),
                                    )
                                member = action[1]
                                n = counts.get(member, 0) + 1
                                counts[member] = n
                                if n > action[2]:
                                    self.too_many(member, action[2], self.span(first - 1))
                                    continue
                                target = _new_tuple(
                                    QualifiedName, (tuple(lexemes[first:last + 1:2]),),
                                )
                                el.cross_refs.append(CrossRef(
                                    member, target, None, offsets[first],
                                    offsets[last] + len(lexemes[last]),
                                ))
                                continue
                            if form is _BLOCK:
                                # The block stays open until its closing brace.
                                # A repeated block appends to the same member, in
                                # document order.
                                if kinds[i] != "{":
                                    self.error(
                                        f"expected '{{' after '{action[1]}'", self.span(i),
                                    )
                                    continue
                                block = Body(offsets[i], action[3], action[1])
                                bodies.append(block)
                                i += 1
                                continue
                            if kinds[i] != action[3]:
                                i = self.bad_value(action, i)
                                continue
                        else:
                            child_class = class_keywords.get(lexeme)
                            if child_class is not None:
                                # A child written in the body: the first inline
                                # containment it fits holds it.
                                fit = info.fitting.get(child_class)
                                if fit is None:
                                    fit = info.fitting[child_class] = [
                                        e.member for e in info.inline
                                        if self.mm.is_subtype(child_class, e.form.target)  # type: ignore[union-attr]
                                    ]
                                if not fit:
                                    self.error(
                                        f"'{info.rule.keyword}' has no containment that "
                                        f"accepts {child_class}",
                                        self.span(i),
                                    )
                                    child_link = ""
                                    continue
                                if len(fit) > 1:
                                    self.sink.append(Diagnostic(
                                        WARNING,
                                        f"{child_class} fits several containments "
                                        f"({', '.join(fit)}); using '{fit[0]}'",
                                        self.span(i),
                                    ))
                                child_link = fit[0]
                                body.present.add(child_link)
                                continue
                            action = info.positional
                            if action is None or action[3] != kind:
                                i = self.unknown_keyword(info, i)
                                limit = self.limit
                                continue
                            body.present.add(action[1])
                    else:
                        action = info.positional
                        if action is None or action[3] != kind:
                            what = "value " if kind in _LITERALS else ""
                            self.error(
                                f"unexpected {what}'{lexemes[i]}' in '{info.rule.keyword}'",
                                self.span(i),
                            )
                            i += 1
                            continue
                        body.present.add(action[1])
                    # Token i is a value of the action's member.
                    member = action[1]
                    n = counts.get(member, 0) + 1
                    counts[member] = n
                    if n > action[2]:
                        self.too_many(member, action[2], self.span(i))
                    elif action[0] is _NAME:
                        el.short_name = lexemes[i]
                    else:
                        el.attributes.append((member, lexemes[i]))
                    i += 1
                    continue

            # Element ``c`` ended; its diagnostics point at its class
            # keyword. Report every member that occurs fewer times than its
            # lower bound. ``cc`` counts occurrences, stored or not; since no
            # upper bound lies below its lower bound, it is short of a lower
            # bound exactly when the stored values are. The name counts once
            # when set.
            for member, lower in ci.lower:
                n = 1 if member == "shortName" and c.short_name is not None else cc.get(member, 0)
                if n < lower:
                    self.error(
                        f"missing mandatory member '{member}' in '{ci.rule.keyword}'",
                        self.lines.span(c.start, c.end),
                    )
            if c_drop is not None:
                # Drop it with its subtree, the elements numbered since it.
                if c_drop:
                    self.too_many(c_drop, info.upper[c_drop], self.lines.span(c.start, c.end))
                last_id = c.id - 1


def parse_document(text: str, g: Grammar, mm: Metamodel) -> Parser:
    """Lex and parse the whole text; the finished parse holds what both
    checking and completion need. The parser keeps its open elements on
    an explicit stack, so nesting depth is bounded only by memory, and
    numbers the tree as it goes."""
    parse = Parser(text, g, mm)
    parse.finish()
    return parse


def parse_model(
    text: str, g: Grammar, mm: Metamodel,
) -> tuple[ModelElement | None, list[Diagnostic]]:
    """Parse one top-level element. Always returns every diagnostic found;
    the tree is best-effort and is None only when nothing parseable was
    present at the top level."""
    parse = parse_document(text, g, mm)
    return parse.root, parse.diagnostics


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

def _attribute_lines(el: ModelElement, rule: ProductionRule) -> list[str]:
    lines: list[str] = []
    for entry in rule.entries:
        form = entry.form
        if isinstance(form, KeywordAttribute):
            if entry.is_name_slot():
                values = [] if el.short_name is None else [el.short_name]
            else:
                values = el.attribute_values(entry.member)
            for value in values:
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


def format_model(root: ModelElement, g: Grammar) -> str:
    """Canonical text for a model tree. Ends with a newline.

    The tree is walked with an explicit stack of pending lines and
    (element, indent) pairs, so nesting depth is not bounded. An element
    expands into its own lines, with its children left pending in place."""
    out: list[str] = []
    stack: list = [(root, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        el, indent = item
        rule = g.rules.get(el.class_name)
        if rule is None:
            raise SerializationError(f"no production rule for class '{el.class_name}'")
        pad = INDENT * indent
        header = pad + rule.keyword
        if rule.name_inline and el.short_name:
            header += f" {el.short_name}"
        attributes = _attribute_lines(el, rule)
        out.append(header)
        if not attributes and not el.children and rule.body_optional:
            continue
        out.append(pad + "{")
        inner = pad + INDENT
        out.extend(inner + line for line in attributes)

        # Children in document order. Consecutive children of one wrapped
        # member share a single keyword block; inline children print
        # directly.
        pending: list = []
        member = wrapped = None  # the member of the current run, and its form
        for name, child in el.children:
            if name != member:
                if wrapped is not None:
                    pending.append(inner + "}")
                entry = rule.entry_for(name)
                if entry is None:
                    raise SerializationError(
                        f"class '{el.class_name}' has no grammar entry for "
                        f"containment '{name}'"
                    )
                member = name
                wrapped = None if isinstance(entry.form, InlineContainment) else entry.form
                if wrapped is not None:
                    pending += (inner + wrapped.keyword, inner + "{")  # type: ignore[union-attr]
            elif wrapped is not None:
                pending.append(inner + INDENT + ",")
            pending.append((child, indent + (1 if wrapped is None else 2)))
        if wrapped is not None:
            pending.append(inner + "}")
        pending.append(pad + "}")
        stack.extend(reversed(pending))
    out.append("")  # the final newline
    return "\n".join(out)

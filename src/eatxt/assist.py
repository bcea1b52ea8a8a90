"""Context-sensitive completion over the textual syntax.

The engine answers one question: given a cursor position in a document,
which member keywords and which element templates may be inserted into
the enclosing container? The container comes from the parse itself: the
forgiving parser records every element body and wrapped block it opens,
with the members already present, and keeps going after damage, so the
lookup stays usable while the line under the cursor is half-typed. One
parse, a :class:`eatxt.textsyntax.Parser`, serves both the lookup and
the pre-fill, reading only as much of the text as the reply needs, and
its ``LineIndex``, the one owner of positions, places the cursor.
Proposals come in two flavours, plain keywords first and whole-element
templates second; every context kind offers them along one path. This
module chooses what a template holds: the name and the mandatory
attributes as ``${n:hint}`` blanks, and the mandatory cross-references
pre-filled with the first fitting target found in the document, read
from a ``ReferenceCache``: a full one from ``build_cache``, or one from
``parse_cache`` that walks the tree, and pulls the parse, only as far as
its lookups need. The formatter lays the template out, so a filled
template is canonical text.
"""

from __future__ import annotations

from itertools import count
from typing import NamedTuple

from .grammar import (
    Grammar,
    InlineContainment,
    KeywordAttribute,
    KeywordCrossRef,
)
from .metamodel import Metamodel
from .model import CrossRef, ModelElement, QualifiedName, ReferenceCache, lookup_first_fitting
from .textsyntax import Body, Parser, format_model

KEYWORD = "Keyword"
TEMPLATE = "Template"


class Proposal(NamedTuple):
    """One completion item: a keyword or a template snippet."""

    kind: str  # KEYWORD or TEMPLATE
    label: str
    insert_text: str


class CursorContext(NamedTuple):
    """Where the cursor sits: the innermost container and what it holds.

    ``kind`` is one of:

    - ``"element"``: inside the braces of an element body; ``class_name``
      is the element's class and ``members_present`` what its body holds.
    - ``"wrapper"``: inside the braces of a wrapped containment member;
      ``class_name`` is the member's target class.
    - ``"top"``: outside every element; ``has_root`` says whether the
      document already carries a top-level element.
    """

    kind: str
    class_name: str | None = None
    members_present: frozenset[str] = frozenset()
    has_root: bool = False


def _innermost(bodies: list[Body], offset: int) -> Body | None:
    """The innermost body around an offset. Bodies are recorded in
    textual order, so it is the last one around the offset."""
    for body in reversed(bodies):
        if body.open_offset < offset and (
            body.close_offset is None or offset <= body.close_offset
        ):
            return body
    return None


def context_at(parse: Parser, offset: int) -> CursorContext | None:
    """Context for a character offset; None when the offset lies inside a
    string literal. ``parse``, finished or not, is pulled only as far as
    the answer needs. Once it has read to the offset, every string and
    body that starts before it is recorded, and so is the root, if any.
    The innermost body around the offset then lists its members for good
    only when it closes, so the parse goes on until it does; a wrapped
    block lists none, and the parse stops at once."""
    more = parse.read_to(offset)
    for start, end in parse.strings:
        if start < offset < end:
            return None
    body = _innermost(parse.bodies, offset)
    while more and body is not None and body.member is None and body.close_offset is None:
        more = parse.step()
    if body is None:
        return CursorContext(kind="top", has_root=parse.root is not None)
    if body.member is not None:
        return CursorContext(kind="wrapper", class_name=body.class_name)
    return CursorContext(
        kind="element",
        class_name=body.class_name,
        members_present=frozenset(body.present),
    )


def locate_context(
    text: str, line: int, column: int, g: Grammar, mm: Metamodel,
) -> CursorContext | None:
    """Context for a 1-based line/column position, clamped to the text.
    The text is parsed, and its line starts found, only as far as needed."""
    with Parser(text, g, mm) as parse:
        if line < 1:
            offset = 0
        elif (start := parse.lines.start(line)) is None:
            offset = len(text)
        else:
            offset = min(start + max(column, 1) - 1, len(text))
        return context_at(parse, offset)


# ---------------------------------------------------------------------------
# Proposal computation
# ---------------------------------------------------------------------------

def build_template(
    class_name: str, g: Grammar, mm: Metamodel, cache: ReferenceCache,
) -> str:
    """Element skeleton for a class: name blank plus the mandatory members,
    as the formatter writes them, without the final newline.

    The skeleton is a :class:`ModelElement` whose name and mandatory
    attributes hold ``${n:hint}`` blanks; mandatory cross-references are
    pre-filled with the first fitting target from the cache and fall back
    to a ``${n:TargetClass}`` blank. Mandatory containments are left out;
    a skeleton cannot pick a child class. Blanks are numbered in the order
    they are written: the hoisted name, then the rule's entries in order.
    """
    rule = g.rules[class_name]
    mandatory = {m.name for m in mm.mandatory_members(class_name)}
    blanks = count(1)
    skeleton = ModelElement(class_name)
    if rule.name_inline:
        skeleton.short_name = f"${{{next(blanks)}:name}}"
    for entry in rule.entries:
        form = entry.form
        if entry.is_name_slot():
            skeleton.short_name = skeleton.short_name or f"${{{next(blanks)}:name}}"
        elif entry.member not in mandatory:
            continue
        elif isinstance(form, KeywordAttribute):
            skeleton.attributes.append(
                (entry.member, f"${{{next(blanks)}:{form.kind.value}}}"),
            )
        elif isinstance(form, KeywordCrossRef):
            target = None if cache is None else lookup_first_fitting(cache, form.target)
            if target is None:
                target = QualifiedName((f"${{{next(blanks)}:{form.target}}}",))
            skeleton.cross_refs.append(CrossRef(entry.member, target))
    return format_model(skeleton, g)[:-1]


def complete(
    ctx: CursorContext | None,
    g: Grammar,
    mm: Metamodel,
    cache: ReferenceCache,
) -> list[Proposal]:
    """Ordered proposals for a context: keywords first, templates after.

    At the top, the root class is offered while the document has no root;
    in a wrapped block, the concrete subclasses of its target. In an
    element body, repeatable members are always offered and single-valued
    members only while absent. Containment entries fan out to the
    concrete subclasses of their target, alphabetically, deduplicated
    across entries; each class offers its keyword and its template.
    """
    if ctx is None:
        return []
    keywords: list[str] = []
    classes: list[str] = []

    def offer(names: list[str]) -> None:
        for cls in names:
            if cls not in classes:
                classes.append(cls)
                keywords.append(g.rules[cls].keyword)

    if ctx.kind == "top":
        if not ctx.has_root and g.root_rule in g.rules:
            offer([g.root_rule])
    elif ctx.kind == "wrapper":
        if ctx.class_name is not None:
            offer(sorted(mm.concrete_subclasses(ctx.class_name)))
    elif (rule := g.rules.get(ctx.class_name or "")) is not None:
        for entry in rule.entries:
            form = entry.form
            if not entry.repeatable and entry.member in ctx.members_present:
                continue
            if isinstance(form, InlineContainment):
                offer(sorted(mm.concrete_subclasses(form.target)))
            elif form.keyword is not None:  # not a positional attribute
                keywords.append(form.keyword)
    return [Proposal(KEYWORD, kw, kw) for kw in keywords] + [
        Proposal(TEMPLATE, g.rules[c].keyword, build_template(c, g, mm, cache))
        for c in classes
    ]

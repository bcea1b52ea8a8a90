"""Context-sensitive completion over the textual syntax.

The engine answers one question: given a cursor position in a document,
which member keywords and which element templates may be inserted into
the enclosing container? The container comes from the parse itself: the
forgiving parser records every element body and wrapped block it opens,
with the members already present, and keeps going after damage, so the
lookup stays usable while the line under the cursor is half-typed. One
parse, a :class:`eatxt.textsyntax.Parser`, serves both the lookup and
the pre-fill, and it reads only as much of the text as the reply needs:
:func:`context_at` pulls it until the innermost body around the cursor
has closed, since only then are the members present in it final.
Proposals come in two flavours, plain keywords first and whole-element
templates second; templates carry ``${n:hint}`` blanks and pre-fill
mandatory cross-references with the first fitting target found in the
document, read from a ``ReferenceCache``: a full one from
``build_cache``, or one from ``parse_cache`` that walks the tree, and
pulls the parse, only as far as its lookups need.
"""

from __future__ import annotations

from typing import NamedTuple

from .grammar import (
    Grammar,
    InlineContainment,
    KeywordAttribute,
    KeywordCrossRef,
)
from .metamodel import Metamodel
from .model import ReferenceCache, lookup_first_fitting
from .textsyntax import Body, Parser

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
    The text is parsed only as far as the context needs."""
    with Parser(text, g, mm) as parse:
        if line < 1:
            offset = 0
        elif line > len(parse.lines.starts):
            offset = len(text)
        else:
            offset = min(parse.lines.offset(line, max(column, 1)), len(text))
        return context_at(parse, offset)


# ---------------------------------------------------------------------------
# Proposal computation
# ---------------------------------------------------------------------------

def build_template(
    class_name: str, g: Grammar, mm: Metamodel, cache: ReferenceCache,
) -> str:
    """Element skeleton for a class: name blank plus the mandatory members.

    Mandatory attributes become ``keyword ${n:kind}`` blanks; mandatory
    cross-references are pre-filled with the first fitting target from
    the cache and fall back to a ``${n:TargetClass}`` blank. Mandatory
    containments are left out; a skeleton cannot pick a child class.
    """
    rule = g.rules[class_name]
    counter = 1
    header = rule.keyword
    name_member = mm.name_slot_of(class_name)

    if rule.name_inline:
        header += f" ${{{counter}:name}}"
        counter += 1

    lines: list[str] = []
    if not rule.name_inline and name_member is not None:
        entry = rule.entry_for(name_member.name)
        if entry is not None and isinstance(entry.form, KeywordAttribute):
            if entry.form.keyword is not None:
                lines.append(f"{entry.form.keyword} ${{{counter}:name}}")
            else:
                lines.append(f"${{{counter}:name}}")
            counter += 1

    mandatory = {m.name for m in mm.mandatory_members(class_name)}
    for entry in rule.entries:
        if entry.member not in mandatory:
            continue
        form = entry.form
        if isinstance(form, KeywordAttribute):
            kind = form.kind.value
            if form.keyword is None:
                lines.append(f"${{{counter}:{kind}}}")
            else:
                lines.append(f"{form.keyword} ${{{counter}:{kind}}}")
            counter += 1
        elif isinstance(form, KeywordCrossRef):
            found = None if cache is None else lookup_first_fitting(cache, form.target)
            if found is not None:
                lines.append(f"{form.keyword} {found.dotted}")
            else:
                lines.append(f"{form.keyword} ${{{counter}:{form.target}}}")
                counter += 1

    if not lines and rule.body_optional:
        return header
    body = "\n".join("    " + line for line in lines)
    if body:
        return f"{header}\n{{\n{body}\n}}"
    return f"{header}\n{{\n}}"


def _class_proposals(
    classes: list[str], g: Grammar, mm: Metamodel, cache: ReferenceCache,
) -> tuple[list[Proposal], list[Proposal]]:
    keywords = [
        Proposal(KEYWORD, g.rules[c].keyword, g.rules[c].keyword) for c in classes
    ]
    templates = [
        Proposal(TEMPLATE, g.rules[c].keyword, build_template(c, g, mm, cache))
        for c in classes
    ]
    return keywords, templates


def complete(
    ctx: CursorContext | None,
    g: Grammar,
    mm: Metamodel,
    cache: ReferenceCache,
) -> list[Proposal]:
    """Ordered proposals for a context: keywords first, templates after.

    Repeatable members are always offered; single-valued members only
    while absent. Containment entries fan out to the concrete subclasses
    of their target, alphabetically, deduplicated across entries.
    """
    if ctx is None:
        return []

    if ctx.kind == "top":
        if ctx.has_root or g.root_rule not in g.rules:
            return []
        kws, tpls = _class_proposals([g.root_rule], g, mm, cache)
        return kws + tpls

    if ctx.kind == "wrapper":
        if ctx.class_name is None:
            return []
        classes = sorted(mm.concrete_subclasses(ctx.class_name))
        kws, tpls = _class_proposals(classes, g, mm, cache)
        return kws + tpls

    rule = g.rules.get(ctx.class_name or "")
    if rule is None:
        return []

    keyword_items: list[Proposal] = []
    template_classes: list[str] = []
    seen_classes: set[str] = set()

    for entry in rule.entries:
        addable = entry.repeatable or entry.member not in ctx.members_present
        if not addable:
            continue
        form = entry.form
        if isinstance(form, InlineContainment):
            for cls in sorted(mm.concrete_subclasses(form.target)):
                if cls in seen_classes:
                    continue
                seen_classes.add(cls)
                kw = g.rules[cls].keyword
                keyword_items.append(Proposal(KEYWORD, kw, kw))
                template_classes.append(cls)
        elif isinstance(form, KeywordAttribute):
            if form.keyword is not None:
                keyword_items.append(Proposal(KEYWORD, form.keyword, form.keyword))
        else:  # KeywordCrossRef or WrappedContainment
            keyword_items.append(Proposal(KEYWORD, form.keyword, form.keyword))

    templates = [
        Proposal(TEMPLATE, g.rules[c].keyword, build_template(c, g, mm, cache))
        for c in template_classes
    ]
    return keyword_items + templates

"""In-memory instance models, qualified names and cross-reference lookup.

Elements form a containment tree. Order matters everywhere: attributes and
cross references keep the order they were written in, and the children
list is the document order that every transformation must preserve.

Cross references are stored as unresolved qualified names (dot-joined
shortName paths from the root). Parsed elements and references keep the
offsets of their text. :func:`resolve` binds references to element ids;
:func:`build_cache` precomputes the class-indexed name table that content
assist reads, so that a lookup never has to walk the model. A single
completion request reads only the first fitting target of a few classes;
:func:`parse_cache` fills the same table by pulling a parse just so far.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .diagnostics import Diagnostic, ERROR, NO_SPAN, Span
from .metamodel import Metamodel


class QualifiedName(NamedTuple):
    """Nonempty path of shortNames, rendered with dots. A named tuple, since
    resolve and build_cache make one per named element."""

    segments: tuple[str, ...]

    @property
    def dotted(self) -> str:
        return ".".join(self.segments)

    def __str__(self) -> str:
        return self.dotted


class CrossRef:
    __slots__ = ("member", "target", "resolved_id", "start", "end")

    def __init__(
        self, member: str, target: QualifiedName, resolved_id: int | None = None,
        start: int | None = None, end: int | None = None,
    ):
        self.member = member
        self.target = target
        self.resolved_id = resolved_id
        self.start = start
        self.end = end


class ModelElement:
    __slots__ = (
        "class_name", "short_name", "attributes", "cross_refs", "children", "id", "start", "end",
    )

    def __init__(
        self,
        class_name: str,
        short_name: str | None = None,
        attributes: list[tuple[str, str]] | None = None,
        cross_refs: list[CrossRef] | None = None,
        children: list[tuple[str, ModelElement]] | None = None,
        id: int = 0,
        start: int | None = None, end: int | None = None,
    ):
        self.class_name = class_name
        self.short_name = short_name
        self.attributes = [] if attributes is None else attributes
        self.cross_refs = [] if cross_refs is None else cross_refs
        self.children = [] if children is None else children
        self.id = id
        self.start = start
        self.end = end

    def iter_preorder(self) -> Iterator["ModelElement"]:
        """This element and its descendants in document pre-order, walked
        with an explicit stack: constant work per element at any depth."""
        stack = [self]
        while stack:
            el = stack.pop()
            yield el
            stack.extend(child for _, child in reversed(el.children))


# ---------------------------------------------------------------------------
# Qualified names
# ---------------------------------------------------------------------------

def _named_elements(
    root: ModelElement, parse=None,
) -> Iterator[tuple[QualifiedName, ModelElement]]:
    """Pre-order walk yielding (fqn, element) for addressable elements.
    Subtrees below an unnamed element are skipped: nothing inside them can
    be reached by a qualified name. The walk keeps an explicit stack with
    the children, the path and the next child of each element it is in,
    so it has no depth limit.

    With a ``parse`` (a :class:`eatxt.textsyntax.Parser`), the tree is
    one that the parse is still building in pre-order. The walk pulls the
    parse on whenever it reaches what may still change: an element whose
    name is not final, or an open body whose children it has been
    through."""
    frames: list[list] = [[[(None, root)], (), 0, None]]
    while frames:
        frame = frames[-1]
        children, prefix, k, owner = frame
        if k == len(children):
            # Out of children; an open body may still gain some.
            if (
                parse is not None and owner is not None
                and parse.is_open(owner, len(frames) - 2) and parse.step()
            ):
                continue
            frames.pop()
            continue
        frame[2] = k + 1
        el = children[k][1]
        if parse is not None:
            while not parse.name_final(el, len(frames) - 1) and parse.step():
                pass
        if not el.short_name:
            continue
        segments = prefix + (el.short_name,)
        yield QualifiedName(segments), el
        frames.append([el.children, segments, 0, el])


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

def resolve(root: ModelElement, mm: Metamodel, lines=None) -> list[Diagnostic]:
    """Bind every cross reference to the element its qualified name denotes.

    A reference resolves when exactly one type-compatible element carries
    the name. Everything else produces an error diagnostic and leaves the
    reference unresolved. Running resolve again changes nothing. Spans come
    from ``lines``, the parsed text's :class:`eatxt.textsyntax.LineIndex`;
    without it, or on a tree read from EAXML or built in memory, NO_SPAN.
    """
    diagnostics: list[Diagnostic] = []

    def span_of(item: ModelElement | CrossRef) -> Span:
        return NO_SPAN if lines is None or item.start is None else lines.span(item.start, item.end)

    census: dict[QualifiedName, list[ModelElement]] = {}
    for fqn, el in _named_elements(root):
        census.setdefault(fqn, []).append(el)

    for fqn, elements in census.items():
        if len(elements) > 1:
            ids = ", ".join(f"id {e.id}" for e in elements)
            diagnostics.append(Diagnostic(
                ERROR,
                f"duplicate qualified name '{fqn}' ({ids})",
                span_of(elements[1]),
            ))

    for el in root.iter_preorder():
        for ref in el.cross_refs:
            member = mm.member_of(el.class_name, ref.member)
            target_class = getattr(member.kind, "target", None) if member else None
            candidates = census.get(ref.target, [])
            if not candidates:
                diagnostics.append(Diagnostic(
                    ERROR,
                    f"unresolved reference '{ref.target}' "
                    f"({el.class_name}.{ref.member})",
                    span_of(ref),
                ))
                continue
            if target_class is not None:
                fitting = [
                    c for c in candidates if mm.is_subtype(c.class_name, target_class)
                ]
            else:
                fitting = candidates
            if not fitting:
                found = candidates[0].class_name
                diagnostics.append(Diagnostic(
                    ERROR,
                    f"reference '{ref.target}' ({el.class_name}.{ref.member}) "
                    f"expects a {target_class}, found {found}",
                    span_of(ref),
                ))
            elif len(fitting) > 1:
                ids = ", ".join(f"id {c.id}" for c in fitting)
                diagnostics.append(Diagnostic(
                    ERROR,
                    f"ambiguous reference '{ref.target}' "
                    f"({el.class_name}.{ref.member}): {ids}",
                    span_of(ref),
                ))
            else:
                ref.resolved_id = fitting[0].id
    return diagnostics


# ---------------------------------------------------------------------------
# Reference cache
# ---------------------------------------------------------------------------

class ReferenceCache:
    """Per-class table of addressable elements, in document pre-order.

    Every element is listed under its own class and all its supertypes, so
    a lookup for an abstract class finds concrete instances directly. A
    cache from :func:`parse_cache` lists only the elements its lookups
    walked past so far, the rest of its walk waiting in ``pending``.
    """

    __slots__ = ("by_class", "pending")

    def __init__(self) -> None:
        self.by_class: dict[str, list[tuple[QualifiedName, int]]] = {}
        self.pending: Iterator[list[str]] | None = None


def _filing(
    root: ModelElement, mm: Metamodel, by_class: dict[str, list[tuple[QualifiedName, int]]],
    parse=None,
) -> Iterator[list[str]]:
    """List the named elements in ``by_class``, in pre-order, yielding the
    classes each one was listed under. A ``parse`` goes on as the walk
    needs it (:func:`_named_elements`)."""
    supers: dict[str, list[str]] = {}
    for fqn, el in _named_elements(root, parse):
        fan_out = supers.get(el.class_name)
        if fan_out is None:
            fan_out = supers[el.class_name] = [
                c for c in mm.classes if mm.is_subtype(el.class_name, c)
            ]
        entry = (fqn, el.id)
        for cls in fan_out:
            by_class.setdefault(cls, []).append(entry)
        yield fan_out


def build_cache(root: ModelElement, mm: Metamodel) -> ReferenceCache:
    """One pre-order pass over the model. Unnamed elements are absent."""
    cache = ReferenceCache()
    for _ in _filing(root, mm, cache.by_class):
        pass
    return cache


def parse_cache(parse, mm: Metamodel) -> ReferenceCache:
    """A cache that walks the tree of ``parse``, a
    :class:`eatxt.textsyntax.Parser` that is finished or has taken its
    first step, only as far as its lookups need: a lookup of a class goes
    on with the walk until it meets the first element of the class, and
    one that finds none walks to the end. The walk parses on only when it
    reaches an element that is not final yet, so a lookup reads the text
    only up to the first fitting element. It pays for one request;
    :func:`build_cache` pays for many lookups."""
    cache = ReferenceCache()
    if parse.root is not None:
        cache.pending = _filing(parse.root, mm, cache.by_class, parse)
    return cache


def lookup_first_fitting(cache: ReferenceCache, class_name: str) -> QualifiedName | None:
    """First element (document order) assignable to the class, if any."""
    entries = cache.by_class.get(class_name)
    if not entries and cache.pending is not None:
        for fan_out in cache.pending:
            if class_name in fan_out:
                entries = cache.by_class[class_name]
                break
    if not entries:
        return None
    return entries[0][0]

"""Lossless exchange of models as EAXML documents.

The XML dialect is deliberately plain: an ``<EAXML version="...">`` root
wrapping exactly one element tree, UPPER-HYPHEN tags derived from class
and member names, a leading ``<SHORT-NAME>`` child for named elements,
and one wrapper element per containment member. Consecutive children of
the same member share a wrapper, so arbitrary interleavings of children
survive the trip: document order in, document order out.

The writer joins its lines into chunks as it walks the tree, so at its
peak it holds the tree, the chunks and the document joined from them;
the reader holds the document and the tree it builds.

Attribute values travel verbatim. String attributes keep the escaped
spelling used in text (what is between the quotes), so converting back
to text is a matter of putting the quotes back. Empty attribute values
are kept in XML but dropped when reading towards text.
"""

from __future__ import annotations

import itertools
import re
import xml.parsers.expat as expat

from .diagnostics import Diagnostic, ERROR, NO_SPAN, SerializationError, Span, WARNING
from .metamodel import NAME_SLOT, Attribute, Containment, CrossReference, Member, Metamodel, PrimitiveKind, read_xml
from .model import CrossRef, ModelElement, QualifiedName

EAXML_VERSION = "2.1.12"

_WORD_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")
# A character that XML 1.0 documents cannot hold, not even escaped.
_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
# The writer joins its lines into chunks of at least this many as it goes,
# so that a document never sits in memory as one string per line.
_CHUNK = 4096


def to_tag(name: str) -> str:
    """CamelCase or pascalCase identifier to an UPPER-HYPHEN tag.

    A run of capitals counts as one word (UUID stays UUID), otherwise each
    capital opens a new word: DesignFunctionType -> DESIGN-FUNCTION-TYPE.
    """
    if not _NAME_RE.match(name):
        raise SerializationError(
            f"identifier '{name}' cannot be mapped to an XML tag"
        )
    return "-".join(w.upper() for w in _WORD_RE.findall(name))


class XmlNameMap:
    """Tag tables for one metamodel, checked for collisions once.

    A name has one tag wherever it appears. Members are walked as each
    class declares them, supertypes first, which meets every member name
    in the order of a walk over each class's flattened members."""

    def __init__(self, mm: Metamodel):
        self.class_by_tag: dict[str, str] = {}
        self.tag_by_name: dict[str, str] = {}
        tags = self.tag_by_name

        for name in mm.classes:
            tag = to_tag(name)
            other = self.class_by_tag.setdefault(tag, name)
            if other != name:
                raise SerializationError(
                    f"classes '{other}' and '{name}' map to the same tag {tag}"
                )
            tags[name] = tag

        member_by_tag: dict[str, str] = {}
        for cls in mm.member_tables():
            for m in mm.classes[cls].members:
                tag = tags.get(m.name)
                if tag is None:
                    tag = tags[m.name] = to_tag(m.name)
                owner = member_by_tag.setdefault(tag, m.name)
                if owner != m.name:
                    raise SerializationError(
                        f"members '{owner}' and '{m.name}' map to the same tag {tag}"
                    )


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

def _attr_text(member: Member, lexeme: str) -> str:
    assert isinstance(member.kind, Attribute)
    if member.kind.kind is PrimitiveKind.STRING:
        # Strip the quotes; the escaped body travels as-is.
        return lexeme[1:-1] if len(lexeme) >= 2 else ""
    return lexeme


def _escape(text: str) -> str:
    """Character data as ElementTree escapes it: ``&``, ``<`` and ``>``."""
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def _leaf(pad: str, tag: str, text: str) -> str:
    if text:
        return f"{pad}<{tag}>{_escape(text)}</{tag}>"
    return f"{pad}<{tag} />"


def to_eaxml(root: ModelElement, mm: Metamodel, names: XmlNameMap | None = None) -> str:
    """Serialize a model as an EAXML document (UTF-8 text, 2-space indent).

    ``names`` are the metamodel's tag tables, built here when not given.
    The tree is walked with an explicit stack, so nesting depth is not
    bounded by the interpreter's recursion limit. The only XML attribute
    values written are the version and ``DEST`` tags, which consist of
    capitals, digits and hyphens and so need no escaping. A carriage
    return is written as ``&#13;``, since readers take a raw one for a
    line feed; a character that XML 1.0 forbids raises SerializationError
    once the whole tree is written. The walk joins its lines into chunks
    of ``_CHUNK`` lines or a few more as it goes, and the chunks into the
    document at the end.
    """
    if names is None:
        names = XmlNameMap(mm)
    tags = names.tag_by_name
    member_tables = mm.member_tables()
    chunks: list[str] = []
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', f'<EAXML version="{EAXML_VERSION}">']
    # Open elements with children, innermost last: the element, its
    # members by name, its indent, the index of its next child and the
    # member whose wrapper is open.
    stack: list[list] = []
    el, pad = root, "  "
    while True:
        if len(lines) >= _CHUNK:
            chunks.append(_join(lines))
            lines = []
        by_name = member_tables.get(el.class_name)
        if by_name is None:
            raise SerializationError(f"unknown class '{el.class_name}'")
        tag = tags[el.class_name]
        inner = pad + "  "
        head = len(lines)
        lines.append(f"{pad}<{tag}>")
        if el.short_name is not None:
            lines.append(_leaf(inner, "SHORT-NAME", el.short_name))
        for member_name, lexeme in el.attributes:
            member = by_name.get(member_name)
            if member is None or not isinstance(member.kind, Attribute):
                raise SerializationError(
                    f"'{el.class_name}' has no attribute '{member_name}'"
                )
            lines.append(_leaf(inner, tags[member_name], _attr_text(member, lexeme)))
        for ref in el.cross_refs:
            member = by_name.get(ref.member)
            if member is None or not isinstance(member.kind, CrossReference):
                raise SerializationError(
                    f"'{el.class_name}' has no cross-reference '{ref.member}'"
                )
            ref_tag = tags[ref.member]
            path = _escape("/" + "/".join(ref.target.segments))
            lines.append(
                f'{inner}<{ref_tag} DEST="{tags[member.kind.target]}">{path}</{ref_tag}>'
            )
        if el.children:
            stack.append([el, by_name, pad, 0, None])
        elif len(lines) == head + 1:  # nothing inside
            lines[head] = f"{pad}<{tag} />"
        else:
            lines.append(f"{pad}</{tag}>")

        # The next element to write: the next child of the innermost open
        # element that has one left, closing the finished ones.
        while stack:
            frame = stack[-1]
            parent, by_name, pad, index, wrapper = frame
            if index == len(parent.children):
                lines.append(f"{pad}  </{tags[wrapper]}>")
                lines.append(f"{pad}</{tags[parent.class_name]}>")
                stack.pop()
                continue
            member_name, el = parent.children[index]
            frame[3] = index + 1
            member = by_name.get(member_name)
            if member is None or not isinstance(member.kind, Containment):
                raise SerializationError(
                    f"'{parent.class_name}' has no containment '{member_name}'"
                )
            # One wrapper per run of consecutive same-member children keeps
            # the document order of interleaved members intact.
            if member_name != wrapper:
                if wrapper is not None:
                    lines.append(f"{pad}  </{tags[wrapper]}>")
                lines.append(f"{pad}  <{tags[member_name]}>")
                frame[4] = member_name
            pad += "    "
            break
        else:
            break
    lines += ("</EAXML>", "")
    chunks.append(_join(lines))
    for chunk in chunks:
        bad = _NOT_XML.search(chunk)
        if bad is None:
            continue
        # The first forbidden character of the document: name its first holder.
        for el in root.iter_preorder():
            refs = [(ref.member, ref.target.dotted) for ref in el.cross_refs]
            for member, value in [(NAME_SLOT, el.short_name or ""), *el.attributes, *refs]:
                if bad[0] in value:
                    raise SerializationError(
                        f"{el.class_name} {el.short_name or '(unnamed)'}: '{member}' holds "
                        f"the character {bad[0]!r}, which XML 1.0 cannot carry"
                    )
    return "\n".join(chunks)


def _join(lines: list[str]) -> str:
    """Lines of a document as one chunk of its text, carriage returns
    escaped."""
    return "\n".join(lines).replace("\r", "&#13;")


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

# What a start tag opens, by the element it appears in. Frames of the
# kinds from _NAME on collect their character data up to their first
# child element, as ElementTree's ``text`` holds it.
_SKIP, _TOP, _DOC, _ELEMENT, _WRAPPER, _NAME, _STRING, _VALUE, _REF = range(9)
_SKIPPED = (_SKIP,)


def _point(line: int, col: int) -> Span:
    return Span(line, col, line, col)


def from_eaxml(
    text: str, mm: Metamodel, names: XmlNameMap | None = None,
) -> tuple[ModelElement | None, list[Diagnostic]]:
    """Read an EAXML document back into a model tree.

    Unknown tags produce warnings and are skipped; malformed XML and a
    missing root element are errors. The version attribute is checked but
    only warned about. Every diagnostic carries the line and column of the
    start tag it is about. ``names`` are the metamodel's tag tables, built
    here when not given.

    The document is read in one pass of expat events; elements are built
    on an explicit stack and numbered in document pre-order as they open.
    """
    if names is None:
        names = XmlNameMap(mm)
    class_by_tag, tags = names.class_by_tag, names.tag_by_name
    parser = expat.ParserCreate(namespace_separator="}")
    parser.buffer_text = True
    warnings: list[Diagnostic] = []
    tables: dict[str, dict[str, tuple[int, Member | None]]] = {}
    fits: dict[tuple[str, str], bool] = {}
    ids = itertools.count(1)
    stack: list[tuple] = [(_TOP,)]
    push, pop = stack.append, stack.pop
    # The document element's tag and position, its version warning, the
    # number of elements inside it with the position of the second, the
    # model root and the error about an unusable root tag.
    doc_tag, doc_at = "", NO_SPAN
    version_warning: list[Diagnostic] = []
    roots, second_at = 0, NO_SPAN
    root: ModelElement | None = None
    problem: Diagnostic | None = None

    def table(class_name: str) -> dict[str, tuple[int, Member | None]]:
        members = tables.get(class_name)
        if members is None:
            members = {}
            for member in mm.flatten_members(class_name):
                kind = member.kind
                if isinstance(kind, Attribute):
                    code = _STRING if kind.kind is PrimitiveKind.STRING else _VALUE
                elif isinstance(kind, CrossReference):
                    code = _REF
                else:
                    code = _WRAPPER
                members[tags[member.name]] = (code, member)
            # <SHORT-NAME> is the element name unless a member that is not
            # the name slot, such as a String shortName, owns the tag.
            if "SHORT-NAME" not in members or members["SHORT-NAME"][1].is_name_slot():
                members["SHORT-NAME"] = (_NAME, None)
            tables[class_name] = members
        return members

    def here() -> Span:
        return _point(parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)

    def start(tag: str, attrs: dict[str, str]) -> None:
        frame = stack[-1]
        kind = frame[0]
        if kind == _ELEMENT:
            el = frame[1]
            entry = frame[2].get(tag)
            if entry is None:
                warnings.append(Diagnostic(
                    WARNING, f"<{_fixname(tag)}> is not a member of {el.class_name}; skipped",
                    here(),
                ))
                push(_SKIPPED)
                return
            code, member = entry
            if code == _WRAPPER:
                push((_WRAPPER, el, member, tag))
                return
            parts: list[str] = []
            parser.CharacterDataHandler = parts.append
            if code == _NAME:
                push((_NAME, el, parts))
            else:
                push((code, el, parts, member, tag,
                      parser.CurrentLineNumber, parser.CurrentColumnNumber + 1))
        elif kind == _WRAPPER:
            parent, member, wrapper_tag = frame[1], frame[2], frame[3]
            sub_class = class_by_tag.get(tag)
            if sub_class is None:
                warnings.append(Diagnostic(
                    WARNING, f"unknown element tag <{_fixname(tag)}>; subtree skipped", here(),
                ))
                push(_SKIPPED)
                return
            target = member.kind.target
            fit = fits.get((sub_class, target))
            if fit is None:
                fit = fits[sub_class, target] = (
                    not mm.classes[sub_class].abstract and mm.is_subtype(sub_class, target)
                )
            if not fit:
                warnings.append(Diagnostic(
                    WARNING,
                    f"<{tag}> does not fit containment <{wrapper_tag}> "
                    f"(expects {target}); subtree skipped",
                    here(),
                ))
                push(_SKIPPED)
                return
            child = ModelElement(sub_class, id=next(ids))
            parent.children.append((member.name, child))
            push((_ELEMENT, child, table(sub_class)))
        elif kind == _SKIP:
            push(_SKIPPED)
        elif kind >= _NAME:
            # Character data after a child element is its tail, not text.
            parser.CharacterDataHandler = None
            if kind == _STRING or kind == _VALUE:
                el = frame[1]
                warnings.append(Diagnostic(
                    WARNING,
                    f"attribute <{frame[4]}> of {el.class_name} has child elements; skipped",
                    _point(frame[5], frame[6]),
                ))
                stack[-1] = _SKIPPED
            push(_SKIPPED)
        else:
            document_level(tag, attrs, kind)

    def document_level(tag: str, attrs: dict[str, str], kind: int) -> None:
        nonlocal doc_tag, doc_at, roots, second_at, root, problem
        if kind == _TOP:
            doc_tag, doc_at = tag, here()
            if tag != "EAXML":
                push(_SKIPPED)
                return
            version = attrs.get("version")
            if version != EAXML_VERSION:
                got = f"'{version}'" if version else "none"
                version_warning.append(Diagnostic(
                    WARNING,
                    f"EAXML version mismatch: expected '{EAXML_VERSION}', got {got}",
                    doc_at,
                ))
            push((_DOC,))
            return
        roots += 1
        push(_SKIPPED)
        if roots == 2:
            second_at = here()
        elif roots == 1:
            class_name = class_by_tag.get(tag)
            if class_name is None or mm.classes[class_name].abstract:
                problem = Diagnostic(
                    ERROR, f"root tag <{_fixname(tag)}> is not a concrete metamodel class",
                    here(),
                )
                return
            root = ModelElement(class_name, id=next(ids))
            stack[-1] = (_ELEMENT, root, table(class_name))

    def end(tag: str) -> None:
        frame = pop()
        kind = frame[0]
        if kind < _NAME:
            return
        parser.CharacterDataHandler = None
        el, value = frame[1], "".join(frame[2])
        if kind == _NAME:
            el.short_name = value.strip()
        elif kind == _STRING:
            if value:
                el.attributes.append((frame[3].name, f'"{value}"'))
        elif kind == _VALUE:
            value = value.strip()
            if value:  # empty attribute: dropped towards text
                el.attributes.append((frame[3].name, value))
        else:
            segments = tuple(s for s in value.strip().lstrip("/").split("/") if s)
            if segments:
                el.cross_refs.append(CrossRef(frame[3].name, QualifiedName(segments)))
            else:
                warnings.append(Diagnostic(
                    WARNING,
                    f"cross-reference <{frame[4]}> of {el.class_name} has no target path; skipped",
                    _point(frame[5], frame[6]),
                ))

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    error = read_xml(parser, text)
    if error is not None:
        return None, [_malformed(*error)]

    if doc_tag != "EAXML":
        return None, [Diagnostic(
            ERROR, f"expected an <EAXML> document, got <{_fixname(doc_tag)}>", doc_at,
        )]
    if roots == 0:
        problem = Diagnostic(ERROR, "EAXML document has no root element", doc_at)
    elif roots > 1:
        problem = Diagnostic(
            ERROR, f"EAXML document must hold exactly one root element, found {roots}",
            second_at,
        )
    if problem is not None:
        return None, version_warning + [problem]
    return root, version_warning + warnings


def _malformed(message: str, line: int, col: int) -> Diagnostic:
    """Malformed XML at expat's 0-based column, placed 1-based as the
    reader's warnings are, without expat's own ``: line L, column C``."""
    message = message.rpartition(": line ")[0]
    return Diagnostic(ERROR, f"malformed XML: {message}", _point(line, col + 1))


def _fixname(name: str) -> str:
    """A tag as ElementTree spells it: ``{uri}local`` for a namespaced one."""
    return "{" + name if "}" in name else name

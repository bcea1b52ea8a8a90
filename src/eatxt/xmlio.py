"""Lossless exchange of models as EAXML documents.

The XML dialect is deliberately plain: an ``<EAXML version="...">`` root
wrapping exactly one element tree, UPPER-HYPHEN tags derived from class
and member names, a leading ``<SHORT-NAME>`` child for named elements,
and one wrapper element per containment member. Consecutive children of
the same member share a wrapper, so arbitrary interleavings of children
survive the trip: document order in, document order out.

Attribute values travel verbatim. String attributes keep the escaped
spelling used in text (what is between the quotes), so converting back
to text is a matter of putting the quotes back. Empty attribute values
are kept in XML but dropped when reading towards text.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

from .diagnostics import Diagnostic, ERROR, SerializationError, Span, WARNING
from .metamodel import Attribute, Containment, CrossReference, Member, Metamodel, PrimitiveKind
from .model import CrossRef, ModelElement, QualifiedName, assign_preorder_ids

EAXML_VERSION = "2.1.12"

_WORD_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")


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
    """Tag tables for one metamodel, checked for collisions once."""

    def __init__(self, mm: Metamodel):
        self.class_by_tag: dict[str, str] = {}
        self.tag_by_name: dict[str, str] = {}

        for name in mm.classes:
            tag = to_tag(name)
            other = self.class_by_tag.get(tag)
            if other is not None and other != name:
                raise SerializationError(
                    f"classes '{other}' and '{name}' map to the same tag {tag}"
                )
            self.class_by_tag[tag] = name
            self.tag_by_name[name] = tag

        member_owner: dict[str, str] = {}
        self.members_by_class: dict[str, dict[str, Member]] = {}
        for cls in mm.classes:
            table: dict[str, Member] = {}
            for m in mm.flatten_members(cls):
                tag = to_tag(m.name)
                owner = member_owner.get(tag)
                if owner is not None and owner != m.name:
                    raise SerializationError(
                        f"members '{owner}' and '{m.name}' map to the same tag {tag}"
                    )
                member_owner[tag] = m.name
                self.tag_by_name.setdefault(m.name, to_tag(m.name))
                table[tag] = m
            self.members_by_class[cls] = table


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

def _attr_text(member: Member, lexeme: str) -> str:
    assert isinstance(member.kind, Attribute)
    if member.kind.kind is PrimitiveKind.STRING:
        # Strip the quotes; the escaped body travels as-is.
        return lexeme[1:-1] if len(lexeme) >= 2 else ""
    return lexeme


def _element_to_xml(el: ModelElement, names: XmlNameMap) -> ET.Element:
    members = names.members_by_class.get(el.class_name)
    if members is None:
        raise SerializationError(f"unknown class '{el.class_name}'")
    tag = names.tag_by_name
    node = ET.Element(tag[el.class_name])
    by_name = {m.name: m for m in members.values()}

    if el.short_name is not None:
        short = ET.SubElement(node, "SHORT-NAME")
        short.text = el.short_name

    for member_name, lexeme in el.attributes:
        member = by_name.get(member_name)
        if member is None or not isinstance(member.kind, Attribute):
            raise SerializationError(
                f"'{el.class_name}' has no attribute '{member_name}'"
            )
        sub = ET.SubElement(node, tag[member_name])
        sub.text = _attr_text(member, lexeme)

    for ref in el.cross_refs:
        member = by_name.get(ref.member)
        if member is None or not isinstance(member.kind, CrossReference):
            raise SerializationError(
                f"'{el.class_name}' has no cross-reference '{ref.member}'"
            )
        sub = ET.SubElement(node, tag[ref.member])
        sub.set("DEST", tag[member.kind.target])
        sub.text = "/" + "/".join(ref.target.segments)

    # One wrapper per run of consecutive same-member children keeps the
    # document order of interleaved members intact.
    wrapper: ET.Element | None = None
    wrapper_member = ""
    for member_name, child in el.children:
        member = by_name.get(member_name)
        if member is None or not isinstance(member.kind, Containment):
            raise SerializationError(
                f"'{el.class_name}' has no containment '{member_name}'"
            )
        if wrapper is None or member_name != wrapper_member:
            wrapper = ET.SubElement(node, tag[member_name])
            wrapper_member = member_name
        wrapper.append(_element_to_xml(child, names))
    return node


def to_eaxml(root: ModelElement, mm: Metamodel, names: XmlNameMap | None = None) -> str:
    """Serialize a model as an EAXML document (UTF-8 text, 2-space indent).

    ``names`` are the metamodel's tag tables, built here when not given.
    """
    if names is None:
        names = XmlNameMap(mm)
    doc = ET.Element("EAXML")
    doc.set("version", EAXML_VERSION)
    doc.append(_element_to_xml(root, names))
    ET.indent(doc, space="  ")
    body = ET.tostring(doc, encoding="unicode")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + body + "\n"


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

def _read_element(
    node: ET.Element,
    class_name: str,
    names: XmlNameMap,
    mm: Metamodel,
    diagnostics: list[Diagnostic],
) -> ModelElement:
    el = ModelElement(class_name=class_name)
    members = names.members_by_class[class_name]

    for child in node:
        tag = child.tag
        if tag == "SHORT-NAME":
            el.short_name = (child.text or "").strip()
            continue
        member = members.get(tag)
        if member is None:
            diagnostics.append(Diagnostic(
                WARNING,
                f"<{tag}> is not a member of {class_name}; skipped",
            ))
            continue

        if isinstance(member.kind, Attribute):
            if len(child):
                diagnostics.append(Diagnostic(
                    WARNING,
                    f"attribute <{tag}> of {class_name} has child elements; skipped",
                ))
                continue
            text = child.text or ""
            if member.kind.kind is not PrimitiveKind.STRING:
                text = text.strip()
                if not text:
                    continue  # empty attribute: dropped towards text
                el.attributes.append((member.name, text))
            else:
                if not text:
                    continue
                el.attributes.append((member.name, f'"{text}"'))

        elif isinstance(member.kind, CrossReference):
            text = (child.text or "").strip().lstrip("/")
            segments = tuple(s for s in text.split("/") if s)
            if not segments:
                diagnostics.append(Diagnostic(
                    WARNING,
                    f"cross-reference <{tag}> of {class_name} has no target path; skipped",
                ))
                continue
            el.cross_refs.append(CrossRef(member.name, QualifiedName(segments)))

        else:  # containment wrapper
            target = member.kind.target
            for sub in child:
                sub_class = names.class_by_tag.get(sub.tag)
                if sub_class is None:
                    diagnostics.append(Diagnostic(
                        WARNING, f"unknown element tag <{sub.tag}>; subtree skipped",
                    ))
                    continue
                cls = mm.classes[sub_class]
                if cls.abstract or not mm.is_subtype(sub_class, target):
                    diagnostics.append(Diagnostic(
                        WARNING,
                        f"<{sub.tag}> does not fit containment <{tag}> "
                        f"(expects {target}); subtree skipped",
                    ))
                    continue
                el.children.append((
                    member.name,
                    _read_element(sub, sub_class, names, mm, diagnostics),
                ))
    return el


def from_eaxml(
    text: str, mm: Metamodel, names: XmlNameMap | None = None,
) -> tuple[ModelElement | None, list[Diagnostic]]:
    """Read an EAXML document back into a model tree.

    Unknown tags produce warnings and are skipped; malformed XML and a
    missing root element are errors. The version attribute is checked but
    only warned about. ``names`` are the metamodel's tag tables, built
    here when not given.
    """
    diagnostics: list[Diagnostic] = []
    try:
        doc = ET.fromstring(text)
    except ET.ParseError as exc:
        line, col = exc.position
        diagnostics.append(Diagnostic(
            ERROR,
            f"malformed XML: {exc.msg}",
            Span(line, max(col, 1), line, max(col, 1)),
        ))
        return None, diagnostics

    if doc.tag != "EAXML":
        diagnostics.append(Diagnostic(
            ERROR, f"expected an <EAXML> document, got <{doc.tag}>",
        ))
        return None, diagnostics
    version = doc.get("version")
    if version != EAXML_VERSION:
        got = f"'{version}'" if version else "none"
        diagnostics.append(Diagnostic(
            WARNING,
            f"EAXML version mismatch: expected '{EAXML_VERSION}', got {got}",
        ))

    children = list(doc)
    if not children:
        diagnostics.append(Diagnostic(ERROR, "EAXML document has no root element"))
        return None, diagnostics
    if len(children) > 1:
        diagnostics.append(Diagnostic(
            ERROR,
            f"EAXML document must hold exactly one root element, found {len(children)}",
        ))
        return None, diagnostics

    if names is None:
        names = XmlNameMap(mm)
    top = children[0]
    class_name = names.class_by_tag.get(top.tag)
    if class_name is None or mm.classes[class_name].abstract:
        diagnostics.append(Diagnostic(
            ERROR, f"root tag <{top.tag}> is not a concrete metamodel class",
        ))
        return None, diagnostics

    root = _read_element(top, class_name, names, mm, diagnostics)
    assign_preorder_ids(root)
    return root, diagnostics

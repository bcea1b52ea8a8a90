"""Class metamodels and the Ecore-style XMI reader.

A metamodel is a flat set of named classes. Classes carry ordered members,
may be abstract, and may inherit from any number of other classes in the
same file. Members are either primitive-typed attributes, containment
references (the child lives inside the parent) or cross references (the
value is a dangling name resolved later against the model).

The file format is a single-package subset of Ecore XMI; see
docs/FORMATS.md for the exact attribute names. Nested packages are
rejected so that qualified names inside a model never need a package
prefix.
"""

from __future__ import annotations

import enum
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

from .diagnostics import MetamodelError


class PrimitiveKind(enum.Enum):
    """Value categories an attribute can take. Each maps to one terminal."""

    IDENTIFIER = "Identifier"
    STRING = "String"
    BOOLEAN = "Boolean"
    NUMERICAL = "Numerical"
    UUID = "UUID"


# Accepted spellings for attribute datatypes, compared case-insensitively.
# Ecore builtins map onto the nearest primitive; "String0" appears in
# grammars derived from EMF models where the plain name is taken.
_DATATYPE_NAMES = {
    "identifier": PrimitiveKind.IDENTIFIER,
    "estring": PrimitiveKind.STRING,
    "string": PrimitiveKind.STRING,
    "string0": PrimitiveKind.STRING,
    "eboolean": PrimitiveKind.BOOLEAN,
    "boolean": PrimitiveKind.BOOLEAN,
    "numerical": PrimitiveKind.NUMERICAL,
    "eint": PrimitiveKind.NUMERICAL,
    "efloat": PrimitiveKind.NUMERICAL,
    "uuid": PrimitiveKind.UUID,
}

NAME_SLOT = "shortName"


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Attribute:
    kind: PrimitiveKind


@dataclass(frozen=True)
class Containment:
    target: str


@dataclass(frozen=True)
class CrossReference:
    target: str


MemberKind = Attribute | Containment | CrossReference


@dataclass(frozen=True)
class Member:
    """One named feature of a class. ``upper`` is None when unbounded."""

    name: str
    kind: MemberKind
    lower: int = 0
    upper: int | None = 1

    @property
    def mandatory(self) -> bool:
        return self.lower >= 1

    @property
    def multi(self) -> bool:
        return self.upper is None or self.upper > 1

    def is_name_slot(self) -> bool:
        return (
            self.name == NAME_SLOT
            and isinstance(self.kind, Attribute)
            and self.kind.kind is PrimitiveKind.IDENTIFIER
        )


@dataclass
class MetaClass:
    name: str
    abstract: bool = False
    supertypes: list[str] = field(default_factory=list)
    members: list[Member] = field(default_factory=list)


@dataclass
class Metamodel:
    """A validated set of classes plus the designated root class.

    Instances are built by :func:`load_metamodel` and treated as immutable
    afterwards; the derived tables below are filled in once at load time.
    """

    classes: dict[str, MetaClass]
    root_class: str
    _flattened: dict[str, tuple[Member, ...]] = field(default_factory=dict, repr=False)
    _members: dict[str, dict[str, Member]] = field(default_factory=dict, repr=False)
    _ancestors: dict[str, frozenset[str]] = field(default_factory=dict, repr=False)

    # -- queries ------------------------------------------------------------

    def is_subtype(self, sub: str, sup: str) -> bool:
        """Reflexive, transitive subtype check over declared supertypes."""
        if sub == sup:
            return sub in self.classes
        return sup in self._ancestors.get(sub, frozenset())

    def flatten_members(self, class_name: str) -> tuple[Member, ...]:
        """All members of a class: inherited first, then its own.

        Inherited members come in depth-first supertype declaration order.
        A member reachable along several inheritance paths appears once.
        """
        try:
            return self._flattened[class_name]
        except KeyError:
            raise MetamodelError(f"unknown class '{class_name}'") from None

    def mandatory_members(self, class_name: str) -> tuple[Member, ...]:
        """Members with lower bound >= 1, in flattened order.

        The shortName name slot is excluded: it is rendered as the element
        name, not as a regular member.
        """
        return tuple(
            m for m in self.flatten_members(class_name)
            if m.mandatory and not m.is_name_slot()
        )

    def member_of(self, class_name: str, member_name: str) -> Member | None:
        try:
            return self._members[class_name].get(member_name)
        except KeyError:
            raise MetamodelError(f"unknown class '{class_name}'") from None

    def name_slot_of(self, class_name: str) -> Member | None:
        for m in self.flatten_members(class_name):
            if m.is_name_slot():
                return m
        return None

    def concrete_classes(self) -> list[str]:
        return [c.name for c in self.classes.values() if not c.abstract]

    def concrete_subclasses(self, class_name: str) -> list[str]:
        """Concrete classes assignable to ``class_name``, declaration order."""
        return [
            c.name for c in self.classes.values()
            if not c.abstract and self.is_subtype(c.name, class_name)
        ]


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def _local(tag: str) -> str:
    """Tag name without its namespace part."""
    return tag.rsplit("}", 1)[-1]


def _xsi_type(elem: ET.Element) -> str:
    for key, value in elem.attrib.items():
        if _local(key) == "type":
            return value.rsplit(":", 1)[-1]
    return ""


def _ref_name(token: str) -> str:
    """Resolve an Ecore-style reference token ('#//Foo', 'Foo', ...#//Foo)."""
    if "#//" in token:
        token = token.rsplit("#//", 1)[-1]
    return token.strip()


def _parse_bound(elem: ET.Element, attr: str, default: int) -> int:
    raw = elem.get(attr)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise MetamodelError(f"{attr} must be an integer, got '{raw}'") from None


def _parse_feature(elem: ET.Element, class_name: str) -> Member:
    name = elem.get("name")
    if not name:
        raise MetamodelError(f"feature of class '{class_name}' has no name")
    marker = _xsi_type(elem)
    etype = _ref_name(elem.get("eType", ""))
    lower = _parse_bound(elem, "lowerBound", 0)
    upper: int | None = _parse_bound(elem, "upperBound", 1)
    if upper == -1:
        upper = None
    if lower < 0 or (upper is not None and upper < lower):
        raise MetamodelError(
            f"member '{class_name}.{name}' has invalid bounds {lower}..{upper}"
        )

    if marker == "EAttribute":
        kind = _DATATYPE_NAMES.get(etype.lower())
        if kind is None:
            raise MetamodelError(
                f"unknown attribute datatype '{etype}' on '{class_name}.{name}'"
            )
        return Member(name, Attribute(kind), lower, upper)
    if marker == "EReference":
        if not etype:
            raise MetamodelError(f"reference '{class_name}.{name}' has no eType")
        if elem.get("containment") == "true":
            return Member(name, Containment(etype), lower, upper)
        return Member(name, CrossReference(etype), lower, upper)
    raise MetamodelError(
        f"feature '{class_name}.{name}' has unrecognized kind marker '{marker}'"
    )


def load_metamodel(source: str | Path) -> Metamodel:
    """Read and validate a metamodel file (or XML text).

    Raises MetamodelError with a position for malformed XML, and with the
    offending name for dangling references, unknown datatypes, inheritance
    cycles and duplicate or clashing declarations.
    """
    if isinstance(source, Path):
        text = source.read_text(encoding="utf-8")
    else:
        text = source
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, col = exc.position
        raise MetamodelError(
            f"metamodel XML parse error at line {line}, column {col}: {exc.msg}"
        ) from None

    if _local(root.tag) != "EPackage":
        raise MetamodelError(f"expected an EPackage document, got <{_local(root.tag)}>")

    classes: dict[str, MetaClass] = {}
    for child in root:
        tag = _local(child.tag)
        if tag in ("EPackage", "eSubpackages"):
            raise MetamodelError(
                "nested packages are not supported; provide one flat package"
            )
        if tag != "eClassifiers":
            raise MetamodelError(f"unexpected element <{tag}> inside EPackage")
        marker = _xsi_type(child)
        if marker and marker != "EClass":
            # Datatype declarations are tolerated: attribute types are
            # matched by name against the builtin table anyway.
            if marker == "EDataType":
                continue
            raise MetamodelError(f"unsupported classifier kind '{marker}'")
        name = child.get("name")
        if not name:
            raise MetamodelError("class without a name")
        if name in classes:
            raise MetamodelError(f"duplicate class name '{name}'")
        supertypes = [
            _ref_name(tok) for tok in child.get("eSuperTypes", "").split() if tok
        ]
        members = [
            _parse_feature(feat, name)
            for feat in child
            if _local(feat.tag) == "eStructuralFeatures"
        ]
        classes[name] = MetaClass(
            name=name,
            abstract=child.get("abstract") == "true",
            supertypes=supertypes,
            members=members,
        )

    mm = Metamodel(classes=classes, root_class="")
    _validate_and_index(mm)

    root_class = root.get("rootClass", "")
    if root_class:
        cls = classes.get(root_class)
        if cls is None:
            raise MetamodelError(f"rootClass '{root_class}' is not a declared class")
        if cls.abstract:
            raise MetamodelError(f"rootClass '{root_class}' must be concrete")
    else:
        concrete = mm.concrete_classes()
        if not concrete:
            raise MetamodelError("metamodel declares no concrete class")
        root_class = concrete[0]
    mm.root_class = root_class
    return mm


def _validate_and_index(mm: Metamodel) -> None:
    classes = mm.classes

    for cls in classes.values():
        for sup in cls.supertypes:
            if sup not in classes:
                raise MetamodelError(
                    f"class '{cls.name}' inherits from unknown class '{sup}'"
                )
        for m in cls.members:
            if isinstance(m.kind, (Containment, CrossReference)):
                if m.kind.target not in classes:
                    kind = "containment" if isinstance(m.kind, Containment) else "cross-reference"
                    raise MetamodelError(
                        f"{kind} '{cls.name}.{m.name}' targets unknown class "
                        f"'{m.kind.target}'"
                    )

    # Supertype cycles. DFS with an explicit path so the error can show it.
    state: dict[str, int] = {}  # 1 = on stack, 2 = done

    def visit(name: str, path: list[str]) -> None:
        mark = state.get(name)
        if mark == 2:
            return
        if mark == 1:
            cycle = path[path.index(name):] + [name]
            raise MetamodelError("inheritance cycle: " + " -> ".join(cycle))
        state[name] = 1
        for sup in classes[name].supertypes:
            visit(sup, path + [name])
        state[name] = 2

    for name in classes:
        visit(name, [])

    # Transitive ancestor sets (exclusive of the class itself).
    ancestors: dict[str, frozenset[str]] = {}

    def collect(name: str) -> frozenset[str]:
        if name in ancestors:
            return ancestors[name]
        acc: set[str] = set()
        for sup in classes[name].supertypes:
            acc.add(sup)
            acc.update(collect(sup))
        result = frozenset(acc)
        ancestors[name] = result
        return result

    for name in classes:
        collect(name)
    mm._ancestors.update(ancestors)

    # Flattened member lists, depth-first over supertypes, own members last.
    # The same member inherited along two paths (diamond) appears once;
    # distinct declarations sharing a name are an error.
    flattened: dict[str, tuple[Member, ...]] = {}

    def flatten(name: str) -> tuple[Member, ...]:
        if name in flattened:
            return flattened[name]
        out: list[Member] = []
        owner: dict[str, str] = {}

        def add(member: Member, declared_by: str) -> None:
            prev = owner.get(member.name)
            if prev is None:
                owner[member.name] = declared_by
                out.append(member)
            elif prev != declared_by:
                raise MetamodelError(
                    f"class '{name}' inherits two members named '{member.name}' "
                    f"(declared by '{prev}' and '{declared_by}')"
                )

        def walk(cls_name: str) -> None:
            cls = classes[cls_name]
            for sup in cls.supertypes:
                walk(sup)
            for member in cls.members:
                add(member, cls_name)

        walk(name)
        result = tuple(out)
        flattened[name] = result
        return result

    for name in classes:
        flatten(name)
    mm._flattened.update(flattened)
    mm._members.update(
        (name, {m.name: m for m in members}) for name, members in flattened.items()
    )

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
import os
import xml.parsers.expat as expat
from typing import NamedTuple

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

# Member kinds and members never change once read: named tuples.

class Attribute(NamedTuple):
    kind: PrimitiveKind


class Containment(NamedTuple):
    target: str


class CrossReference(NamedTuple):
    target: str


MemberKind = Attribute | Containment | CrossReference


class Member(NamedTuple):
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


class MetaClass:
    __slots__ = ("name", "abstract", "supertypes", "members")

    def __init__(
        self, name: str, abstract: bool = False, supertypes: list[str] | None = None,
        members: list[Member] | None = None,
    ):
        self.name = name
        self.abstract = abstract
        self.supertypes = [] if supertypes is None else supertypes
        self.members = [] if members is None else members


class Metamodel:
    """A validated set of classes plus the designated root class.

    Instances are built by :func:`load_metamodel` and treated as immutable
    afterwards; the derived tables below are filled in once at load time.
    """

    __slots__ = ("classes", "root_class", "_members", "_ancestors", "_bit")

    def __init__(self, classes: dict[str, MetaClass], root_class: str):
        self.classes = classes
        self.root_class = root_class
        self._members: dict[str, dict[str, Member]] = {}
        # Each class's proper ancestors as a bit mask over the ``_bit`` of each class.
        self._ancestors: dict[str, int] = {}
        self._bit: dict[str, int] = {}

    # -- queries ------------------------------------------------------------

    def is_subtype(self, sub: str, sup: str) -> bool:
        """Reflexive, transitive subtype check over declared supertypes."""
        if sub == sup:
            return sub in self.classes
        return self._ancestors.get(sub, 0) & self._bit.get(sup, 0) != 0

    def flatten_members(self, class_name: str) -> tuple[Member, ...]:
        """All members of a class: inherited first, then its own.

        Inherited members come in depth-first supertype declaration order.
        A member reachable along several inheritance paths appears once.
        """
        try:
            return tuple(self._members[class_name].values())
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

    def member_tables(self) -> dict[str, dict[str, Member]]:
        """Each class's flattened members by name, supertypes before their
        subclasses: the metamodel's own tables, which callers must not change."""
        return self._members

    def member_of(self, class_name: str, member_name: str) -> Member | None:
        try:
            return self._members[class_name].get(member_name)
        except KeyError:
            raise MetamodelError(f"unknown class '{class_name}'") from None

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

# Characters handed to expat in one call. Expat keeps a UTF-8 copy of the
# ``str`` it is given for as long as that ``str`` lives: of a slice, not of
# the whole document.
_SLICE = 1 << 16


def read_xml(parser: expat.XMLParserType, text: str) -> tuple[str, int, int] | None:
    """Parse ``text`` with an expat ``parser`` whose content handlers are set,
    ``_SLICE`` characters at a time.

    Returns None for well-formed XML, else the first error's message, line
    and column. A DTD with an external subset or a parameter entity
    reference is an error where expat meets it, at the subset's system
    literal or at the ``%``: expat would take the entities it cannot see
    declared for skipped and drop them from attribute values without a
    word. So a reference to an undeclared general entity is always an
    error, which expat reports; a reference to an external one is
    undefined, as ElementTree reports it. The handlers are unset
    afterwards: they refer to the parser, and that cycle would keep what
    they built alive until the next collection.
    """
    def stop(message: str) -> None:
        line, col = parser.CurrentLineNumber, parser.CurrentColumnNumber
        exc = expat.ExpatError(f"{message}: line {line}, column {col}")
        exc.lineno, exc.offset = line, col
        raise exc

    def undefined(context: str, *_) -> None:
        name = context.rpartition("\f")[2]
        stop(f"undefined entity {f'&{name};'[:100]}")

    parser.NotStandaloneHandler = lambda: stop("external DTD subset or parameter entity reference")
    parser.ExternalEntityRefHandler = undefined
    try:
        for at in range(0, len(text), _SLICE):
            parser.Parse(text[at:at + _SLICE], False)
        parser.Parse("", True)
    except expat.ExpatError as exc:
        return str(exc), exc.lineno, exc.offset
    finally:
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.CharacterDataHandler = parser.NotStandaloneHandler = None
        parser.ExternalEntityRefHandler = None
    return None


# The kind marker ``xsi:type`` as expat names it with namespace processing.
_XSI_TYPE = "http://www.w3.org/2001/XMLSchema-instance}type"


def _xsi_type(attrs: dict[str, str]) -> str:
    """The kind marker without its prefix, or "" when there is none. A
    ``type`` attribute outside the XMLSchema-instance namespace is not one."""
    return attrs.get(_XSI_TYPE, "").rsplit(":", 1)[-1]


def _ref_name(token: str) -> str:
    """Resolve an Ecore-style reference token ('#//Foo', 'Foo', ...#//Foo)."""
    if "#//" in token:
        token = token.rsplit("#//", 1)[-1]
    return token.strip()


def _parse_bound(attrs: dict[str, str], attr: str, default: int) -> int:
    raw = attrs.get(attr)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise MetamodelError(f"{attr} must be an integer, got '{raw}'") from None


def _parse_feature(attrs: dict[str, str], class_name: str) -> Member:
    name = attrs.get("name")
    if not name:
        raise MetamodelError(f"feature of class '{class_name}' has no name")
    marker = _xsi_type(attrs)
    etype = _ref_name(attrs.get("eType", ""))
    lower = _parse_bound(attrs, "lowerBound", 0)
    upper: int | None = _parse_bound(attrs, "upperBound", 1)
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
        if attrs.get("containment") == "true":
            return Member(name, Containment(etype), lower, upper)
        return Member(name, CrossReference(etype), lower, upper)
    if not marker:
        raise MetamodelError(f"feature '{class_name}.{name}' has no xsi:type")
    raise MetamodelError(
        f"feature '{class_name}.{name}' has unrecognized kind marker '{marker}'"
    )


def load_metamodel(source: str | os.PathLike[str]) -> Metamodel:
    """Read and validate a metamodel file (a path) or XML text (a string).

    Raises MetamodelError with a position for malformed XML, and with the
    offending name for dangling references, unknown datatypes, inheritance
    cycles and duplicate or clashing declarations.
    """
    if isinstance(source, os.PathLike):
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source
    # The document as (local tag, attributes, children) nodes. Its content
    # is checked only once all of it has parsed as XML.
    top: list[tuple[str, dict[str, str], list]] = []
    stack = [top]

    def start(tag: str, attrs: dict[str, str]) -> None:
        children: list = []
        stack[-1].append((tag.rpartition("}")[2], attrs, children))
        stack.append(children)

    parser = expat.ParserCreate(namespace_separator="}")
    parser.StartElementHandler = start
    parser.EndElementHandler = lambda tag: stack.pop()
    error = read_xml(parser, text)
    if error is not None:
        message, line, col = error
        raise MetamodelError(
            f"metamodel XML parse error at line {line}, column {col}: {message}"
        )
    tag, package, children = top[0]
    if tag != "EPackage":
        raise MetamodelError(f"expected an EPackage document, got <{tag}>")

    classes: dict[str, MetaClass] = {}
    for tag, attrs, features in children:
        if tag in ("EPackage", "eSubpackages"):
            raise MetamodelError(
                "nested packages are not supported; provide one flat package"
            )
        if tag != "eClassifiers":
            raise MetamodelError(f"unexpected element <{tag}> inside EPackage")
        marker = _xsi_type(attrs)
        if marker and marker != "EClass":
            # Datatype declarations are tolerated: attribute types are
            # matched by name against the builtin table anyway.
            if marker == "EDataType":
                continue
            raise MetamodelError(f"unsupported classifier kind '{marker}'")
        name = attrs.get("name")
        if not name:
            raise MetamodelError("class without a name")
        if name in classes:
            raise MetamodelError(f"duplicate class name '{name}'")
        supertypes = [
            _ref_name(tok) for tok in attrs.get("eSuperTypes", "").split() if tok
        ]
        members = [
            _parse_feature(feature, name) for tag, feature, _ in features if tag == "eStructuralFeatures"
        ]
        classes[name] = MetaClass(name, attrs.get("abstract") == "true", supertypes, members)

    mm = Metamodel(classes=classes, root_class="")
    _validate_and_index(mm)

    root_class = package.get("rootClass", "")
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
        declared: set[str] = set()
        for m in cls.members:
            if m.name in declared:
                raise MetamodelError(
                    f"class '{cls.name}' declares two members named '{m.name}'"
                )
            declared.add(m.name)
            if isinstance(m.kind, (Containment, CrossReference)):
                if m.kind.target not in classes:
                    kind = "containment" if isinstance(m.kind, Containment) else "cross-reference"
                    raise MetamodelError(
                        f"{kind} '{cls.name}.{m.name}' targets unknown class "
                        f"'{m.kind.target}'"
                    )

    # One depth-first pass over the supertypes, with an explicit stack of
    # the classes on the current path and their unvisited supertypes. A
    # supertype already on the path closes a cycle; a class is finished,
    # and listed in ``order``, after all of its supertypes.
    order: list[str] = []
    state: dict[str, int] = {}  # 1 = on the path, 2 = finished
    for start in classes:
        if start in state:
            continue
        state[start] = 1
        path = [start]
        pending = [iter(classes[start].supertypes)]
        while pending:
            sup = next(pending[-1], None)
            if sup is None:
                pending.pop()
                state[path[-1]] = 2
                order.append(path.pop())
            elif (mark := state.get(sup)) == 1:
                cycle = path[path.index(sup):] + [sup]
                raise MetamodelError("inheritance cycle: " + " -> ".join(cycle))
            elif mark is None:
                state[sup] = 1
                path.append(sup)
                pending.append(iter(classes[sup].supertypes))

    # Each class's tables from its supertypes' finished ones. Ancestor sets
    # are bit masks, one bit per class, so a deep chain costs depth² bits
    # rather than depth² set entries. Flattened members: the supertypes'
    # lists in declaration order, own members last; the same member
    # inherited along two paths (diamond) appears once, distinct
    # declarations sharing a name are an error.
    bit = {name: 1 << index for index, name in enumerate(classes)}
    ancestors = mm._ancestors
    for name in order:
        cls = classes[name]
        mask = 0
        flat: dict[str, Member] = {}
        inherited = [m for sup in cls.supertypes for m in mm._members[sup].values()]
        for member in inherited + cls.members:
            prev = flat.setdefault(member.name, member)
            if prev is not member:
                declarer = {id(m): c.name for c in classes.values() for m in c.members}
                raise MetamodelError(
                    f"class '{name}' inherits two members named '{member.name}' "
                    f"(declared by '{declarer[id(prev)]}' and '{declarer[id(member)]}')"
                )
        for sup in cls.supertypes:
            mask |= bit[sup] | ancestors[sup]
        ancestors[name] = mask
        mm._members[name] = flat
    mm._bit.update(bit)

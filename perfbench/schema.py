"""The benchmark's own description of its metamodel and adapted syntax.

Written out by hand from ``data/mini_eastadl.ecore``, ``data/default.cfg``
and docs/FORMATS.md, so that the benchmark's inputs and oracles never come
from eatxt itself. Under ``data/default.cfg`` every concrete class keyword
is its class name, every named element carries its name on the header
line, containments are unfolded and every body is optional.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

ATTR, XREF, CONT = "attr", "xref", "cont"
MANY = -1

# class -> (abstract, supertypes, members declared on the class).
# A member is (name, kind, type, lower, upper); type is a primitive kind for
# attributes and a class for references.
CLASSES: dict[str, tuple[bool, tuple[str, ...], tuple[tuple[str, str, str, int, int], ...]]] = {
    "EAElement": (True, (), (("shortName", ATTR, "Identifier", 1, 1),)),
    "EAPackageableElement": (True, ("EAElement",), ()),
    "EAPackage": (False, ("EAElement",), (
        ("category", ATTR, "Identifier", 0, 1),
        ("uuid", ATTR, "String", 0, 1),
        ("name", ATTR, "String", 0, 1),
        ("ownedComment", CONT, "Comment", 0, MANY),
        ("subPackage", CONT, "EAPackage", 0, MANY),
        ("element", CONT, "EAPackageableElement", 0, MANY),
    )),
    "Comment": (False, (), (("text", ATTR, "String", 0, 1),)),
    "EADatatype": (False, ("EAPackageableElement",), (("gid", ATTR, "UUID", 0, 1),)),
    "DesignFunctionType": (False, ("EAPackageableElement",), (
        ("isElementary", ATTR, "Boolean", 0, 1),
        ("port", CONT, "FunctionPort", 0, MANY),
        ("part", CONT, "FunctionPrototype", 0, MANY),
        ("connector", CONT, "FunctionConnector", 0, MANY),
        ("ownedComment", CONT, "Comment", 0, MANY),
    )),
    "FunctionPort": (True, ("EAElement",), ()),
    "FunctionFlowPort": (False, ("FunctionPort",), (
        ("direction", ATTR, "Identifier", 1, 1),
        ("type", XREF, "EADatatype", 1, 1),
    )),
    "FunctionClientServerPort": (False, ("FunctionPort",), (
        ("kind", ATTR, "Identifier", 0, 1),
        ("timeout", ATTR, "Numerical", 0, 1),
    )),
    "FunctionPrototype": (False, ("EAElement",), (("type", XREF, "DesignFunctionType", 1, 1),)),
    "FunctionConnector": (False, ("EAElement",), (("port", XREF, "FunctionPort", 0, MANY),)),
}

# EAXML tags (docs/FORMATS.md section 5), spelled out rather than derived.
TAGS = {
    "EAPackage": "EA-PACKAGE",
    "Comment": "COMMENT",
    "EADatatype": "EA-DATATYPE",
    "DesignFunctionType": "DESIGN-FUNCTION-TYPE",
    "FunctionPort": "FUNCTION-PORT",
    "FunctionFlowPort": "FUNCTION-FLOW-PORT",
    "FunctionClientServerPort": "FUNCTION-CLIENT-SERVER-PORT",
    "FunctionPrototype": "FUNCTION-PROTOTYPE",
    "FunctionConnector": "FUNCTION-CONNECTOR",
    "category": "CATEGORY",
    "uuid": "UUID",
    "name": "NAME",
    "ownedComment": "OWNED-COMMENT",
    "subPackage": "SUB-PACKAGE",
    "element": "ELEMENT",
    "text": "TEXT",
    "gid": "GID",
    "isElementary": "IS-ELEMENTARY",
    "port": "PORT",
    "part": "PART",
    "connector": "CONNECTOR",
    "direction": "DIRECTION",
    "type": "TYPE",
    "kind": "KIND",
    "timeout": "TIMEOUT",
}


@lru_cache(maxsize=None)
def ancestors(cls: str) -> frozenset[str]:
    """The class itself and every transitive supertype."""
    out = {cls}
    for sup in CLASSES[cls][1]:
        out |= ancestors(sup)
    return frozenset(out)


def is_subtype(sub: str, sup: str) -> bool:
    return sup in ancestors(sub)


@lru_cache(maxsize=None)
def members(cls: str) -> tuple[tuple[str, str, str, int, int], ...]:
    """Flattened members: inherited ones first, in declaration order."""
    out: list[tuple[str, str, str, int, int]] = []
    for sup in CLASSES[cls][1]:
        for m in members(sup):
            if all(m[0] != o[0] for o in out):
                out.append(m)
    out.extend(CLASSES[cls][2])
    return tuple(out)


def member(cls: str, name: str) -> tuple[str, str, str, int, int]:
    for m in members(cls):
        if m[0] == name:
            return m
    raise KeyError(f"{cls}.{name}")


def is_named(cls: str) -> bool:
    return is_subtype(cls, "EAElement")


@lru_cache(maxsize=None)
def concrete_subclasses(cls: str) -> tuple[str, ...]:
    """Concrete classes assignable to ``cls``, alphabetically."""
    return tuple(sorted(c for c, (abstract, _, _) in CLASSES.items()
                        if not abstract and is_subtype(c, cls)))


def body_entries(cls: str) -> tuple[tuple[str, str, str, int, int], ...]:
    """Members that appear inside the braced body (the name is hoisted)."""
    return tuple(m for m in members(cls) if m[0] != "shortName")


def adapt_report() -> list[str]:
    """The report lines ``eatxt adapt`` prints for ``data/default.cfg``,
    counted from the tables above (docs/FORMATS.md section 3)."""
    concrete = [c for c, (abstract, _, _) in CLASSES.items() if not abstract]
    named = sum(1 for c in concrete if is_named(c))
    unfolded = sum(1 for c in concrete for m in members(c) if m[1] == CONT)
    cfg_lines = [
        line for line in _data_text("default.cfg").splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    counts = {
        "define-terminal": "1 terminal defined",
        "hoist-short-name": f"{named} rule(s) hoisted",
        "unfold-containment": f"{unfolded} containment(s) unfolded",
        "optional-body": f"{len(concrete)} rule(s) made body-optional",
    }
    return [f"{line.strip()}: {counts[line.split()[0]]}" for line in cfg_lines]


def _data_text(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")

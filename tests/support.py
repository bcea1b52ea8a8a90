"""Shared helpers for the test suite.

Holds the fixture paths, a reader that parses emitted grammar text back
into the IR (round-reading check), a seeded random model generator used
by the roundtrip and cache tests, a brute-force reference-cache oracle
and a frozen reference lexer.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

from eatxt.diagnostics import ERROR, ConfigError, Diagnostic, Span
from eatxt.grammar import (
    Grammar,
    InlineContainment,
    KeywordAttribute,
    KeywordCrossRef,
    MemberEntry,
    ProductionRule,
    TerminalRule,
    WrappedContainment,
    GRAMMAR_TYPE_NAMES,
)
from eatxt.metamodel import (
    Attribute,
    Containment,
    CrossReference,
    Metamodel,
    PrimitiveKind,
)
from eatxt.model import ModelElement, CrossRef, QualifiedName, assign_preorder_ids

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
METAMODEL = FIXTURES / "mini_eastadl.ecore"
CONFIG = FIXTURES / "default.cfg"
MODELS = sorted((FIXTURES / "models").glob("*.eatxt"))
EXTRA = FIXTURES / "extra"
GOLDEN = FIXTURES / "golden"

_TYPE_BY_NAME = {v: k for k, v in GRAMMAR_TYPE_NAMES.items()}

# ---------------------------------------------------------------------------
# Grammar-text reader (round-reading only; the product never parses grammars)
# ---------------------------------------------------------------------------

_RULE_HEAD = re.compile(r"(\w+) returns (\w+):\Z")
_KW_LINE = re.compile(r"'([^']+)'( shortName=Identifier)?\Z")
_TERMINAL = re.compile(r"terminal (\w+): /(.*)/;\Z")
_WRAPPED = re.compile(
    r"(?:\()?'(?P<kw>[^']+)' '\{' (?P<mem>\w+)(?P<op>\+?=)(?P<tgt>\w+)"
    r"(?: \( \",\" \w+\+?=\w+\)\*)? '\}'(?P<opt> \)\?)?\Z"
)
_CROSSREF = re.compile(
    r"(?:\()?'(?P<kw>[^']+)' (?P<mem>\w+)(?P<op>\+?=)\[(?P<tgt>\w+)\](?P<suf>\)[?*+])?\Z"
)
_KEYWORD_ATTR = re.compile(
    r"(?:\()?'(?P<kw>[^']+)' (?P<mem>\w+)(?P<op>\+?=)(?P<ty>\w+)(?P<suf>\)[?*+])?\Z"
)
_PLAIN = re.compile(
    r"(?:\()?(?P<mem>\w+)(?P<op>\+?=)(?P<name>\w+)(?P<suf>\)[?*+])?\Z"
)


def _flags(op: str, suffix: str | None) -> tuple[bool, bool]:
    repeatable = op == "+="
    optional = suffix in (")?", ")*", " )?")
    return optional, repeatable


def _parse_entry(line: str) -> MemberEntry:
    s = line.strip()

    m = _WRAPPED.fullmatch(s)
    if m:
        optional, repeatable = _flags(m["op"], m["opt"])
        return MemberEntry(
            member=m["mem"],
            form=WrappedContainment(m["kw"], m["tgt"]),
            optional=optional,
            repeatable=repeatable,
        )
    m = _CROSSREF.fullmatch(s)
    if m:
        optional, repeatable = _flags(m["op"], m["suf"])
        return MemberEntry(
            member=m["mem"],
            form=KeywordCrossRef(m["kw"], m["tgt"]),
            optional=optional,
            repeatable=repeatable,
        )
    m = _KEYWORD_ATTR.fullmatch(s)
    if m and m["ty"] in _TYPE_BY_NAME:
        optional, repeatable = _flags(m["op"], m["suf"])
        return MemberEntry(
            member=m["mem"],
            form=KeywordAttribute(m["kw"], _TYPE_BY_NAME[m["ty"]]),
            optional=optional,
            repeatable=repeatable,
        )
    m = _PLAIN.fullmatch(s)
    if m:
        optional, repeatable = _flags(m["op"], m["suf"])
        if m["name"] in _TYPE_BY_NAME:
            form: object = KeywordAttribute(None, _TYPE_BY_NAME[m["name"]])
        else:
            form = InlineContainment(m["name"])
        return MemberEntry(
            member=m["mem"], form=form, optional=optional, repeatable=repeatable,
        )
    raise ValueError(f"unrecognized grammar entry line: {line!r}")


def read_grammar_text(text: str) -> Grammar:
    """Parse emitted grammar text back into the IR."""
    rules: dict[str, ProductionRule] = {}
    terminals: list[TerminalRule] = []
    root = ""

    for block in (b for b in text.split("\n\n") if b.strip()):
        lines = block.rstrip("\n").split("\n")
        head = _RULE_HEAD.fullmatch(lines[0].strip())
        if head is None:
            for line in lines:
                line = line.strip()
                if line.startswith("//"):
                    continue
                tm = _TERMINAL.fullmatch(line)
                if tm is None:
                    raise ValueError(f"unrecognized grammar line: {line!r}")
                terminals.append(TerminalRule(_TYPE_BY_NAME[tm[1]], tm[2]))
            continue

        class_name = head[1]
        kw = _KW_LINE.fullmatch(lines[1].strip())
        if kw is None:
            raise ValueError(f"unrecognized keyword line: {lines[1]!r}")
        body_optional = lines[2].strip() == "('{'"
        closer = lines[-1].strip()
        if closer not in ("'}';", "'}')?;"):
            raise ValueError(f"unrecognized closing line: {lines[-1]!r}")
        entries = [_parse_entry(line) for line in lines[3:-1]]
        rules[class_name] = ProductionRule(
            class_name=class_name,
            keyword=kw[1],
            name_inline=kw[2] is not None,
            body_optional=body_optional,
            entries=entries,
        )
        if not root:
            root = class_name

    return Grammar(rules=rules, terminals=terminals, root_rule=root)


# ---------------------------------------------------------------------------
# Random conforming models
# ---------------------------------------------------------------------------

_WORDS = [
    "alpha", "beta", "gamma", "delta", "motor", "sensor", "relay", "gain",
    "probe", "valve", "wiper", "pump", "node", "axis", "servo", "clutch",
]
_STRING_POOL = (
    "abcdefghijklmnopqrstuvwxyz ABCXYZ0123456789"
    ".,;:!?()<>&-_=+*#@%äöüß€你好"
    '"\\\n\t'
)


def _escape_string(content: str) -> str:
    body = (
        content.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\t", "\\t")
    )
    return f'"{body}"'


def _random_value(rng: random.Random, kind: PrimitiveKind) -> str:
    if kind is PrimitiveKind.IDENTIFIER:
        return rng.choice(_WORDS) + str(rng.randrange(100))
    if kind is PrimitiveKind.BOOLEAN:
        return rng.choice(["true", "false"])
    if kind is PrimitiveKind.UUID:
        digits = "".join(rng.choice("0123456789abcdefABCDEF") for _ in range(32))
        return f"{digits[:8]}-{digits[8:12]}-{digits[12:16]}-{digits[16:20]}-{digits[20:]}"
    if kind is PrimitiveKind.NUMERICAL:
        shape = rng.randrange(6)
        if shape == 0:
            return "0b" + "".join(rng.choice("01") for _ in range(rng.randint(1, 8)))
        if shape == 1:
            return "0o" + "".join(rng.choice("01234567") for _ in range(rng.randint(1, 6)))
        if shape == 2:
            return "0x" + "".join(rng.choice("0123456789abcdefABCDEF") for _ in range(rng.randint(1, 6)))
        if shape == 3:
            return str(rng.randint(-5000, 5000))
        if shape == 4:
            return f"{rng.randint(-99, 99)}.{rng.randrange(1000)}"
        return f"{rng.randint(-9, 9)}.{rng.randrange(100)}e{rng.choice(['+', '-', ''])}{rng.randrange(1, 20)}"
    content = "".join(
        rng.choice(_STRING_POOL) for _ in range(rng.randint(1, 24))
    )
    return _escape_string(content)


class _Budget:
    def __init__(self, limit: int):
        self.left = limit

    def take(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        return True


def _build_element(
    rng: random.Random,
    mm: Metamodel,
    class_name: str,
    budget: _Budget,
    depth: int,
    name: str | None,
) -> ModelElement:
    el = ModelElement(class_name=class_name)
    if name is not None:
        el.short_name = name

    members = mm.flatten_members(class_name)
    child_slots: list[tuple[str, str]] = []  # (member, child class)

    for m in members:
        if m.is_name_slot():
            continue
        if isinstance(m.kind, Attribute):
            count = 1 if m.lower >= 1 else (1 if rng.random() < 0.5 else 0)
            for _ in range(count):
                lexeme = _random_value(rng, m.kind.kind)
                el.attributes.append((m.name, lexeme))
        elif isinstance(m.kind, Containment) and depth < 6:
            fitting = mm.concrete_subclasses(m.kind.target)
            if not fitting:
                continue
            want = m.lower + (rng.randrange(3) if m.upper is None else 0)
            for _ in range(want):
                child_slots.append((m.name, rng.choice(fitting)))

    rng.shuffle(child_slots)  # interleave members: document order is free
    used_names: set[str] = set()
    for member_name, child_class in child_slots:
        if not budget.take():
            break
        child_name: str | None = None
        if mm.name_slot_of(child_class) is not None:
            while True:
                child_name = rng.choice(_WORDS).capitalize() + str(rng.randrange(1000))
                if child_name not in used_names:
                    used_names.add(child_name)
                    break
        el.children.append((
            member_name,
            _build_element(rng, mm, child_class, budget, depth + 1, child_name),
        ))
    return el


def _wire_cross_refs(rng: random.Random, root: ModelElement, mm: Metamodel) -> None:
    by_class: dict[str, list[QualifiedName]] = {}

    def collect(el: ModelElement, path: tuple[str, ...]) -> None:
        if el.short_name is None:
            return
        here = path + (el.short_name,)
        for cls in mm.classes:
            if mm.is_subtype(el.class_name, cls):
                by_class.setdefault(cls, []).append(QualifiedName(here))
        for _, child in el.children:
            collect(child, here)

    collect(root, ())

    def wire(el: ModelElement) -> None:
        for m in mm.flatten_members(el.class_name):
            if not isinstance(m.kind, CrossReference):
                continue
            pool = by_class.get(m.kind.target, [])
            count = m.lower if pool else 0
            if pool and m.upper is None:
                count += rng.randrange(3)
            for _ in range(count):
                el.cross_refs.append(CrossRef(m.name, rng.choice(pool)))
        for _, child in el.children:
            wire(child)

    wire(root)


def random_model(
    seed: int, mm: Metamodel, max_elements: int = 60,
) -> ModelElement:
    """Deterministic conforming model tree with at most max_elements nodes.

    Cross-references always point at an existing element; a datatype is
    seeded into the root when flow ports demand one.
    """
    rng = random.Random(seed)
    budget = _Budget(max_elements - 1)
    root = _build_element(rng, mm, mm.root_class, budget, 0, "Root" + str(seed % 997))

    def needs(el: ModelElement, target: str) -> bool:
        for m in mm.flatten_members(el.class_name):
            if isinstance(m.kind, CrossReference) and m.lower >= 1:
                if mm.is_subtype(target, m.kind.target) or m.kind.target == target:
                    return True
        return any(needs(c, target) for _, c in el.children)

    def has_instance(el: ModelElement, target: str) -> bool:
        if mm.is_subtype(el.class_name, target) and el.short_name is not None:
            return True
        return any(has_instance(c, target) for _, c in el.children)

    for target, member in (("EADatatype", "element"), ("DesignFunctionType", "element")):
        if target in mm.classes and needs(root, target) and not has_instance(root, target):
            seeded = ModelElement(class_name=target, short_name=f"Seed{target}")
            pos = rng.randrange(len(root.children) + 1)
            root.children.insert(pos, (member, seeded))

    _wire_cross_refs(rng, root, mm)
    assign_preorder_ids(root)
    return root


# ---------------------------------------------------------------------------
# Brute-force cache oracle
# ---------------------------------------------------------------------------

def naive_cache(root: ModelElement, mm: Metamodel) -> dict[str, list[tuple[QualifiedName, int]]]:
    """Reference implementation: one full traversal per class."""
    table: dict[str, list[tuple[QualifiedName, int]]] = {}
    for cls in mm.classes:
        rows: list[tuple[QualifiedName, int]] = []

        def walk(el: ModelElement, path: tuple[str, ...]) -> None:
            if el.short_name is None:
                return
            here = path + (el.short_name,)
            if mm.is_subtype(el.class_name, cls):
                rows.append((QualifiedName(here), el.id))
            for _, child in el.children:
                walk(child, here)

        walk(root, ())
        if rows:
            table[cls] = rows
    return table


# ---------------------------------------------------------------------------
# Template placeholder filling (type-correct dummies)
# ---------------------------------------------------------------------------

_PLACEHOLDER = re.compile(r"\$\{\d+:([^}]*)\}")

_DUMMIES = {
    "name": "probe1",
    "Identifier": "word",
    "Boolean": "true",
    "Numerical": "0",
    "UUID": "00000000-0000-0000-0000-000000000000",
    "String": '"text"',
}


def fill_placeholders(snippet: str) -> str:
    """Replace every ${n:hint} blank with a value that lexes as the hint."""

    def sub(m: re.Match[str]) -> str:
        hint = m.group(1)
        return _DUMMIES.get(hint, "probe1")

    return _PLACEHOLDER.sub(sub, snippet)


# ---------------------------------------------------------------------------
# Reference lexer (differential oracle for textsyntax.lex)
# ---------------------------------------------------------------------------

_REFERENCE_PRIORITY = [
    PrimitiveKind.UUID,
    PrimitiveKind.NUMERICAL,
    PrimitiveKind.BOOLEAN,
    PrimitiveKind.STRING,
    PrimitiveKind.IDENTIFIER,
]


def reference_lex(
    text: str, terminals: dict[PrimitiveKind, str],
) -> tuple[list[tuple[str, str, int, Span]], list[Diagnostic]]:
    """The character-at-a-time lexer of docs/FORMATS.md section 4, kept
    as it was written first: it tries every terminal at every token start,
    keeps the longest match (earlier kinds in ``_REFERENCE_PRIORITY`` win
    ties), skips whitespace one character at a time and computes every
    position by scanning the text from the start. Returns
    ``(kind, lexeme, offset, span)`` tuples and the diagnostics."""
    missing = [k.value for k in PrimitiveKind if k not in terminals]
    if missing:
        raise ConfigError(
            "lexer needs a pattern for every terminal kind; missing: "
            + ", ".join(missing)
        )
    compiled = [(kind, re.compile(terminals[kind])) for kind in _REFERENCE_PRIORITY]

    def position(offset: int) -> tuple[int, int]:
        line = text.count("\n", 0, offset) + 1
        return line, offset - (text.rfind("\n", 0, offset) + 1) + 1

    def span(start: int, end: int) -> Span:
        return Span(*position(start), *position(end))

    tokens: list[tuple[str, str, int, Span]] = []
    diagnostics: list[Diagnostic] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch in " \t\r\n":
            pos += 1
            continue
        if text.startswith("//", pos):
            nl = text.find("\n", pos)
            pos = n if nl == -1 else nl + 1
            continue
        if ch in "{},.":
            tokens.append((ch, ch, pos, span(pos, pos + 1)))
            pos += 1
            continue
        best: tuple[PrimitiveKind, str] | None = None
        for kind, pattern in compiled:
            m = pattern.match(text, pos)
            if m and m.end() > pos:
                lexeme = m.group()
                if best is None or len(lexeme) > len(best[1]):
                    best = (kind, lexeme)
        if best is None:
            diagnostics.append(Diagnostic(
                ERROR, f"cannot read character {ch!r}", span(pos, pos + 1),
            ))
            while pos < n and text[pos] not in " \t\r\n":
                pos += 1
            continue
        kind, lexeme = best
        tokens.append((kind.value, lexeme, pos, span(pos, pos + len(lexeme))))
        pos += len(lexeme)
    return tokens, diagnostics

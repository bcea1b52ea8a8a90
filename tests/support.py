"""Shared helpers for the test suite.

Holds the fixture paths, a reader that parses emitted grammar text back
into the IR (round-reading check), the frozen adaptation with the seeded
config generator it is checked on, a seeded random model generator used
by the roundtrip and cache tests, a brute-force reference-cache oracle,
a structural tree comparison, the pre-order numbering that the parser
must reproduce, the frozen formatter that read each element's rule
afresh, a frozen reference lexer, the frozen EAXML tag tables
with the frozen ElementTree writer and reader of EAXML that use them,
the recorder of damaged-document parses, the frozen recursive metamodel
index, the frozen ElementTree metamodel reader, the frozen
command-line parser that builds every subcommand, the frozen
template builder that laid out its own text and the tracemalloc peak of
a call.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import re
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

from hypothesis import strategies as st

from eatxt.diagnostics import (
    ERROR, WARNING, ConfigError, Diagnostic, MetamodelError, SerializationError, Span,
)
from eatxt.grammar import (
    AdaptationConfig,
    AdaptationReport,
    DefineTerminal,
    Directive,
    Grammar,
    HoistShortName,
    InlineContainment,
    KeywordAttribute,
    KeywordCrossRef,
    MemberEntry,
    OptionalBody,
    ProductionRule,
    RemoveAttributeKeyword,
    ReportEntry,
    UnfoldContainment,
    WrappedContainment,
    GRAMMAR_TYPE_NAMES,
    render_directive,
)
from eatxt.metamodel import (
    NAME_SLOT,
    Attribute,
    Containment,
    CrossReference,
    Member,
    MetaClass,
    Metamodel,
    PrimitiveKind,
    _DATATYPE_NAMES,
    _ref_name,
    _validate_and_index,
    load_metamodel,
)
from eatxt.model import CrossRef, ModelElement, QualifiedName, ReferenceCache, lookup_first_fitting
from eatxt.xmlio import EAXML_VERSION, to_tag

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
    terminals: dict[PrimitiveKind, str] = {}
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
                terminals[_TYPE_BY_NAME[tm[1]]] = tm[2]
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
# Reference adaptation and seeded configs (differential oracle for adapt_grammar)
# ---------------------------------------------------------------------------

def _reference_compile_glob(glob: str) -> re.Pattern[str]:
    return re.compile(
        "".join(".*" if ch == "*" else re.escape(ch) for ch in glob) + r"\Z"
    )


def reference_adapt_grammar(
    g: Grammar, cfg: AdaptationConfig,
) -> tuple[Grammar, AdaptationReport]:
    """``grammar.adapt_grammar`` as it was written first: each rule
    directive in its own branch, with its own glob compiles, loop over the
    rules and report line. It adapts a copy and leaves ``g`` as it was."""
    g = Grammar(
        {
            name: ProductionRule(
                r.class_name, r.keyword, r.name_inline, r.body_optional, list(r.entries)
            )
            for name, r in g.rules.items()
        },
        dict(g.terminals),
        g.root_rule,
    )
    report = AdaptationReport()

    for d in cfg.directives:
        text = render_directive(d)
        if isinstance(d, DefineTerminal):
            g.terminals[d.kind] = d.pattern
            report.entries.append(ReportEntry(text, 1, "terminal defined"))

        elif isinstance(d, HoistShortName):
            pat = _reference_compile_glob(d.class_glob)
            count = 0
            for rule in g.rules.values():
                if not pat.match(rule.class_name):
                    continue
                entry = rule.entry_for(NAME_SLOT)
                if entry is None or not entry.is_name_slot():
                    continue
                rule.entries.remove(entry)
                rule.name_inline = True
                count += 1
            report.entries.append(ReportEntry(text, count, "rule(s) hoisted"))

        elif isinstance(d, UnfoldContainment):
            cpat = _reference_compile_glob(d.class_glob)
            mpat = _reference_compile_glob(d.member_glob)
            count = 0
            for rule in g.rules.values():
                if not cpat.match(rule.class_name):
                    continue
                entries = rule.entries
                for index, entry in enumerate(entries):
                    if not mpat.match(entry.member):
                        continue
                    if isinstance(entry.form, WrappedContainment):
                        entries[index] = entry._replace(
                            form=InlineContainment(entry.form.target)
                        )
                        count += 1
            report.entries.append(ReportEntry(text, count, "containment(s) unfolded"))

        elif isinstance(d, OptionalBody):
            pat = _reference_compile_glob(d.class_glob)
            count = 0
            for rule in g.rules.values():
                if pat.match(rule.class_name) and not rule.body_optional:
                    rule.body_optional = True
                    count += 1
            report.entries.append(ReportEntry(text, count, "rule(s) made body-optional"))

        elif isinstance(d, RemoveAttributeKeyword):
            cpat = _reference_compile_glob(d.class_glob)
            mpat = _reference_compile_glob(d.member_glob)
            count = 0
            for rule in g.rules.values():
                if not cpat.match(rule.class_name):
                    continue
                entries = rule.entries
                for index, entry in enumerate(entries):
                    if not mpat.match(entry.member):
                        continue
                    form = entry.form
                    if isinstance(form, KeywordAttribute) and form.keyword is not None:
                        entries[index] = entry._replace(form=form._replace(keyword=None))
                        count += 1
                positional = [
                    e for e in entries
                    if isinstance(e.form, KeywordAttribute) and e.form.keyword is None
                ]
                if len(positional) > 1:
                    names = ", ".join(e.member for e in positional)
                    raise ConfigError(
                        f"{text}: rule '{rule.class_name}' would have "
                        f"{len(positional)} positional attributes ({names}); "
                        "at most one is allowed"
                    )
            report.entries.append(ReportEntry(text, count, "keyword(s) removed"))

    return g, report


def _glob_forms(names: set[str]) -> list[str]:
    """Each name as written, as its first camel-case word followed by
    ``*`` and as ``*`` followed by its last word."""
    globs = {"*", "Nope"}  # every name, and none
    for name in names:
        words = re.findall(r"[A-Z]+(?![a-z])|[A-Z]?[a-z0-9]+", name)
        globs.update((name, words[0] + "*", "*" + words[-1]))
    return sorted(globs)


_FIXTURE_MM = load_metamodel(METAMODEL.read_text(encoding="utf-8"))
CLASS_NAME_GLOBS = _glob_forms(set(_FIXTURE_MM.classes))
MEMBER_NAME_GLOBS = _glob_forms(
    {m.name for cls in _FIXTURE_MM.classes.values() for m in cls.members}
)
TERMINAL_PATTERNS = ["[a-z]+", "x|y", "[0-9]+"]


def random_directives(rng: random.Random, max_size: int = 6) -> list[Directive]:
    """A seeded config over the fixture metamodel: up to ``max_size``
    directives of any kind, their globs drawn from CLASS_NAME_GLOBS and
    MEMBER_NAME_GLOBS."""
    classes, members = CLASS_NAME_GLOBS, MEMBER_NAME_GLOBS
    makers = [
        lambda: DefineTerminal(rng.choice(list(PrimitiveKind)), rng.choice(TERMINAL_PATTERNS)),
        lambda: HoistShortName(rng.choice(classes)),
        lambda: UnfoldContainment(rng.choice(classes), rng.choice(members)),
        lambda: OptionalBody(rng.choice(classes)),
        lambda: RemoveAttributeKeyword(rng.choice(classes), rng.choice(members)),
    ]
    return [rng.choice(makers)() for _ in range(rng.randint(0, max_size))]


# ---------------------------------------------------------------------------
# Random conforming models
# ---------------------------------------------------------------------------

def assign_preorder_ids(root: ModelElement) -> None:
    """Number the tree in document pre-order, from 1: the ids the parser
    gives the elements it keeps, and the oracle for them."""
    for number, el in enumerate(root.iter_preorder(), start=1):
        el.id = number


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
    fan_out: int,
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
            want = m.lower + (rng.randrange(fan_out) if m.upper is None else 0)
            for _ in range(want):
                child_slots.append((m.name, rng.choice(fitting)))

    rng.shuffle(child_slots)  # interleave members: document order is free
    used_names: set[str] = set()
    for member_name, child_class in child_slots:
        if not budget.take():
            break
        child_name: str | None = None
        if any(m.is_name_slot() for m in mm.flatten_members(child_class)):
            while True:
                child_name = rng.choice(_WORDS).capitalize() + str(rng.randrange(1000))
                if child_name not in used_names:
                    used_names.add(child_name)
                    break
        el.children.append((
            member_name,
            _build_element(rng, mm, child_class, budget, depth + 1, child_name, fan_out),
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
    seed: int, mm: Metamodel, max_elements: int = 60, fan_out: int = 3,
) -> ModelElement:
    """Deterministic conforming model tree with at most max_elements nodes.

    Each repeatable containment gets fewer than ``fan_out`` optional
    children; raise it for trees of thousands of elements.

    Cross-references always point at an existing element; a datatype is
    seeded into the root when flow ports demand one.
    """
    rng = random.Random(seed)
    budget = _Budget(max_elements - 1)
    root = _build_element(
        rng, mm, mm.root_class, budget, 0, "Root" + str(seed % 997), fan_out,
    )

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


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory that tracemalloc traced
    while it ran, in bytes above what was traced when it started. Garbage
    is collected first and the collector paused during the call; its
    state, and whether tracemalloc was tracing, are restored after."""
    collecting = gc.isenabled()
    tracing = tracemalloc.is_tracing()
    gc.collect()
    gc.disable()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
        if collecting:
            gc.enable()


# ---------------------------------------------------------------------------
# Brute-force cache oracle
# ---------------------------------------------------------------------------

def naive_cache(root: ModelElement, mm: Metamodel) -> dict[str, list[tuple[QualifiedName, int]]]:
    """Reference implementation: list the named elements reachable by a
    qualified name in pre-order (a walk by an explicit stack, so deep
    chains can be checked), then filter that list once per class."""
    named: list[tuple[tuple[str, ...], ModelElement]] = []
    stack: list[tuple[ModelElement, tuple[str, ...]]] = [(root, ())]
    while stack:
        el, path = stack.pop()
        if el.short_name is None:
            continue
        here = path + (el.short_name,)
        named.append((here, el))
        stack.extend((child, here) for _, child in reversed(el.children))
    table: dict[str, list[tuple[QualifiedName, int]]] = {}
    for cls in mm.classes:
        rows = [
            (QualifiedName(here), el.id)
            for here, el in named if mm.is_subtype(el.class_name, cls)
        ]
        if rows:
            table[cls] = rows
    return table


# ---------------------------------------------------------------------------
# Structural comparison (spans, ids and resolution state ignored)
# ---------------------------------------------------------------------------

def same_structure(a: ModelElement, b: ModelElement) -> bool:
    """Compare trees by content.

    Attribute and cross-reference values are grouped per member (their
    relative order within one member matters, the interleaving across
    members does not, since the formatter canonicalizes it). Children are
    compared pairwise in document order.
    """
    if a.class_name != b.class_name or a.short_name != b.short_name:
        return False

    def grouped(pairs: list[tuple[str, str]]) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for member, value in pairs:
            out.setdefault(member, []).append(value)
        return out

    if grouped(a.attributes) != grouped(b.attributes):
        return False
    refs_a = grouped([(r.member, r.target.dotted) for r in a.cross_refs])
    refs_b = grouped([(r.member, r.target.dotted) for r in b.cross_refs])
    if refs_a != refs_b:
        return False
    if len(a.children) != len(b.children):
        return False
    for (ma, ca), (mb, cb) in zip(a.children, b.children):
        if ma != mb or not same_structure(ca, cb):
            return False
    return True


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


def reference_build_template(
    class_name: str, g: Grammar, mm: Metamodel, cache: ReferenceCache | None,
) -> str:
    """Frozen template builder that laid out the text itself: the name
    blank first (hoisted, or as the name line), then the mandatory
    members in entry order. Oracle for ``assist.build_template``, which
    formats a skeleton element instead."""
    rule = g.rules[class_name]
    counter = 1
    header = rule.keyword
    name_member = next((m for m in mm.flatten_members(class_name) if m.is_name_slot()), None)

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


# ---------------------------------------------------------------------------
# Reference formatter (differential oracle for textsyntax.format_model)
# ---------------------------------------------------------------------------

def _reference_attribute_lines(el: ModelElement, rule: ProductionRule) -> list[str]:
    lines: list[str] = []
    for entry in rule.entries:
        form = entry.form
        if isinstance(form, KeywordAttribute):
            if entry.is_name_slot():
                values = [] if el.short_name is None else [el.short_name]
            else:
                values = [v for (m, v) in el.attributes if m == entry.member]
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


def reference_format_model(root: ModelElement, g: Grammar) -> str:
    """``textsyntax.format_model`` as it was when it read each element's
    rule afresh: its entries scanned per element, its containment entries
    looked up with ``entry_for`` per run of children, and the tree walked
    with a stack of pending lines and (element, indent) pairs."""
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
        pad = "    " * indent
        header = pad + rule.keyword
        if rule.name_inline and el.short_name:
            header += f" {el.short_name}"
        attributes = _reference_attribute_lines(el, rule)
        out.append(header)
        if not attributes and not el.children and rule.body_optional:
            continue
        out.append(pad + "{")
        inner = pad + "    "
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
                    pending += (inner + wrapped.keyword, inner + "{")
            elif wrapped is not None:
                pending.append(inner + "    ,")
            pending.append((child, indent + (1 if wrapped is None else 2)))
        if wrapped is not None:
            pending.append(inner + "}")
        pending.append(pad + "}")
        stack.extend(reversed(pending))
    out.append("")  # the final newline
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Reference lexer (differential oracle for textsyntax.lex)
# ---------------------------------------------------------------------------

def line_starts(text: str) -> list[int]:
    """Every offset where a line of ``text`` starts, read from its
    characters one by one: 0 and each offset just after a ``\n``."""
    return [0] + [at + 1 for at, ch in enumerate(text) if ch == "\n"]


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


# ---------------------------------------------------------------------------
# Recorded parses of damaged documents (regression oracle for the parser)
# ---------------------------------------------------------------------------

DAMAGED_PARSE = GOLDEN / "damaged_parse.json"
_DAMAGE = ["}", "{", "\n}\n", "x", "Packge", ""]
# Separators out of place, for the recovery at commas and dots.
_PUNCT_DAMAGE = [",", ".", "x ,", ". .", "x.", "{ x , y }"]


def damaged_documents(
    texts: list[tuple[str, str]], count: int = 60, seed: int = 20261018,
) -> list[tuple[str, str]]:
    """The given ``(name, text)`` documents, then seeded variants of them:
    ``count`` with one of ``_DAMAGE`` inserted at a random offset, cutting
    0-3 characters there; ``count // 2`` the same with ``_PUNCT_DAMAGE``;
    and ``count // 2`` cut off at a random offset, for the paths that meet
    the end of the text."""
    rng = random.Random(seed)
    damaged = []
    for n in range(count + count // 2):
        name, text = rng.choice(texts)
        at = rng.randrange(len(text) + 1)
        insert = rng.choice(_DAMAGE if n < count else _PUNCT_DAMAGE)
        damaged.append((f"{name}#{n}", text[:at] + insert + text[at + rng.randrange(4):]))
    for n in range(count // 2):
        name, text = rng.choice(texts)
        damaged.append((f"{name}#end{n}", text[:rng.randrange(len(text) + 1)]))
    return texts + damaged


def damaged_corpus(g: Grammar, gen_g: Grammar, mm: Metamodel) -> dict[str, list[tuple[str, str]]]:
    """The damaged documents of both syntaxes: the corpus as written
    (adapted syntax, grammar ``g``) and reprinted in the generated syntax
    (grammar ``gen_g``, wrapped ``member { ... }`` blocks)."""
    from eatxt.textsyntax import format_model, parse_model

    adapted = [(p.name, p.read_text(encoding="utf-8")) for p in MODELS]
    generated = [
        (name, format_model(parse_model(text, g, mm)[0], gen_g)) for name, text in adapted
    ]
    return {
        "adapted": damaged_documents(adapted),
        "generated": damaged_documents(generated),
    }


def _span_list(span: Span) -> list[int]:
    return [span.line, span.col, span.end_line, span.end_col]


def parse_record(text: str, g: Grammar, mm: Metamodel) -> dict:
    """What a parse pulled to the end holds for a text, in JSON form: the
    diagnostics, the bodies, the string offsets, every element of the
    tree with its id, span, values and cross-references, and the id,
    class and start offset of each element the parse yields as it opens,
    detached ones included. Element and reference offsets in the tree
    are recorded as line:col spans, through the parse's line index."""
    from eatxt.textsyntax import Parser

    parse = Parser(text, g, mm)
    yielded = [[el.id, el.class_name, el.start] for el in parse._steps]
    place = parse.lines.span
    elements = []
    if parse.root is not None:
        for el in parse.root.iter_preorder():
            elements.append([
                el.id, el.class_name, el.short_name, _span_list(place(el.start, el.end)),
                [list(a) for a in el.attributes],
                [
                    [r.member, r.target.dotted, _span_list(place(r.start, r.end))]
                    for r in el.cross_refs
                ],
            ])
    return {
        "diagnostics": [
            [d.severity, d.message, _span_list(d.span)] for d in parse.diagnostics
        ],
        "bodies": [
            [b.open_offset, b.close_offset, b.class_name, b.member, sorted(b.present)]
            for b in parse.bodies
        ],
        "strings": [list(s) for s in parse.strings],
        "elements": elements,
        "yielded": yielded,
    }


def record_damaged_parse(g: Grammar, gen_g: Grammar, mm: Metamodel) -> None:
    """Rewrite ``fixtures/golden/damaged_parse.json`` from the current
    parser, one document per line. Only for a deliberate change of the
    parser's output; the file pins what the parser produced so far."""
    grammars = {"adapted": g, "generated": gen_g}
    sections = []
    for syntax, docs in damaged_corpus(g, gen_g, mm).items():
        lines = [
            json.dumps([name, parse_record(text, grammars[syntax], mm)],
                       separators=(",", ":"))
            for name, text in docs
        ]
        sections.append(json.dumps(syntax) + ": [\n" + ",\n".join(lines) + "\n]")
    DAMAGED_PARSE.write_text("{\n" + ",\n".join(sections) + "\n}\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Reference EAXML writer and reader (differential oracles for xmlio)
# ---------------------------------------------------------------------------

def _reference_attr_text(member: Member, lexeme: str) -> str:
    assert isinstance(member.kind, Attribute)
    if member.kind.kind is PrimitiveKind.STRING:
        # Strip the quotes; the escaped body travels as-is.
        return lexeme[1:-1] if len(lexeme) >= 2 else ""
    return lexeme


def reference_xml_names(
    mm: Metamodel,
) -> tuple[dict[str, str], dict[str, str], dict[str, dict[str, Member]]]:
    """``xmlio.XmlNameMap``'s constructor as it was when it kept a table
    per class: each class's flattened members are walked in declaration
    order of the classes, with ``to_tag`` called afresh for each. Returns
    ``class_by_tag``, ``tag_by_name`` and each class's members by tag, or
    raises the same SerializationError."""
    class_by_tag: dict[str, str] = {}
    tag_by_name: dict[str, str] = {}
    for name in mm.classes:
        tag = to_tag(name)
        other = class_by_tag.get(tag)
        if other is not None and other != name:
            raise SerializationError(
                f"classes '{other}' and '{name}' map to the same tag {tag}"
            )
        class_by_tag[tag] = name
        tag_by_name[name] = tag

    member_owner: dict[str, str] = {}
    members_by_class: dict[str, dict[str, Member]] = {}
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
            tag_by_name.setdefault(m.name, to_tag(m.name))
            table[tag] = m
        members_by_class[cls] = table
    return class_by_tag, tag_by_name, members_by_class


def _reference_element_to_xml(
    el: ModelElement, tag: dict[str, str], members_by_class: dict[str, dict[str, Member]],
) -> ET.Element:
    members = members_by_class.get(el.class_name)
    if members is None:
        raise SerializationError(f"unknown class '{el.class_name}'")
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
        sub.text = _reference_attr_text(member, lexeme)

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
        wrapper.append(_reference_element_to_xml(child, tag, members_by_class))
    return node


def reference_to_eaxml(root: ModelElement, mm: Metamodel) -> str:
    """``xmlio.to_eaxml`` as it was first written, on an ElementTree
    tree: recursive, then ``ET.indent`` and ``ET.tostring``, with the tag
    tables of ``reference_xml_names``."""
    _, tag_by_name, members_by_class = reference_xml_names(mm)
    doc = ET.Element("EAXML")
    doc.set("version", EAXML_VERSION)
    doc.append(_reference_element_to_xml(root, tag_by_name, members_by_class))
    ET.indent(doc, space="  ")
    body = ET.tostring(doc, encoding="unicode")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + body + "\n"


def _reference_read_element(
    node: ET.Element,
    class_name: str,
    names: tuple[dict[str, str], dict[str, str], dict[str, dict[str, Member]]],
    mm: Metamodel,
    diagnostics: list[Diagnostic],
) -> ModelElement:
    el = ModelElement(class_name=class_name)
    class_by_tag, _, members_by_class = names
    members = members_by_class[class_name]

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
                sub_class = class_by_tag.get(sub.tag)
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
                    _reference_read_element(sub, sub_class, names, mm, diagnostics),
                ))
    return el


# A DOCTYPE that names an external subset, up to its system literal,
# which XML's tokens allow only before white space, ">", "%", "[" or the
# end of the text.
_EXTERNAL_SUBSET = re.compile(
    r"<!DOCTYPE\s+[\w:.-]+\s+(?:SYSTEM|PUBLIC\s+(?:\"[^\"]*\"|'[^']*'))\s+(\"[^\"]*\"|'[^']*')"
    r"(?=[ \t\r\n>%\[]|\Z)"
)


def _position(text: str, at: int) -> tuple[int, int]:
    """Line (from 1) and column (from 0) of an offset, as expat counts."""
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at) - 1


def reference_external_subset(text: str) -> tuple[str, int, int] | None:
    """Where both XML readers stop for an external DTD subset: the error
    message, line and column of its system literal. None when there is
    no such subset, when the XML declaration says ``standalone="yes"``,
    or when ElementTree does not get to the literal as part of a DOCTYPE:
    cut just after the literal, the text must then lack only its root
    element. Both readers once ignored the subset, and
    expat dropped the entities it left undeclared from attribute values.
    """
    found = _EXTERNAL_SUBSET.search(text)
    if found is None or re.match(r"\ufeff?<\?xml[^>]*standalone=[\"']yes", text):
        return None
    try:
        ET.fromstring(text[:found.end()])
    except ET.ParseError as exc:
        if exc.position != _position(text, found.end()) or "no element found" not in str(exc):
            return None
    line, col = _position(text, found.start(1))
    message = "external DTD subset or parameter entity reference"
    return f"{message}: line {line}, column {col}", line, col


def reference_from_eaxml(
    text: str, mm: Metamodel,
) -> tuple[ModelElement | None, list[Diagnostic]]:
    """``xmlio.from_eaxml`` as it was first written: ``ET.fromstring``,
    then a recursive walk over the tree, with the tag tables of
    ``reference_xml_names``. Its diagnostics have no position, except for
    malformed XML, which it places one column right of ElementTree's
    0-based column, with the message cut before its ``: line L, column C``.
    An external DTD subset is an error (``reference_external_subset``)."""
    diagnostics: list[Diagnostic] = []
    dtd = reference_external_subset(text)
    if dtd is not None:
        message, line, col = dtd
        at = Span(line, col + 1, line, col + 1)
        message = message.rpartition(": line ")[0]
        return None, [Diagnostic(ERROR, f"malformed XML: {message}", at)]
    try:
        doc = ET.fromstring(text)
    except ET.ParseError as exc:
        line, col = exc.position
        diagnostics.append(Diagnostic(
            ERROR,
            f"malformed XML: {exc.msg.rpartition(': line ')[0]}",
            Span(line, col + 1, line, col + 1),
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

    names = reference_xml_names(mm)
    top = children[0]
    class_name = names[0].get(top.tag)
    if class_name is None or mm.classes[class_name].abstract:
        diagnostics.append(Diagnostic(
            ERROR, f"root tag <{top.tag}> is not a concrete metamodel class",
        ))
        return None, diagnostics

    root = _reference_read_element(top, class_name, names, mm, diagnostics)
    assign_preorder_ids(root)
    return root, diagnostics


# ---------------------------------------------------------------------------
# Reference metamodel index (differential oracle for metamodel loading)
# ---------------------------------------------------------------------------

def reference_index(
    classes: dict[str, MetaClass],
) -> tuple[dict[str, frozenset[str]], dict[str, tuple[Member, ...]]]:
    """``metamodel._validate_and_index`` as it was first written, in three
    recursive passes: cycles, ancestor sets, flattened members (walked
    afresh for every class). Returns the ancestor sets and the flattened
    member lists, or raises MetamodelError. It does not check for a class
    declaring two members of one name. Recursion bounds the depth of the
    inheritance it handles, so it is for small metamodels."""
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

    ancestors: dict[str, frozenset[str]] = {}

    def collect(name: str) -> frozenset[str]:
        if name in ancestors:
            return ancestors[name]
        acc: set[str] = set()
        for sup in classes[name].supertypes:
            acc.add(sup)
            acc.update(collect(sup))
        ancestors[name] = frozenset(acc)
        return ancestors[name]

    for name in classes:
        collect(name)

    flattened: dict[str, tuple[Member, ...]] = {}
    for name in classes:
        out: list[Member] = []
        owner: dict[str, str] = {}

        def walk(cls_name: str) -> None:
            cls = classes[cls_name]
            for sup in cls.supertypes:
                walk(sup)
            for member in cls.members:
                prev = owner.get(member.name)
                if prev is None:
                    owner[member.name] = cls_name
                    out.append(member)
                elif prev != cls_name:
                    raise MetamodelError(
                        f"class '{name}' inherits two members named '{member.name}' "
                        f"(declared by '{prev}' and '{cls_name}')"
                    )

        walk(name)
        flattened[name] = tuple(out)
    return ancestors, flattened


# ---------------------------------------------------------------------------
# Reference metamodel reader (differential oracle for the expat reader)
# ---------------------------------------------------------------------------

def _reference_local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _reference_xsi_type(elem: ET.Element) -> str:
    value = elem.get("{http://www.w3.org/2001/XMLSchema-instance}type", "")
    return value.rsplit(":", 1)[-1]


def _reference_bound(elem: ET.Element, attr: str, default: int) -> int:
    raw = elem.get(attr)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise MetamodelError(f"{attr} must be an integer, got '{raw}'") from None


def _reference_feature(elem: ET.Element, class_name: str) -> Member:
    name = elem.get("name")
    if not name:
        raise MetamodelError(f"feature of class '{class_name}' has no name")
    marker = _reference_xsi_type(elem)
    etype = _ref_name(elem.get("eType", ""))
    lower = _reference_bound(elem, "lowerBound", 0)
    upper: int | None = _reference_bound(elem, "upperBound", 1)
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
    if not marker:
        raise MetamodelError(f"feature '{class_name}.{name}' has no xsi:type")
    raise MetamodelError(
        f"feature '{class_name}.{name}' has unrecognized kind marker '{marker}'"
    )


# Prologues and damage for metamodel text: an external DTD subset, an
# internal entity and an external entity; references to each and to an
# undeclared one; markup and attributes that break the content checks, and
# stray characters that break the XML.
ECORE_PROLOGUES = [
    "", '<!DOCTYPE ecore:EPackage SYSTEM "ecore.dtd">\n',
    '<!DOCTYPE ecore:EPackage [<!ENTITY v "value">]>\n',
    '<!DOCTYPE ecore:EPackage [<!ENTITY e SYSTEM "x">]>\n',
]
_ECORE_MARKUP = [
    "&x;", "&v;", "&e;", "&amp;", "&#65;", "<!-- c -->", "<![CDATA[&x;]]>", "<?pi x?>",
    '<eClassifiers xsi:type="ecore:EClass" name="X"/>', "<eClassifiers/>",
    '<eClassifiers xsi:type="ecore:EDataType" name="T"/>', '<eSubpackages name="s"/>',
    '<eStructuralFeatures xsi:type="ecore:EAttribute" name="n" eType="#//EString"/>',
    "</eClassifiers>", "<a:b/>", '<x xmlns="urn:u"/>',
]
_ECORE_ATTRIBUTES = [
    ' abstract="true"', ' lowerBound="2"', ' upperBound="-1"', ' upperBound="x"',
    ' eType="#//Ghost"', ' containment="true"', ' rootClass="Ghost"', ' name="&v;"',
    ' name="&x;"', ' xsi:type="ecore:EDataType"', ' type="EClass"', ' eSuperTypes="#//EAPackage"',
]


@st.composite
def mutated_ecores(draw) -> str:
    """The fixture metamodel with one of ``ECORE_PROLOGUES`` after its XML
    declaration, then up to three edits: markup inserted after a tag, an
    attribute at the end of a tag, a stray character anywhere, a few
    characters cut, or the text cut short."""
    header, _, body = METAMODEL.read_text(encoding="utf-8").partition("\n")
    text = header + "\n" + draw(st.sampled_from(ECORE_PROLOGUES)) + body
    for _ in range(draw(st.integers(0, 3))):
        action = draw(st.sampled_from(
            ["markup", "markup", "attribute", "attribute", "char", "cut", "truncate"]
        ))
        tag_end = draw(st.sampled_from(list(re.finditer("/?>", text)) or [None]))
        at = draw(st.integers(0, len(text)))
        if action == "markup" and tag_end:
            text = text[:tag_end.end()] + draw(st.sampled_from(_ECORE_MARKUP)) + text[tag_end.end():]
        elif action == "attribute" and tag_end:
            text = text[:tag_end.start()] + draw(st.sampled_from(_ECORE_ATTRIBUTES)) + text[tag_end.start():]
        elif action == "char":
            text = text[:at] + draw(st.sampled_from("<>&\"/=")) + text[at:]
        elif action == "cut":
            text = text[:at] + text[at + draw(st.integers(1, 12)):]
        elif action == "truncate":
            text = text[:at]
    return text


def reference_load_metamodel(text: str) -> Metamodel:
    """``metamodel.load_metamodel`` on XML text as it was when it read an
    ElementTree tree: the same checks in the same order, with
    ElementTree's own rules for malformed XML and entities, but for an
    external DTD subset, which is an error (``reference_external_subset``).
    The index is ``_validate_and_index``, which ``reference_index`` checks."""
    dtd = reference_external_subset(text)
    if dtd is not None:
        message, line, col = dtd
        raise MetamodelError(f"metamodel XML parse error at line {line}, column {col}: {message}")
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, col = exc.position
        raise MetamodelError(
            f"metamodel XML parse error at line {line}, column {col}: {exc.msg}"
        ) from None
    if _reference_local(root.tag) != "EPackage":
        raise MetamodelError(
            f"expected an EPackage document, got <{_reference_local(root.tag)}>"
        )
    classes: dict[str, MetaClass] = {}
    for child in root:
        tag = _reference_local(child.tag)
        if tag in ("EPackage", "eSubpackages"):
            raise MetamodelError(
                "nested packages are not supported; provide one flat package"
            )
        if tag != "eClassifiers":
            raise MetamodelError(f"unexpected element <{tag}> inside EPackage")
        marker = _reference_xsi_type(child)
        if marker and marker != "EClass":
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
            _reference_feature(feat, name)
            for feat in child
            if _reference_local(feat.tag) == "eStructuralFeatures"
        ]
        classes[name] = MetaClass(
            name, abstract=child.get("abstract") == "true",
            supertypes=supertypes, members=members,
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


# ---------------------------------------------------------------------------
# Frozen command-line parser: every subcommand, always
# ---------------------------------------------------------------------------

# name, help, whether it takes a model file, whether it writes an output.
_REFERENCE_COMMANDS = [
    ("gen-grammar", "emit the grammar generated from a metamodel", False, True),
    ("adapt", "emit the grammar after applying a config", False, True),
    ("check", "parse and resolve a model, printing diagnostics", True, False),
    ("to-xml", "convert textual model to XML", True, True),
    ("to-text", "convert XML model to canonical text", True, True),
    ("complete", "print completion proposals for a position", True, False),
    ("format", "rewrite a model in canonical form", True, True),
    ("roundtrip-check", "verify text -> XML -> text reproduces the canonical form", True, False),
]


def reference_build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser as it was when it built all eight
    subparsers for every call. Namespaces carry no ``func``."""
    parser = argparse.ArgumentParser(
        prog="eatxt",
        description="Textual modeling toolchain: grammar generation, parsing, "
        "formatting, completion, and XML exchange.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, model, out in _REFERENCE_COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        if model:
            sp.add_argument("model", help="input file")
        sp.add_argument("--metamodel", required=True, help="metamodel XMI file")
        if model:
            sp.add_argument("--config", help="grammar adaptation config")
            sp.add_argument(
                "--grammar-cache",
                help="ignored; the grammar is always built from --metamodel and --config",
            )
        if out:
            sp.add_argument("-o", "--out", help="output file (default: stdout)")

    sub.choices["adapt"].add_argument(
        "--config", required=True, help="grammar adaptation config"
    )
    complete = sub.choices["complete"]
    complete.add_argument("--line", type=int, required=True, help="1-based line")
    complete.add_argument("--col", type=int, required=True, help="1-based column")
    return parser

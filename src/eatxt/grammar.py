"""Grammar IR, generation from a metamodel, and config-driven adaptation.

A Grammar is a set of production rules, one per concrete metamodel class,
plus explicitly defined terminals. Freshly generated grammars mirror the
metamodel one-to-one: every member keeps its keyword, containments are
wrapped in braces with comma separators, and no terminals are defined.
An adaptation config then rewrites the rules into the shape users type:
names hoisted onto the header line, containments unfolded, bodies made
optional, terminals pinned down.

Terminals that a config leaves undefined fall back to the builtin default
patterns at lexing time, so a short config is enough to obtain a usable
language. The emitted grammar text marks such terminals with a comment.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Sequence

from .diagnostics import ConfigError, GrammarError
from .metamodel import NAME_SLOT, Attribute, CrossReference, Metamodel, PrimitiveKind

# Type names as they appear in emitted grammar text. Strings use the
# "String0" spelling common in grammars derived from EMF models, where the
# plain name is reserved.
GRAMMAR_TYPE_NAMES: dict[PrimitiveKind, str] = {
    PrimitiveKind.IDENTIFIER: "Identifier",
    PrimitiveKind.STRING: "String0",
    PrimitiveKind.BOOLEAN: "Boolean",
    PrimitiveKind.NUMERICAL: "Numerical",
    PrimitiveKind.UUID: "UUID",
}

# Builtin terminal patterns, used whenever a grammar does not define its
# own. Numerical combines binary, octal, hex and decimal notations.
DEFAULT_TERMINAL_PATTERNS: dict[PrimitiveKind, str] = {
    PrimitiveKind.IDENTIFIER: r"[A-Za-z_][A-Za-z0-9_]*",
    PrimitiveKind.STRING: r'"(\\.|[^"\\\n])*"',
    PrimitiveKind.BOOLEAN: r"true|false",
    PrimitiveKind.NUMERICAL: (
        r"0b[01]+|0o[0-7]+|0x[0-9A-Fa-f]+"
        r"|[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?"
    ),
    PrimitiveKind.UUID: (
        r"[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}"
        r"-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}"
    ),
}


# ---------------------------------------------------------------------------
# IR types
# ---------------------------------------------------------------------------
# Entries and their forms are named tuples and never change: an adaptation
# replaces an entry in its rule's list. Rules and grammars are plain
# classes, and an adaptation changes only its own copies of them.

class KeywordAttribute(NamedTuple):
    """Primitive-valued member. keyword is None once it has been removed,
    which makes the value positional."""

    keyword: str | None
    kind: PrimitiveKind


class KeywordCrossRef(NamedTuple):
    keyword: str
    target: str


class WrappedContainment(NamedTuple):
    """Containment written as ``keyword { child, child }``."""

    keyword: str
    target: str


class InlineContainment(NamedTuple):
    """Containment written directly as child elements in the parent body."""

    target: str


EntryForm = KeywordAttribute | KeywordCrossRef | WrappedContainment | InlineContainment


class MemberEntry(NamedTuple):
    member: str
    form: EntryForm
    optional: bool
    repeatable: bool

    def is_name_slot(self) -> bool:
        """An Identifier ``shortName`` attribute, read as the element name."""
        return (
            self.member == NAME_SLOT
            and isinstance(self.form, KeywordAttribute)
            and self.form.kind is PrimitiveKind.IDENTIFIER
        )


class ProductionRule:
    __slots__ = ("class_name", "keyword", "name_inline", "body_optional", "entries")

    def __init__(
        self, class_name: str, keyword: str, name_inline: bool, body_optional: bool,
        entries: list[MemberEntry],
    ):
        self.class_name = class_name
        self.keyword = keyword
        self.name_inline = name_inline
        self.body_optional = body_optional
        self.entries = entries

    def entry_for(self, member: str) -> MemberEntry | None:
        for e in self.entries:
            if e.member == member:
                return e
        return None


class Grammar:
    __slots__ = ("rules", "terminals", "root_rule")

    def __init__(
        self, rules: dict[str, ProductionRule], terminals: dict[PrimitiveKind, str],
        root_rule: str,
    ):
        self.rules = rules
        self.terminals = terminals  # explicit patterns, in definition order
        self.root_rule = root_rule

    def __eq__(self, other: object) -> bool:
        """Same root, terminals and rules, down to the class of each form:
        a cross-reference and a wrapped containment with the same keyword
        and target are equal as tuples."""
        if not isinstance(other, Grammar):
            return NotImplemented
        return (
            self.root_rule == other.root_rule
            and self.terminals == other.terminals
            and _rule_values(self) == _rule_values(other)
        )

    def terminal_patterns(self) -> dict[PrimitiveKind, str]:
        """Effective pattern per kind: explicit terminals over the builtins."""
        return {**DEFAULT_TERMINAL_PATTERNS, **self.terminals}

    def used_kinds(self) -> set[PrimitiveKind]:
        used: set[PrimitiveKind] = set()
        for rule in self.rules.values():
            if rule.name_inline:
                used.add(PrimitiveKind.IDENTIFIER)
            for entry in rule.entries:
                if isinstance(entry.form, KeywordAttribute):
                    used.add(entry.form.kind)
        return used


def _rule_values(g: Grammar) -> dict[str, tuple]:
    return {
        name: (
            r.class_name, r.keyword, r.name_inline, r.body_optional,
            [(e, type(e.form)) for e in r.entries],
        )
        for name, r in g.rules.items()
    }


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def generate_grammar(mm: Metamodel) -> Grammar:
    """Derive the unadapted grammar: one rule per concrete class, keyword
    per member, braced containments, no terminals."""
    root = mm.classes.get(mm.root_class)
    if root is None or root.abstract:
        raise GrammarError(f"metamodel has no concrete root class ('{mm.root_class}')")

    rules: dict[str, ProductionRule] = {}
    for cls in mm.classes.values():
        if cls.abstract:
            continue
        entries: list[MemberEntry] = []
        for m in mm.flatten_members(cls.name):
            if isinstance(m.kind, Attribute):
                form: EntryForm = KeywordAttribute(m.name, m.kind.kind)
            elif isinstance(m.kind, CrossReference):
                form = KeywordCrossRef(m.name, m.kind.target)
            else:
                if not mm.concrete_subclasses(m.kind.target):
                    raise GrammarError(
                        f"containment '{cls.name}.{m.name}' targets "
                        f"'{m.kind.target}', which has no concrete subclass"
                    )
                form = WrappedContainment(m.name, m.kind.target)
            entries.append(
                MemberEntry(m.name, form, optional=m.lower == 0, repeatable=m.multi)
            )
        rules[cls.name] = ProductionRule(
            class_name=cls.name,
            keyword=cls.name,
            name_inline=False,
            body_optional=False,
            entries=entries,
        )
    return Grammar(rules=rules, terminals={}, root_rule=mm.root_class)


# ---------------------------------------------------------------------------
# Adaptation directives
# ---------------------------------------------------------------------------
# One named tuple per directive, one field per config argument. A rule
# directive's class constant ``unit`` is the unit text of its report line.

class DefineTerminal(NamedTuple):
    kind: PrimitiveKind
    pattern: str


class HoistShortName(NamedTuple):
    class_glob: str
    unit = "rule(s) hoisted"


class UnfoldContainment(NamedTuple):
    class_glob: str
    member_glob: str
    unit = "containment(s) unfolded"


class OptionalBody(NamedTuple):
    class_glob: str
    unit = "rule(s) made body-optional"


class RemoveAttributeKeyword(NamedTuple):
    class_glob: str
    member_glob: str
    unit = "keyword(s) removed"


Directive = (
    DefineTerminal | HoistShortName | UnfoldContainment | OptionalBody
    | RemoveAttributeKeyword
)


class AdaptationConfig:
    __slots__ = ("directives",)

    def __init__(self, directives: Sequence[Directive] = ()):
        self.directives = directives


# Config-file name of each directive. Every directive but define-terminal
# takes one glob argument per field.
_DIRECTIVES: dict[str, type] = {
    "define-terminal": DefineTerminal,
    "hoist-short-name": HoistShortName,
    "unfold-containment": UnfoldContainment,
    "optional-body": OptionalBody,
    "remove-attribute-keyword": RemoveAttributeKeyword,
}
_DIRECTIVE_NAMES = {cls: name for name, cls in _DIRECTIVES.items()}


def render_directive(d: Directive) -> str:
    """Config-file spelling of a directive, used in reports and errors."""
    if isinstance(d, DefineTerminal):
        return f"define-terminal {d.kind.value} /{d.pattern}/"
    return f"{_DIRECTIVE_NAMES[type(d)]} {' '.join(d)}"


def _compile_glob(glob: str) -> re.Pattern[str]:
    return re.compile(
        "".join(".*" if ch == "*" else re.escape(ch) for ch in glob) + r"\Z"
    )


def _check_glob(glob: str, line_no: int) -> str:
    for ch in glob:
        if not (ch.isalnum() or ch in "_*"):
            raise ConfigError(
                f"line {line_no}: bad character '{ch}' in glob '{glob}' "
                "(only letters, digits, '_' and '*' are allowed)"
            )
    return glob


_KIND_BY_NAME = {k.value: k for k in PrimitiveKind}


def parse_config(text: str) -> AdaptationConfig:
    """Parse an adaptation config. One directive per line, '#' lines and
    blank lines ignored. Errors carry the offending line number."""
    directives: list[Directive] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        words = line.split()
        name = words[0]

        if name == "define-terminal":
            if len(words) < 2:
                raise ConfigError(f"line {line_no}: define-terminal needs a kind")
            kind = _KIND_BY_NAME.get(words[1])
            if kind is None:
                raise ConfigError(
                    f"line {line_no}: unknown terminal kind '{words[1]}' "
                    f"(expected one of {', '.join(_KIND_BY_NAME)})"
                )
            rest = line.split(None, 2)[2] if len(words) >= 3 else ""
            first = rest.find("/")
            last = rest.rfind("/")
            if first == -1 or last == first:
                raise ConfigError(
                    f"line {line_no}: define-terminal pattern must be "
                    "written between slashes"
                )
            if rest[:first].strip() or rest[last + 1:].strip():
                raise ConfigError(f"line {line_no}: trailing text after pattern")
            pattern = rest[first + 1:last]
            if not pattern:
                raise ConfigError(f"line {line_no}: empty terminal pattern")
            try:
                re.compile(pattern)
            except re.error as exc:
                raise ConfigError(
                    f"line {line_no}: bad pattern for {kind.value}: {exc}"
                ) from None
            directives.append(DefineTerminal(kind, pattern))
            continue

        cls = _DIRECTIVES.get(name)
        if cls is None:
            raise ConfigError(f"line {line_no}: unknown directive '{name}'")
        arity = len(cls._fields)
        if len(words) != 1 + arity:
            raise ConfigError(
                f"line {line_no}: {name} takes {arity} argument(s), "
                f"got {len(words) - 1}"
            )
        directives.append(cls(*(_check_glob(w, line_no) for w in words[1:])))
    return AdaptationConfig(directives)


# ---------------------------------------------------------------------------
# Applying a config
# ---------------------------------------------------------------------------

class ReportEntry(NamedTuple):
    directive: str
    matches: int
    unit: str

    @property
    def warning(self) -> bool:
        return self.matches == 0

    def render(self) -> str:
        if self.warning:
            return f"warning: {self.directive}: no matches"
        return f"{self.directive}: {self.matches} {self.unit}"


class AdaptationReport:
    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: list[ReportEntry] = []

    def render(self) -> str:
        return "\n".join(e.render() for e in self.entries)


def adapt_grammar(g: Grammar, cfg: AdaptationConfig) -> tuple[Grammar, AdaptationReport]:
    """Apply directives in config order to a copy of ``g``.

    The copy has its own rules, entry lists and terminals; the entries,
    which never change, are shared, and ``g`` is left as it was. The
    report has one entry per directive, counting the rules whose name slot
    moved, the containments made inline, the rules newly made
    body-optional or the keywords removed, never an entry already in its
    target form; define-terminal counts 1. A count of 0 is a warning, not
    an error. No directive touches the body braces of a rule.
    """
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
            # A redefinition keeps the kind's first position.
            g.terminals[d.kind] = d.pattern
            report.entries.append(ReportEntry(text, 1, "terminal defined"))
            continue
        cpat = _compile_glob(d.class_glob)
        unfold = isinstance(d, UnfoldContainment)
        if unfold or isinstance(d, RemoveAttributeKeyword):
            mpat = _compile_glob(d.member_glob)
        count = 0
        for rule in g.rules.values():
            if not cpat.match(rule.class_name):
                continue
            if isinstance(d, HoistShortName):
                if (entry := rule.entry_for(NAME_SLOT)) is not None and entry.is_name_slot():
                    rule.entries.remove(entry)
                    rule.name_inline = True
                    count += 1
            elif isinstance(d, OptionalBody):
                count += not rule.body_optional
                rule.body_optional = True
            else:
                entries = rule.entries
                for index, entry in enumerate(entries):
                    if not mpat.match(entry.member):
                        continue
                    form = entry.form
                    if unfold:
                        if isinstance(form, WrappedContainment):
                            entries[index] = entry._replace(form=InlineContainment(form.target))
                            count += 1
                    elif isinstance(form, KeywordAttribute) and form.keyword is not None:
                        entries[index] = entry._replace(form=form._replace(keyword=None))
                        count += 1
                if unfold:
                    continue
                positional = [
                    e.member for e in entries
                    if isinstance(e.form, KeywordAttribute) and e.form.keyword is None
                ]
                if len(positional) > 1:
                    raise ConfigError(
                        f"{text}: rule '{rule.class_name}' would have {len(positional)} "
                        f"positional attributes ({', '.join(positional)}); at most one is allowed"
                    )
        report.entries.append(ReportEntry(text, count, d.unit))

    return g, report


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _emit_entry(e: MemberEntry) -> str:
    form = e.form
    op = "+=" if e.repeatable else "="
    if isinstance(form, KeywordAttribute):
        base = f"{e.member}{op}{GRAMMAR_TYPE_NAMES[form.kind]}"
        if form.keyword is not None:
            base = f"'{form.keyword}' {base}"
    elif isinstance(form, KeywordCrossRef):
        base = f"'{form.keyword}' {e.member}{op}[{form.target}]"
    elif isinstance(form, InlineContainment):
        base = f"{e.member}{op}{form.target}"
    else:
        inner = f"{e.member}{op}{form.target}"
        if e.repeatable:
            core = f"""'{form.keyword}' '{{' {inner} ( "," {inner})* '}}'"""
        else:
            core = f"'{form.keyword}' '{{' {inner} '}}'"
        if e.optional:
            return f"({core} )?"
        return core

    if e.repeatable:
        return f"({base})*" if e.optional else f"({base})+"
    if e.optional:
        return f"({base})?"
    return base


def _emit_rule(rule: ProductionRule) -> str:
    lines = [f"{rule.class_name} returns {rule.class_name}:"]
    head = f"    '{rule.keyword}'"
    if rule.name_inline:
        head += " shortName=Identifier"
    lines.append(head)
    lines.append("    ('{'" if rule.body_optional else "    '{'")
    for entry in rule.entries:
        lines.append("        " + _emit_entry(entry))
    lines.append("    '}')?;" if rule.body_optional else "    '}';")
    return "\n".join(lines)


def emit_grammar(g: Grammar) -> str:
    """Deterministic text rendering: root rule first, remaining rules in
    declaration order, then terminals. Undefined-but-used terminals get a
    placeholder comment."""
    blocks: list[str] = []
    order = [g.root_rule] if g.root_rule in g.rules else []
    order += [name for name in g.rules if name not in order]
    for name in order:
        blocks.append(_emit_rule(g.rules[name]))

    terminal_lines = [
        f"terminal {GRAMMAR_TYPE_NAMES[kind]}: /{pattern}/;"
        for kind, pattern in g.terminals.items()
    ]
    used = g.used_kinds()
    for kind in PrimitiveKind:
        if kind in used and kind not in g.terminals:
            terminal_lines.append(
                f"// terminal {GRAMMAR_TYPE_NAMES[kind]} not defined here; "
                "the lexer uses the builtin default pattern"
            )
    if terminal_lines:
        blocks.append("\n".join(terminal_lines))

    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"

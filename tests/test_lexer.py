import re

import pytest
from hypothesis import example, given, strategies as st

from eatxt.diagnostics import ConfigError, Span
from eatxt.grammar import DEFAULT_TERMINAL_PATTERNS
from eatxt.metamodel import PrimitiveKind
from eatxt.textsyntax import LineIndex, lex

from support import FIXTURES, line_starts, reference_lex

PATTERNS = {k: re.compile(p) for k, p in DEFAULT_TERMINAL_PATTERNS.items()}


def rows(tokens):
    """(kind, lexeme, offset, span) of each token, read from the columns."""
    return [
        (kind, lexeme, offset, tokens.lines.span(offset, offset + len(lexeme)))
        for kind, lexeme, offset in zip(tokens.kinds, tokens.lexemes, tokens.offsets)
    ]


def kinds_of(text, terminals=DEFAULT_TERMINAL_PATTERNS):
    tokens, diags = lex(text, terminals)
    assert diags == []
    return list(zip(tokens.kinds, tokens.lexemes))


def single(text):
    result = kinds_of(text)
    assert len(result) == 1, result
    return result[0]


def test_identifier_and_punctuation():
    assert kinds_of("foo { bar , } baz.qux") == [
        ("Identifier", "foo"),
        ("{", "{"),
        ("Identifier", "bar"),
        (",", ","),
        ("}", "}"),
        ("Identifier", "baz"),
        (".", "."),
        ("Identifier", "qux"),
    ]


@pytest.mark.parametrize("lexeme", ["0b101", "0o17", "42", "-3.5e2", "0xFF"])
def test_numerical_accepts(lexeme):
    assert PATTERNS[PrimitiveKind.NUMERICAL].fullmatch(lexeme), "oracle disagrees"
    assert single(lexeme) == ("Numerical", lexeme)


@pytest.mark.parametrize("lexeme", ["0b2", "--1"])
def test_numerical_rejects(lexeme):
    assert PATTERNS[PrimitiveKind.NUMERICAL].fullmatch(lexeme) is None
    tokens, diags = lex(lexeme, DEFAULT_TERMINAL_PATTERNS)
    assert ("Numerical", lexeme) not in zip(tokens.kinds, tokens.lexemes)


def test_uuid_accepted_and_beats_numerical():
    lexeme = "123e4567-e89b-12d3-a456-426614174000"
    assert PATTERNS[PrimitiveKind.UUID].fullmatch(lexeme)
    assert single(lexeme) == ("UUID", lexeme)


def test_uuid_case_insensitive_hex():
    assert single("DEADBEEF-CAFE-4BAD-8BAD-0123456789AB")[0] == "UUID"


def test_boolean_literals():
    assert single("true") == ("Boolean", "true")
    assert single("false") == ("Boolean", "false")
    # not a prefix match: trueish is an identifier
    assert single("trueish") == ("Identifier", "trueish")


def test_string_with_escapes():
    lexeme = '"a \\"quoted\\" part\\n and \\\\ backslash"'
    assert single(lexeme) == ("String", lexeme)


def test_string_may_not_span_lines():
    tokens, diags = lex('"broken\nstring"', DEFAULT_TERMINAL_PATTERNS)
    assert diags, "unterminated string should produce a diagnostic"


def test_line_comments_are_skipped():
    assert kinds_of("foo // rest of line\nbar") == [
        ("Identifier", "foo"),
        ("Identifier", "bar"),
    ]


def test_unlexable_character_reported_and_skipped():
    tokens, diags = lex("foo § bar", DEFAULT_TERMINAL_PATTERNS)
    assert len(diags) == 1
    assert diags[0].severity == "error"
    assert tokens.lexemes == ["foo", "bar"]


def test_spans_are_one_based():
    tokens, _ = lex("a\n  b", DEFAULT_TERMINAL_PATTERNS)
    spans = [span for _, _, _, span in rows(tokens)]
    assert (spans[0].line, spans[0].col) == (1, 1)
    assert (spans[1].line, spans[1].col) == (2, 3)


def test_span_of_token_across_a_newline():
    terminals = {**DEFAULT_TERMINAL_PATTERNS, PrimitiveKind.STRING: r'"[^"]*"'}
    tokens, diags = lex('a "x\ny" b', terminals)
    assert diags == []
    assert list(zip(tokens.kinds, tokens.lexemes, tokens.offsets)) == [
        ("Identifier", "a", 0), ("String", '"x\ny"', 2), ("Identifier", "b", 8),
    ]
    spans = [span for _, _, _, span in rows(tokens)]
    assert spans[1] == Span(1, 3, 2, 3)
    assert spans[2] == Span(2, 4, 2, 5)


def test_longest_match_wins():
    # "0x" then "FF" would be two tokens; the longest single match is taken.
    assert single("0xFF") == ("Numerical", "0xFF")
    # identifier keeps going over digits
    assert single("ab12cd") == ("Identifier", "ab12cd")


def test_missing_terminal_rejected():
    partial = {PrimitiveKind.IDENTIFIER: "[a-z]+"}
    with pytest.raises(ConfigError, match="String"):
        lex("a", partial)


@given(st.integers(min_value=0, max_value=2**32))
def test_decimal_numbers_lex_as_numerical(n):
    assert single(str(n)) == ("Numerical", str(n))


@given(st.from_regex(DEFAULT_TERMINAL_PATTERNS[PrimitiveKind.UUID], fullmatch=True))
def test_uuid_shaped_input_always_lexes_uuid(s):
    assert single(s) == ("UUID", s)


@given(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,15}", fullmatch=True).filter(
        lambda s: s not in ("true", "false")
    )
)
def test_identifier_shaped_input_lexes_identifier(s):
    assert single(s) == ("Identifier", s)


@given(st.from_regex(DEFAULT_TERMINAL_PATTERNS[PrimitiveKind.NUMERICAL], fullmatch=True))
def test_numerical_shaped_input_never_splits(s):
    tokens, diags = lex(s, DEFAULT_TERMINAL_PATTERNS)
    assert diags == []
    assert len(tokens) == 1
    assert tokens.kinds[0] in ("Numerical", "UUID")


# -- differential against the reference lexer ------------------------------

TERMINAL_SETS = {
    "default": DEFAULT_TERMINAL_PATTERNS,
    # A pattern that matches the empty string everywhere.
    "empty-match": {**DEFAULT_TERMINAL_PATTERNS, PrimitiveKind.NUMERICAL: r"[0-9]*"},
    "multiline-string": {**DEFAULT_TERMINAL_PATTERNS, PrimitiveKind.STRING: r'"[^"]*"'},
    "capture-groups": {
        **DEFAULT_TERMINAL_PATTERNS,
        PrimitiveKind.IDENTIFIER: r"([A-Za-z_])([A-Za-z0-9_]|-(?=[a-z]))*",
    },
    # Patterns that would change meaning as a branch of one big regex: a
    # numbered backreference, a global inline flag, a named group.
    "backreference": {
        **DEFAULT_TERMINAL_PATTERNS, PrimitiveKind.STRING: r"""(["'])(?:\\.|(?!\1).)*\1""",
    },
    "inline-flag": {**DEFAULT_TERMINAL_PATTERNS, PrimitiveKind.BOOLEAN: r"(?i)true|false"},
    "named-group": {**DEFAULT_TERMINAL_PATTERNS, PrimitiveKind.BOOLEAN: r"(?P<b>true|false)"},
    # The last kind matching the empty string, where nothing else does.
    "empty-identifier": {**DEFAULT_TERMINAL_PATTERNS, PrimitiveKind.IDENTIFIER: r"[A-Za-z_]*"},
    # A lookbehind that reads the text before the token.
    "lookbehind": {**DEFAULT_TERMINAL_PATTERNS, PrimitiveKind.NUMERICAL: r"(?<![.0-9])[0-9]+"},
    # Punctuation wins even where a terminal matches longer.
    "punctuation-first": {**DEFAULT_TERMINAL_PATTERNS, PrimitiveKind.NUMERICAL: r"\.[0-9]+"},
}

FIXTURE_FILES = sorted(p for p in FIXTURES.rglob("*") if p.is_file())

# Pieces that exercise every branch of the lexer: whitespace runs,
# comments, unterminated and escaped strings, signs and exponents,
# UUID prefixes, punctuation and characters no terminal accepts.
FRAGMENTS = [
    " ", "   ", "\t", "\n", "\r\n", "//", "/", '"', "'", "\\", "0", "7", "42", "-",
    "+", ".", "e", "x", "b", "0x", "{", "}", ",", "\u00a7", "\u00e9", "\u65e5",
    "a", "Z", "_", "true", "false", "deadbeef-", "cafe-",
]


def assert_same_as_reference(text, terminals):
    tokens, diags = lex(text, terminals)
    expected_tokens, expected_diags = reference_lex(text, terminals)
    assert rows(tokens) == expected_tokens
    assert diags == expected_diags


@pytest.mark.parametrize("name", sorted(TERMINAL_SETS))
def test_lex_matches_reference_on_fixtures(name):
    assert FIXTURE_FILES
    for path in FIXTURE_FILES:
        assert_same_as_reference(path.read_text(encoding="utf-8"), TERMINAL_SETS[name])


@pytest.mark.parametrize("name", sorted(TERMINAL_SETS))
@given(text=st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join))
def test_lex_matches_reference_on_generated_text(name, text):
    assert_same_as_reference(text, TERMINAL_SETS[name])


@pytest.mark.parametrize("name", sorted(TERMINAL_SETS))
@given(text=st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join))
def test_string_offsets_are_those_of_the_reference_strings(name, text):
    tokens, _ = lex(text, TERMINAL_SETS[name])
    expected, _ = reference_lex(text, TERMINAL_SETS[name])
    assert tokens.strings == [
        (offset, offset + len(lexeme)) for kind, lexeme, offset, _ in expected if kind == "String"
    ]


# Characters that other line-breaking rules (``str.splitlines``, Unicode)
# count as line ends; only ``\n`` does here, as in the reference lexer.
LINE_BREAK_LOOKALIKES = ["a", " ", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x85", "\u2028", "\u2029"]


@given(text=st.lists(st.sampled_from(LINE_BREAK_LOOKALIKES), max_size=60).map("".join))
def test_line_starts_follow_newlines_only(text):
    lines, starts = LineIndex(text), line_starts(text)
    assert [lines.start(k) for k in range(1, len(starts) + 2)] == starts + [None]


@given(
    text=st.lists(st.sampled_from(LINE_BREAK_LOOKALIKES + ["\n"] * 4), max_size=40).map("".join),
    calls=st.lists(
        st.tuples(st.sampled_from(["span", "start", "offset"]), st.integers(-1, 9), st.integers(-1, 41)),
        max_size=8,
    ),
)
@example(text="\n\n", calls=[("start", 2, 0), ("span", 0, 2)])
@example(text="ab\ncd\n", calls=[("offset", 1, 3), ("offset", 1, 4), ("span", 1, 4)])
def test_line_index_answers_agree_in_any_order(text, calls):
    """Whatever the order of its lookups, one index gives the answers of
    the line starts read from the characters, and holds a prefix of them."""
    starts = line_starts(text)
    index = LineIndex(text)
    for name, a, b in calls:
        if name == "start":
            assert index.start(a) == (starts[a - 1] if 1 <= a <= len(starts) else None)
        elif name == "span":
            lo = min(max(b, 0), len(text))
            hi = min(lo + 3 * max(a, 0), len(text))
            line = sum(s <= lo for s in starts)
            end_line = sum(s <= hi for s in starts)
            assert index.span(lo, hi) == Span(
                line, lo - starts[line - 1] + 1, end_line, hi - starts[end_line - 1] + 1,
            )
        elif 1 <= a <= len(starts) and 1 <= b <= (starts + [len(text) + 1])[a] - starts[a - 1]:
            assert index.offset(a, b) == starts[a - 1] + b - 1
        else:
            with pytest.raises(ValueError, match="out of range"):
                index.offset(a, b)
        assert index._starts == starts[: len(index._starts)]

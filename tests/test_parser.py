import copy
import json
import re

import pytest

import eatxt.textsyntax
from eatxt.cli import main
from eatxt.diagnostics import ERROR, WARNING
from eatxt.grammar import KeywordCrossRef, adapt_grammar, generate_grammar, parse_config
from eatxt.metamodel import load_metamodel
from eatxt.textsyntax import LineIndex, Parser, parse_document, parse_model

from support import (
    CONFIG, DAMAGED_PARSE, EXTRA, METAMODEL, MODELS, assign_preorder_ids, damaged_corpus,
    parse_record, random_model, same_structure,
)
from eatxt.textsyntax import format_model


def parse_ok(text, g, mm):
    root, diags = parse_model(text, g, mm)
    assert diags == [], [d.format("m") for d in diags]
    assert root is not None
    return root


def errors_of(text, g, mm):
    _, diags = parse_model(text, g, mm)
    return [d for d in diags if d.severity == ERROR]


def test_empty_package_one_liner(g, mm):
    root = parse_ok("EAPackage DesignPkg\n", g, mm)
    assert root.class_name == "EAPackage"
    assert root.short_name == "DesignPkg"
    assert root.children == []
    assert root.id == 1


def test_corpus_parses_clean(g, mm):
    for path in MODELS:
        root, diags = parse_model(path.read_text(encoding="utf-8"), g, mm)
        assert diags == [], (path.name, [d.format(path.name) for d in diags])
        assert root is not None


def test_preorder_ids_follow_document_order(g, mm):
    text = (
        "EAPackage P\n{\n"
        "    EADatatype A\n"
        "    EAPackage Q\n    {\n        EADatatype B\n    }\n"
        "    EADatatype C\n"
        "}\n"
    )
    root = parse_ok(text, g, mm)
    order = [(el.id, el.short_name) for el in root.iter_preorder()]
    assert order == [(1, "P"), (2, "A"), (3, "Q"), (4, "B"), (5, "C")]


def test_attribute_lexemes_stored_verbatim(g, mm):
    text = (
        "EAPackage P\n{\n"
        '    uuid "0f8fad5b"\n'
        "    DesignFunctionType F\n    {\n"
        "        isElementary true\n"
        "        FunctionClientServerPort s\n        {\n"
        "            timeout 0xFF\n        }\n"
        "    }\n"
        "}\n"
    )
    root = parse_ok(text, g, mm)
    assert root.attributes == [("uuid", '"0f8fad5b"')]
    fn = root.children[0][1]
    port = fn.children[0][1]
    assert port.attributes == [("timeout", "0xFF")]


def test_member_keyword_beats_class_keyword_promotion(g, mm):
    # "category" is only a keyword inside EAPackage; elsewhere it is a name.
    text = "EAPackage category\n{\n    category category\n}\n"
    root = parse_ok(text, g, mm)
    assert root.short_name == "category"
    assert root.attributes == [("category", "category")]


def test_qualified_name_parsing(g, mm):
    text = (
        "EAPackage P\n{\n"
        "    EADatatype T\n"
        "    DesignFunctionType F\n    {\n"
        "        FunctionFlowPort p\n        {\n"
        "            direction in\n"
        "            type P.T\n        }\n"
        "    }\n"
        "}\n"
    )
    root = parse_ok(text, g, mm)
    port = root.children[1][1].children[0][1]
    assert port.cross_refs[0].target.segments == ("P", "T")


def test_qualified_name_cut_after_a_dot_points_at_its_last_segment(g, mm):
    text = (
        "EAPackage P\n{\n    DesignFunctionType F\n    {\n"
        "        FunctionFlowPort p\n        {\n            type P.T."
    )
    diags = errors_of(text, g, mm)
    assert ("qualified name ends with '.'", 7, 20) in [
        (d.message, d.span.line, d.span.col) for d in diags
    ]


def test_inline_name_fills_a_kept_short_name_entry(g, gen_g, mm):
    # A hand-built grammar may hoist the name and still list the
    # shortName entry; the inline name then counts for it.
    grammar = copy.deepcopy(g)
    grammar.rules["EADatatype"].entries.insert(
        0, gen_g.rules["EADatatype"].entry_for("shortName"),
    )
    assert errors_of("EAPackage P\n{\n    EADatatype T\n}\n", grammar, mm) == []
    diags = errors_of("EAPackage P\n{\n    EADatatype\n    {\n    }\n}\n", grammar, mm)
    assert "missing mandatory member 'shortName' in 'EADatatype'" in [
        d.message for d in diags
    ]


def test_missing_name_reported(g, mm):
    diags = errors_of("EAPackage\n{\n}\n", g, mm)
    assert any("expected a name after 'EAPackage'" in d.message for d in diags)


def test_wrong_value_kind_reported(g, mm):
    text = "EAPackage P\n{\n    DesignFunctionType F\n    {\n        isElementary 42\n    }\n}\n"
    diags = errors_of(text, g, mm)
    assert any(
        "expected a Boolean value for 'isElementary'" in d.message for d in diags
    )


def test_missing_mandatory_member_reported(g, mm):
    text = (
        "EAPackage P\n{\n"
        "    DesignFunctionType F\n    {\n"
        "        FunctionFlowPort p\n        {\n"
        "            direction in\n        }\n"
        "    }\n"
        "}\n"
    )
    diags = errors_of(text, g, mm)
    assert any("missing mandatory member 'type'" in d.message for d in diags)


def test_duplicate_single_valued_member_reported(g, mm):
    text = "EAPackage P\n{\n    category a\n    category b\n}\n"
    diags = errors_of(text, g, mm)
    dup = [d for d in diags if "duplicate member 'category'" in d.message]
    assert [(d.span.line, d.span.col) for d in dup] == [(4, 14)]


def test_duplicate_cross_reference_points_at_its_keyword(g, mm):
    text = (
        "EAPackage P\n{\n    EADatatype T\n    DesignFunctionType F\n    {\n"
        "        FunctionFlowPort p\n        {\n            direction in\n"
        "            type P.T\n            type P.T\n        }\n    }\n}\n"
    )
    diags = errors_of(text, g, mm)
    assert [(d.message, d.span.line, d.span.col) for d in diags] == [
        ("duplicate member 'type'", 10, 13),
    ]


def test_bounded_member_overflow_points_at_the_extra_value():
    mm = load_metamodel(
        '<ecore:EPackage xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"'
        ' xmlns:ecore="http://www.eclipse.org/emf/2002/Ecore" name="p">'
        '<eClassifiers xsi:type="ecore:EClass" name="A">'
        '<eStructuralFeatures xsi:type="ecore:EAttribute" name="shortName"'
        ' eType="#//Identifier" lowerBound="1"/>'
        '<eStructuralFeatures xsi:type="ecore:EAttribute" name="tag"'
        ' eType="#//Identifier" upperBound="2"/></eClassifiers>'
        "</ecore:EPackage>"
    )
    text = "A\n{\n    shortName a\n    tag x\n    tag y\n    tag z\n}\n"
    diags = errors_of(text, generate_grammar(mm), mm)
    assert [(d.message, d.span.line, d.span.col) for d in diags] == [
        ("member 'tag' allows at most 2 values", 6, 9),
    ]


def test_unknown_keyword_lists_alternatives(g, mm):
    text = "EAPackage P\n{\n    bogus x\n}\n"
    diags = errors_of(text, g, mm)
    assert len(diags) == 1
    msg = diags[0].message
    assert "bogus" in msg
    assert "category" in msg and "EADatatype" in msg


def test_child_that_fits_no_containment(g, mm):
    # FunctionFlowPort cannot appear directly inside EAPackage.
    text = "EAPackage P\n{\n    FunctionFlowPort f\n    {\n        direction in\n    }\n}\n"
    _, diags = parse_model(text, g, mm)
    assert any(
        "no containment that accepts FunctionFlowPort" in d.message for d in diags
    )


def test_child_that_fits_several_containments_joins_the_first():
    mm = load_metamodel(
        '<ecore:EPackage xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"'
        ' xmlns:ecore="http://www.eclipse.org/emf/2002/Ecore" name="p">'
        '<eClassifiers xsi:type="ecore:EClass" name="A">'
        '<eStructuralFeatures xsi:type="ecore:EAttribute" name="shortName"'
        ' eType="#//Identifier" lowerBound="1"/>'
        '<eStructuralFeatures xsi:type="ecore:EReference" name="x" eType="#//C"'
        ' containment="true" upperBound="-1"/>'
        '<eStructuralFeatures xsi:type="ecore:EReference" name="y" eType="#//C"'
        ' containment="true" upperBound="-1"/></eClassifiers>'
        '<eClassifiers xsi:type="ecore:EClass" name="C">'
        '<eStructuralFeatures xsi:type="ecore:EAttribute" name="shortName"'
        ' eType="#//Identifier" lowerBound="1"/></eClassifiers>'
        "</ecore:EPackage>"
    )
    g = adapt_grammar(generate_grammar(mm), parse_config(CONFIG.read_text(encoding="utf-8")))[0]
    root, diags = parse_model("A a\n{\n    C c\n}\n", g, mm)
    assert [(d.severity, d.message, d.span.line, d.span.col) for d in diags] == [
        (WARNING, "C fits several containments (x, y); using 'x'", 3, 5),
    ]
    assert [(member, child.short_name) for member, child in root.children] == [("x", "c")]


def test_reference_keyword_without_a_name(g, mm):
    text = (
        "EAPackage P\n{\n    DesignFunctionType F\n    {\n"
        "        FunctionFlowPort p\n        {\n            direction in\n"
        "            type 5\n        }\n    }\n}\n"
    )
    assert ("expected a qualified name after 'type'", 8, 18) in [
        (d.message, d.span.line, d.span.col) for d in errors_of(text, g, mm)
    ]


def test_recovery_keeps_following_siblings(g, mm):
    text = (
        "EAPackage P\n{\n"
        "    bogus x\n"
        "    EADatatype Kept\n"
        "}\n"
    )
    root, diags = parse_model(text, g, mm)
    assert root is not None
    assert [c.short_name for _, c in root.children] == ["Kept"]
    assert len([d for d in diags if d.severity == ERROR]) == 1


def test_skipped_subtree_is_never_half_attached(g, mm):
    text = (
        "EAPackage P\n{\n"
        "    FunctionPrototype stray\n    {\n"
        "        type P\n    }\n"
        "    EADatatype Kept\n"
        "}\n"
    )
    root, diags = parse_model(text, g, mm)
    assert [c.short_name for _, c in root.children] == ["Kept"]
    assert any(d.severity == ERROR for d in diags)


def test_unclosed_brace_reported_at_eof(g, mm):
    diags = errors_of("EAPackage P\n{\n    category x\n", g, mm)
    assert diags


def test_trailing_tokens_reported(g, mm):
    diags = errors_of("EAPackage P\nEAPackage Q\n", g, mm)
    assert any("after the top-level element" in d.message for d in diags)


def test_document_not_starting_with_root_keyword(g, mm):
    root, diags = parse_model("category x\n", g, mm)
    assert root is None
    assert diags and diags[0].severity == ERROR


def test_empty_document(g, mm):
    root, diags = parse_model("", g, mm)
    assert root is None
    assert diags


def test_comment_only_document(g, mm):
    root, diags = parse_model("// nothing here\n", g, mm)
    assert root is None
    assert diags


def test_diagnostic_positions_point_at_the_problem(g, mm):
    text = "EAPackage P\n{\n    bogus x\n}\n"
    diags = errors_of(text, g, mm)
    assert diags[0].span.line == 3
    assert diags[0].span.col == 5


def test_upper_bound_on_multi_values_unlimited(g, mm):
    lines = ["EAPackage P", "{"] + [f"    EADatatype D{i}" for i in range(30)] + ["}"]
    root = parse_ok("\n".join(lines) + "\n", g, mm)
    assert len(root.children) == 30


def test_generated_grammar_requires_full_form(gen_g, mm):
    # without adaptation, shortName is a keyworded line inside braces
    text = (
        "EAPackage\n{\n"
        "    shortName P\n"
        "    subPackage\n    {\n"
        "        EAPackage\n        {\n            shortName Q\n        }\n"
        "    }\n"
        "}\n"
    )
    root, diags = parse_model(text, gen_g, mm)
    assert diags == [], [d.format("m") for d in diags]
    assert root.short_name == "P"
    assert root.children[0][1].short_name == "Q"


def test_wrapped_containment_accepts_commas(gen_g, mm):
    text = (
        "EAPackage\n{\n"
        "    shortName P\n"
        "    element\n    {\n"
        "        EADatatype\n        {\n            shortName A\n        }\n"
        "        ,\n"
        "        EADatatype\n        {\n            shortName B\n        }\n"
        "    }\n"
        "}\n"
    )
    root, diags = parse_model(text, gen_g, mm)
    assert diags == []
    assert [c.short_name for _, c in root.children] == ["A", "B"]


def test_random_trees_reparse_to_same_structure(g, gen_g, mm):
    for syntax, grammar in (("adapted", g), ("generated", gen_g)):
        for seed in range(25):
            tree = random_model(seed, mm, max_elements=40)
            text = format_model(tree, grammar)
            root, diags = parse_model(text, grammar, mm)
            assert diags == [], (syntax, seed, [d.format("m") for d in diags])
            assert same_structure(tree, root), (syntax, seed)


def split_references(text, grammar):
    """``text`` with the qualified name after each cross-reference keyword
    broken after every dot by a comment and a line break."""
    keywords = {
        entry.form.keyword for rule in grammar.rules.values() for entry in rule.entries
        if isinstance(entry.form, KeywordCrossRef)
    }
    return "\n".join(
        line.replace(".", ". // split\n    ") if line.split()[:1] and line.split()[0] in keywords
        else line
        for line in text.split("\n")
    )


def test_offsets_hold_the_keyword_or_the_qualified_name(g, gen_g, mm):
    """Read from the text alone: an element's offsets hold its class
    keyword, a reference's its qualified name, comments and layout aside."""
    cases = [(g, path.read_text(encoding="utf-8")) for path in MODELS]
    cases.append((g, (EXTRA / "messy_but_valid.eatxt").read_text(encoding="utf-8")))
    for grammar in (g, gen_g):
        for seed in range(25):
            text = format_model(random_model(seed, mm, max_elements=40), grammar)
            cases += [(grammar, text), (grammar, split_references(text, grammar))]
    split = 0
    for grammar, text in cases:
        parse = parse_document(text, grammar, mm)
        assert parse.diagnostics == []
        for el in parse.root.iter_preorder():
            assert text[el.start:el.end] == grammar.rules[el.class_name].keyword
            for r in el.cross_refs:
                written = text[r.start:r.end]
                assert re.sub(r"\s+|//[^\n]*", "", written) == r.target.dotted
                split += "//" in written
    assert split > 25


def test_a_clean_parse_or_check_places_nothing(g, mm, monkeypatch, capsys):
    """No line:col is computed, and no line start found, unless something
    is reported."""
    calls = []
    span = LineIndex.span
    monkeypatch.setattr(
        LineIndex, "span", lambda self, *a: calls.append("span") or span(self, *a),
    )
    for path in MODELS:
        assert parse_document(path.read_text(encoding="utf-8"), g, mm).diagnostics == []
        code = main(["check", str(path), "--metamodel", str(METAMODEL), "--config", str(CONFIG)])
        assert (code, capsys.readouterr().out) == (0, "")
    assert calls == []
    parse = parse_document("EAPackage P\n{\n    ?\n}\n", g, mm)
    assert parse.diagnostics
    assert calls[:1] == ["span"]
    # A span finds the line starts only as far as the end it places.
    assert parse.lines._starts == [0, 12, 14]


def test_damaged_documents_parse_as_recorded(g, gen_g, mm):
    """Diagnostics, bodies, string offsets and elements of the corpus and
    of seeded damaged variants, in both syntaxes, match the recording in
    fixtures/golden/damaged_parse.json (see support.record_damaged_parse)."""
    recorded = json.loads(DAMAGED_PARSE.read_text(encoding="utf-8"))
    grammars = {"adapted": g, "generated": gen_g}
    for syntax, docs in damaged_corpus(g, gen_g, mm).items():
        assert [name for name, _ in docs] == [name for name, _ in recorded[syntax]]
        for (name, text), (_, expected) in zip(docs, recorded[syntax]):
            assert parse_record(text, grammars[syntax], mm) == expected, (syntax, name)


def test_lexing_one_token_at_a_time_parses_as_recorded(g, gen_g, mm, monkeypatch):
    """Batch boundaries of the lexer never show in the parse, even when
    every token is a batch of its own."""
    monkeypatch.setattr(eatxt.textsyntax, "_BATCH", 1)
    test_damaged_documents_parse_as_recorded(g, gen_g, mm)


# -- parses stopped early ------------------------------------------------------


def preorder_with_depth(root):
    stack = [(root, 0)]
    while stack:
        el, depth = stack.pop()
        yield el, depth
        stack.extend((child, depth + 1) for _, child in reversed(el.children))


def element_row(el):
    return [
        (el.id, el.start, el.end), el.class_name, el.short_name, list(el.attributes),
        [(r.member, r.target.dotted, r.start, r.end) for r in el.cross_refs],
        [(member, child.id) for member, child in el.children],
    ]


def is_prefix(part, whole):
    return list(part) == list(whole)[:len(part)]


def assert_prefix_of(partial, full):
    """``partial``, stopped after an element opened, holds what ``full``
    holds, as far as it has got: its tree is a prefix of the final
    pre-order, final wherever the parse says it is; its bodies are the
    final ones but for the closing and the members still to come; every
    body and string that starts before where it stopped is recorded; its
    diagnostics begin the final ones."""
    assert (partial.root is None) == (full.root is None)
    if full.root is not None:
        walked = list(preorder_with_depth(partial.root))
        final = list(full.root.iter_preorder())[:len(walked)]
        assert len(final) == len(walked)
        for (el, depth), done in zip(walked, final):
            row, done_row = element_row(el), element_row(done)
            assert row[:2] == done_row[:2]
            if partial.name_final(el, depth):
                assert row[2] == done_row[2]
            if partial.is_open(el, depth):
                assert all(is_prefix(a, b) for a, b in zip(row[3:], done_row[3:]))
            else:
                assert row == done_row
    i = partial.i  # the next token, where the parse stopped
    reached = partial.offsets[i] if i < len(partial.offsets) else float("inf")
    started = [b for b in full.bodies if b.open_offset < reached]
    assert len(partial.bodies) >= len(started)
    for body, done in zip(partial.bodies, full.bodies):
        key = (body.open_offset, body.class_name, body.member)
        assert key == (done.open_offset, done.class_name, done.member)
        if body.close_offset is None:
            assert body.present <= done.present
            assert done.close_offset is None or done.close_offset >= reached
        else:
            assert (body.close_offset, body.present) == (done.close_offset, done.present)
    strings = partial.tokens.strings
    assert is_prefix(strings, full.tokens.strings)
    assert len(strings) >= len([s for s in full.tokens.strings if s[0] < reached])
    assert is_prefix(partial.reported, full.reported)
    assert is_prefix(partial.tokens.diagnostics, full.tokens.diagnostics)


def test_a_parse_stopped_after_any_element_opens_is_a_prefix_of_the_full_parse(g, gen_g, mm):
    grammars = {"adapted": g, "generated": gen_g}
    for syntax, docs in damaged_corpus(g, gen_g, mm).items():
        for name, text in docs:
            full = Parser(text, grammars[syntax], mm)
            full.finish()
            partial = Parser(text, grammars[syntax], mm)
            while partial.step():
                assert_prefix_of(partial, full)
            assert_prefix_of(partial, full)
            assert partial.open == [] and partial.i == len(partial.offsets)
            assert partial.diagnostics == full.diagnostics
            assert len(partial.bodies) == len(full.bodies), (syntax, name)
            if full.root is not None:
                assert len(list(partial.root.iter_preorder())) == len(
                    list(full.root.iter_preorder())
                ), (syntax, name)


def test_a_late_name_is_final_only_once_read():
    """In a grammar whose bodies carry the name, the name of an open
    element is final once read, unless the body may still replace it:
    after an inline name."""
    mm = BOUNDED
    g = generate_grammar(mm)
    text = "A\n{\n    b\n    {\n        B\n        {\n            shortName x\n        }\n    }\n    shortName a\n}\n"
    parse = Parser(text, g, mm)
    assert parse.step() and parse.root.class_name == "A"
    assert not parse.name_final(parse.root, 0)
    assert parse.step() and parse.is_open(parse.root, 0)
    (_, b), = parse.root.children
    assert b.short_name is None and not parse.name_final(b, 1)
    assert not parse.step()
    assert (parse.root.short_name, b.short_name) == ("a", "x")
    assert parse.name_final(parse.root, 0) and parse.name_final(b, 1)

    hoisted = Parser("A a\n{\n}\n", parse_bounded_grammar(), mm)
    assert hoisted.step() and hoisted.name_final(hoisted.root, 0)
    both = parse_bounded_grammar()
    both.rules["A"].entries.insert(0, g.rules["A"].entry_for("shortName"))
    renamed = Parser("A a\n{\n    shortName b\n}\n", both, mm)
    assert renamed.step() and not renamed.name_final(renamed.root, 0)
    assert not renamed.step() and renamed.root.short_name == "b"


# -- element ids ---------------------------------------------------------------


def ids_and_preorder(root):
    """The ids the parser gave, and those of the pre-order numbering."""
    given = [el.id for el in root.iter_preorder()]
    assign_preorder_ids(root)
    return given, [el.id for el in root.iter_preorder()]


def test_ids_are_the_preorder_numbering_on_random_trees(g, gen_g, mm):
    for grammar in (g, gen_g):
        for seed in range(25):
            text = format_model(random_model(seed, mm, max_elements=80), grammar)
            given, preorder = ids_and_preorder(parse_model(text, grammar, mm)[0])
            assert given == preorder, seed


def test_ids_are_the_preorder_numbering_on_damaged_documents(g, gen_g, mm):
    grammars = {"adapted": g, "generated": gen_g}
    for syntax, docs in damaged_corpus(g, gen_g, mm).items():
        for name, text in docs:
            root, _ = parse_model(text, grammars[syntax], mm)
            if root is not None:
                given, preorder = ids_and_preorder(root)
                assert given == preorder, (syntax, name)


# A class ``A`` with at most one ``B`` and any number of ``C``; a ``B``
# holds ``C``s, and nothing holds an ``A``.
BOUNDED = load_metamodel(
    '<ecore:EPackage xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"'
    ' xmlns:ecore="http://www.eclipse.org/emf/2002/Ecore" name="p">'
    + "".join(
        f'<eClassifiers xsi:type="ecore:EClass" name="{name}">'
        '<eStructuralFeatures xsi:type="ecore:EAttribute" name="shortName"'
        ' eType="#//Identifier" lowerBound="1"/>'
        + "".join(
            f'<eStructuralFeatures xsi:type="ecore:EReference" name="{member}"'
            f' eType="#//{target}" containment="true" upperBound="{upper}"/>'
            for member, target, upper in members
        )
        + "</eClassifiers>"
        for name, members in (
            ("A", [("b", "B", 1), ("c", "C", -1)]),
            ("B", [("c", "C", -1)]),
            ("C", []),
        )
    )
    + "</ecore:EPackage>"
)


def parse_bounded_grammar():
    cfg = parse_config(CONFIG.read_text(encoding="utf-8"))
    return adapt_grammar(generate_grammar(BOUNDED), cfg)[0]


def parse_bounded(text):
    return parse_model(text, parse_bounded_grammar(), BOUNDED)


def test_ids_skip_every_dropped_subtree():
    text = (
        "A a\n{\n"
        "    B b1\n    {\n        C c1\n"
        "        A stray\n        {\n            C lost1\n        }\n"  # no containment
        "        C c2\n    }\n"
        "    B extra\n"  # over the bound, without a body
        "    B more\n    {\n        C lost2\n        C lost3\n    }\n"  # over it, with one
        "    C c3\n"
        "}\n"
    )
    root, diags = parse_bounded(text)
    assert [d.message for d in diags] == [
        "'B' has no containment that accepts A",
        "duplicate member 'b'",
        "duplicate member 'b'",
    ]
    assert [(el.id, el.short_name) for el in root.iter_preorder()] == [
        (1, "a"), (2, "b1"), (3, "c1"), (4, "c2"), (5, "c3"),
    ]
    given, preorder = ids_and_preorder(root)
    assert given == preorder


# -- diagnostics that point far back -------------------------------------------


def text_span(text, start, end):
    """The 1-based line:col span of ``text[start:end]``, counted from the
    text itself."""
    def at(offset):
        return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)

    return (*at(start), *at(end))


def spans_of(diags):
    return [(d.message, (d.span.line, d.span.col, d.span.end_line, d.span.end_col)) for d in diags]


def parse_named_in_body(text):
    """Parse under BOUNDED's grammar with children unfolded and the name
    written in the body, where a missing name is a missing member."""
    cfg = parse_config("unfold-containment * *\noptional-body *\n")
    return parse_model(text, adapt_grammar(generate_grammar(BOUNDED), cfg)[0], BOUNDED)


def bounded_children(count):
    """``count`` named C children, five tokens each."""
    return "".join(
        f"        C\n        {{\n            shortName c{k}\n        }}\n" for k in range(count)
    )


def test_end_of_element_diagnostics_point_at_a_class_keyword_far_back():
    """An element that ends more than two lexer batches after its class
    keyword still reports its missing members and its place over a bound
    at that keyword."""
    batch = eatxt.textsyntax._BATCH
    children = bounded_children(batch // 2 + 10)
    text = (
        "A\n{\n    shortName a\n"
        "    B\n    {\n" + children + "    }\n"  # no name
        "    B\n    {\n        shortName more\n" + children + "    }\n"  # over the bound
        "}\n"
    )
    unnamed = text.index("    B\n") + 4
    over = text.index("    B\n", unnamed) + 4
    for keyword in (unnamed, over):
        close = text.index("\n    }\n", keyword)
        assert len(text[keyword:close].split()) > 2 * batch
    _, diags = parse_named_in_body(text)
    assert spans_of(diags) == [
        ("missing mandatory member 'shortName' in 'B'", text_span(text, unnamed, unnamed + 1)),
        ("duplicate member 'b'", text_span(text, over, over + 1)),
    ]


def test_a_text_that_ends_inside_a_body_after_several_batches():
    """The end of the text is placed at the last token, and an element
    left open there at its class keyword, however far back it is."""
    batch = eatxt.textsyntax._BATCH
    text = "A\n{\n    shortName a\n    B\n    {\n" + bounded_children(batch)
    unnamed = text.index("    B\n") + 4
    last = text.rindex("}")
    assert len(text[unnamed:].split()) > 4 * batch
    at_end = text_span(text, last, last + 1)
    _, diags = parse_named_in_body(text)
    assert spans_of(diags) == [
        ("unexpected end of file inside 'B'", at_end),
        ("missing mandatory member 'shortName' in 'B'", text_span(text, unnamed, unnamed + 1)),
        ("unexpected end of file inside 'A'", at_end),
    ]


def test_a_parse_lets_go_of_the_tokens_it_has_passed(g, mm, monkeypatch):
    """The token lists of a parse lose the tokens it has passed from the
    front and hold at most two batches, the lookahead and the token
    before, while the count of tokens lexed goes on; at the end they hold
    the lexed tail and the end sentinel. Also when every token is a batch
    of its own: a qualified name is read in one turn, so then the longest
    name stands in for the batch."""
    root = random_model(1, mm, max_elements=2000, fan_out=8)
    text = format_model(root, g)
    tokens, _ = eatxt.textsyntax.lex(text, g.terminal_patterns())
    longest = max(
        2 * len(r.target.segments) - 1 for el in root.iter_preorder() for r in el.cross_refs
    )
    sizes = []
    more = eatxt.textsyntax.Tokens.more

    def measured_more(self):
        lexed = more(self)
        sizes.append(len(self.kinds))
        return lexed

    monkeypatch.setattr(eatxt.textsyntax.Tokens, "more", measured_more)
    for batch in (eatxt.textsyntax._BATCH, 1):
        monkeypatch.setattr(eatxt.textsyntax, "_BATCH", batch)
        assert len(tokens) > 10 * batch
        sizes.clear()
        parse = parse_document(text, g, mm)
        assert parse.diagnostics == []
        assert len(parse.tokens) == len(tokens) + 1
        kept = len(parse.offsets)
        assert kept < len(tokens)
        assert parse.kinds == tokens.kinds[-kept:] + ["<end>"]
        assert parse.lexemes == tokens.lexemes[-kept:] + [""]
        assert parse.offsets == tokens.offsets[-kept:]
        bound = 2 * max(batch, longest) + eatxt.textsyntax._LOOKAHEAD + 1
        assert sizes and max(sizes + [len(parse.kinds)]) <= bound


UNKNOWN_BOGUS = (
    "unknown keyword 'bogus' in 'EAPackage'; expected one of: category, uuid, name, "
    "Comment, EAPackage, DesignFunctionType, EADatatype"
)
# Grammar fixture, damaged text, and the one diagnostic, at 'bogus'.
SKIPS = {
    # The unknown keyword of a body, in the adapted syntax; its block, or
    # the words up to the next keyword, go with it.
    "block": ("g", "EAPackage P {\n bogus {\n" + "  EAPackage Ci\n" * 3000
              + " }\n category c\n EAPackage After\n}\n", UNKNOWN_BOGUS),
    "words": ("g", "EAPackage P {\n bogus\n" + "  x\n" * 6000
              + " category c\n EAPackage After\n}\n", UNKNOWN_BOGUS),
    # A word that a wrapped block does not accept, in the generated syntax.
    "wrapped": (
        "gen_g",
        "EAPackage {\n shortName P\n subPackage {\n  bogus {\n"
        + "   EAPackage { shortName Ci }\n" * 1200
        + "  },\n  EAPackage { shortName After }\n }\n category c\n}\n",
        "'subPackage' accepts EAPackage elements, got 'bogus'",
    ),
}


@pytest.mark.parametrize("damage", list(SKIPS))
def test_a_skip_over_a_long_block_lets_go_of_its_tokens(request, mm, monkeypatch, damage):
    """Damaged text keeps the window of clean text: a skip over a braced
    block or a run of words slides the window as it lexes, also when every
    token is a batch of its own. The parse goes on after the skip from the
    window as the skip left it."""
    grammar, text, message = SKIPS[damage]
    g = request.getfixturevalue(grammar)
    bogus = text.index("bogus")
    lexed, _ = eatxt.textsyntax.lex(text, g.terminal_patterns())
    assert len(lexed) > 5000
    sizes = []
    more = eatxt.textsyntax.Tokens.more

    def measured_more(self):
        lexed = more(self)
        sizes.append(len(self.kinds))
        return lexed

    monkeypatch.setattr(eatxt.textsyntax.Tokens, "more", measured_more)
    for batch in (eatxt.textsyntax._BATCH, 1):
        monkeypatch.setattr(eatxt.textsyntax, "_BATCH", batch)
        sizes.clear()
        parse = parse_document(text, g, mm)
        assert spans_of(parse.diagnostics) == [(message, text_span(text, bogus, bogus + 5))]
        assert len(parse.tokens) == len(lexed) + 1
        assert parse.root.attributes == [("category", "c")]
        assert [(link, c.short_name) for link, c in parse.root.children] == [
            ("subPackage", "After"),
        ]
        assert parse.bodies[0].close_offset == text.rindex("}")
        bound = 2 * batch + eatxt.textsyntax._LOOKAHEAD + 1
        assert sizes and max(sizes + [len(parse.kinds)]) <= bound

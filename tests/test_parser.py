import copy
import json

from eatxt.diagnostics import ERROR, WARNING
from eatxt.grammar import generate_grammar
from eatxt.metamodel import load_metamodel
from eatxt.textsyntax import parse_model

from support import DAMAGED_PARSE, MODELS, damaged_corpus, parse_record, random_model
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
    # A grammar (from a hand-edited cache, say) may hoist the name and
    # still list the shortName entry; the inline name then counts for it.
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


def test_random_trees_reparse_to_same_structure(g, mm):
    from eatxt.model import same_structure

    for seed in range(25):
        tree = random_model(seed, mm, max_elements=40)
        text = format_model(tree, g)
        root, diags = parse_model(text, g, mm)
        assert diags == [], (seed, [d.format("m") for d in diags])
        assert same_structure(tree, root)


def test_parse_document_builds_no_token_objects(g, mm, monkeypatch):
    import eatxt.textsyntax

    built = []
    token_init = eatxt.textsyntax.Token.__init__

    def counting_token_init(self, *args):
        built.append(args)
        token_init(self, *args)

    monkeypatch.setattr(eatxt.textsyntax.Token, "__init__", counting_token_init)
    text = (MODELS[0].parent / "wiper_system.eatxt").read_text(encoding="utf-8")
    doc = eatxt.textsyntax.parse_document(text, g, mm)
    assert doc.root is not None and doc.diagnostics == []
    assert built == []


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

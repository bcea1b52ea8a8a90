import pytest

from eatxt.model import ModelElement
from eatxt.textsyntax import format_model, parse_model
from eatxt.diagnostics import SerializationError

from support import EXTRA, MODELS, random_model


def reformat(text, g, mm):
    root, diags = parse_model(text, g, mm)
    assert not [d for d in diags if d.severity == "error"]
    return format_model(root, g)


@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.name)
def test_corpus_files_are_fixpoints(path, g, mm):
    text = path.read_text(encoding="utf-8")
    assert reformat(text, g, mm) == text


def test_formatting_is_idempotent_on_messy_input(g, mm):
    text = (EXTRA / "messy_but_valid.eatxt").read_text(encoding="utf-8")
    once = reformat(text, g, mm)
    assert once != text
    assert reformat(once, g, mm) == once


def test_one_liner_for_empty_optional_body(g, mm):
    assert reformat("EAPackage  DesignPkg\n\n", g, mm) == "EAPackage DesignPkg\n"


def test_braces_added_once_members_exist(g, mm):
    out = reformat("EAPackage P { category x }", g, mm)
    assert out == "EAPackage P\n{\n    category x\n}\n"


def test_attribute_lines_follow_entry_order(g, mm):
    out = reformat('EAPackage P { name "n" category c }', g, mm)
    assert out.index("category c") < out.index('name "n"')


def test_children_keep_document_order(g, mm):
    out = reformat(
        "EAPackage P { EAPackage Sub EADatatype D EAPackage Sub2 }", g, mm
    )
    lines = [l.strip() for l in out.splitlines()]
    assert lines[2:5] == ["EAPackage Sub", "EADatatype D", "EAPackage Sub2"]


def test_empty_string_attribute_dropped(g, mm):
    out = reformat('EAPackage P { name "" }', g, mm)
    assert out == "EAPackage P\n"


def test_comments_are_not_preserved(g, mm):
    out = reformat("EAPackage P // note\n{\n    // inner\n    category x\n}\n", g, mm)
    assert "//" not in out


def test_indentation_is_four_spaces_per_level(g, mm):
    out = reformat(
        "EAPackage P { EAPackage Q { EADatatype D { gid 0f8fad5b-d9cb-469f-a165-70867728950e } } }",
        g,
        mm,
    )
    assert "\n        EADatatype D\n" in out
    assert "\n            gid " in out


def test_unadapted_grammar_prints_full_form(gen_g, mm):
    text = (
        "EAPackage\n{\n"
        "    shortName P\n"
        "    subPackage\n    {\n"
        "        EAPackage\n        {\n            shortName Q\n        }\n"
        "    }\n"
        "}\n"
    )
    assert reformat(text, gen_g, mm) == text


def test_wrapped_multi_children_get_comma_lines(gen_g, mm):
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
    assert reformat(text, gen_g, mm) == text


def test_unknown_class_raises(g):
    with pytest.raises(SerializationError, match="Mystery"):
        format_model(ModelElement(class_name="Mystery"), g)


def test_random_trees_format_to_fixpoints(g, gen_g, mm):
    for syntax, grammar in (("adapted", g), ("generated", gen_g)):
        for seed in range(40):
            text = format_model(random_model(seed, mm, max_elements=50), grammar)
            assert reformat(text, grammar, mm) == text, f"{syntax} seed {seed}"

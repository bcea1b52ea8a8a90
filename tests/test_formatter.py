import contextlib
import random

import pytest

from eatxt.grammar import (
    AdaptationConfig, Grammar, InlineContainment, KeywordAttribute, ProductionRule,
    RemoveAttributeKeyword, UnfoldContainment, WrappedContainment, adapt_grammar,
)
from eatxt.model import CrossRef, ModelElement, QualifiedName
from eatxt.textsyntax import format_model, parse_model
from eatxt.diagnostics import ConfigError, SerializationError

from support import (
    EXTRA, MODELS, random_directives, random_model, reference_format_model,
)


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


def test_child_under_a_member_without_a_grammar_entry_raises(g):
    root = ModelElement("EAPackage", "P", children=[("ghost", ModelElement("EAPackage", "Q"))])
    with pytest.raises(SerializationError) as caught:
        format_model(root, g)
    assert str(caught.value) == "class 'EAPackage' has no grammar entry for containment 'ghost'"


def test_random_trees_format_to_fixpoints(g, gen_g, mm):
    for syntax, grammar in (("adapted", g), ("generated", gen_g)):
        for seed in range(40):
            text = format_model(random_model(seed, mm, max_elements=50), grammar)
            assert reformat(text, grammar, mm) == text, f"{syntax} seed {seed}"


# --- the frozen formatter as oracle ------------------------------------------


def formatted(root, g):
    """The text of ``format_model``, or the message of its
    SerializationError, once the frozen formatter has given the same."""
    outcomes = []
    for fmt in (format_model, reference_format_model):
        try:
            outcomes.append(fmt(root, g))
        except SerializationError as exc:
            outcomes.append(f"SerializationError: {exc}")
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def adapted(g, *directives):
    return adapt_grammar(g, AdaptationConfig(list(directives)))[0]


def with_entries(g, class_name, entries):
    """``g`` with a copy of one rule that has other entries."""
    rule = g.rules[class_name]
    copy = ProductionRule(class_name, rule.keyword, rule.name_inline, rule.body_optional, entries)
    return Grammar({**g.rules, class_name: copy}, g.terminals, g.root_rule)


def test_random_trees_format_as_the_frozen_formatter_under_seeded_configs(gen_g, mm):
    grammars = [gen_g]
    for seed in range(40):
        with contextlib.suppress(ConfigError):
            grammars.append(adapted(gen_g, *random_directives(random.Random(seed))))
    # The configs reach positional values, and rules with inline and
    # wrapped containments side by side.
    forms = [[e.form for e in r.entries] for gr in grammars for r in gr.rules.values()]
    assert any(type(f) is KeywordAttribute and f.keyword is None for fs in forms for f in fs)
    assert any({InlineContainment, WrappedContainment} <= set(map(type, fs)) for fs in forms)
    for index, grammar in enumerate(grammars):
        for seed in range(3):
            root = random_model(3 * index + seed, mm, max_elements=40)
            assert not formatted(root, grammar).startswith("SerializationError"), (index, seed)


def test_a_positional_value_is_written_bare(g):
    positional = adapted(g, RemoveAttributeKeyword("EAPackage", "category"))
    root = ModelElement("EAPackage", "P", attributes=[("category", "c"), ("name", '"n"')])
    assert formatted(root, positional) == 'EAPackage P\n{\n    c\n    name "n"\n}\n'


def test_empty_string_values_and_names_are_dropped(g, gen_g):
    root = ModelElement("EAPackage", '""', attributes=[("name", '""'), ("uuid", '"u"')])
    assert formatted(root, gen_g) == 'EAPackage\n{\n    uuid "u"\n}\n'
    root.attributes.pop()
    assert formatted(root, g) == 'EAPackage ""\n'


def test_two_entries_for_one_member(g, gen_g):
    """An attribute's values are written once per entry; children are laid
    out by the member's first entry, here the inline one."""
    category = g.rules["EAPackage"].entry_for("category")
    wrapped = gen_g.rules["EAPackage"].entry_for("subPackage")
    twice = with_entries(g, "EAPackage", [category, *g.rules["EAPackage"].entries, wrapped])
    root = ModelElement(
        "EAPackage", "P", attributes=[("category", "a"), ("category", "b")],
        children=[("subPackage", ModelElement("EAPackage", "Q"))],
    )
    lines = formatted(root, twice).splitlines()
    assert lines == [
        "EAPackage P", "{", *["    category a", "    category b"] * 2, "    EAPackage Q", "}",
    ]


def test_a_hoisted_rule_that_keeps_its_name_entry_writes_the_name_twice(g, gen_g):
    name = gen_g.rules["EAPackage"].entry_for("shortName")
    both = with_entries(g, "EAPackage", [name, *g.rules["EAPackage"].entries])
    root = ModelElement("EAPackage", "P", children=[("subPackage", ModelElement("EAPackage"))])
    assert formatted(root, both) == (
        "EAPackage P\n{\n    shortName P\n    EAPackage\n}\n"
    )


def test_inline_and_wrapped_runs_interleave_in_document_order(gen_g, mm):
    mixed = adapted(gen_g, UnfoldContainment("EAPackage", "subPackage"))
    to_d1 = CrossRef("type", QualifiedName(("P", "D1")))
    root = ModelElement("EAPackage", "P", children=[
        ("element", ModelElement("EADatatype", "D1")),
        ("subPackage", ModelElement("EAPackage", "Q")),
        ("element", ModelElement("EADatatype", "D2")),
        ("element", ModelElement("DesignFunctionType", "T", children=[
            ("port", ModelElement("FunctionFlowPort", "p", [("direction", "in")], [to_d1])),
        ])),
        ("ownedComment", ModelElement("Comment")),
        ("subPackage", ModelElement("EAPackage", "R")),
    ])
    assert formatted(root, mixed) == "\n".join([
        "EAPackage", "{", "    shortName P",
        "    element", "    {",
        "        EADatatype", "        {", "            shortName D1", "        }",
        "    }",
        "    EAPackage", "    {", "        shortName Q", "    }",
        "    element", "    {",
        "        EADatatype", "        {", "            shortName D2", "        }",
        "        ,",
        "        DesignFunctionType", "        {", "            shortName T",
        "            port", "            {",
        "                FunctionFlowPort", "                {",
        "                    shortName p", "                    direction in",
        "                    type P.D1",
        "                }",
        "            }",
        "        }",
        "    }",
        "    ownedComment", "    {", "        Comment", "        {", "        }", "    }",
        "    EAPackage", "    {", "        shortName R", "    }",
        "}", "",
    ])


def test_serialization_errors_match_the_frozen_formatter(g):
    nested = ModelElement("EAPackage", "P", children=[
        ("subPackage", ModelElement("EAPackage", "Q", children=[("element", ModelElement("Mystery"))])),
    ])
    assert formatted(nested, g) == "SerializationError: no production rule for class 'Mystery'"
    ghost = ModelElement("EAPackage", "P", children=[
        ("subPackage", ModelElement("EAPackage", "Q")),
        ("ghost", ModelElement("EAPackage", "R")),
    ])
    assert formatted(ghost, g) == (
        "SerializationError: class 'EAPackage' has no grammar entry for containment 'ghost'"
    )

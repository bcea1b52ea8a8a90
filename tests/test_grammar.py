import contextlib
import copy

import pytest
from hypothesis import given, settings, strategies as st

from eatxt.diagnostics import ConfigError, GrammarError
from eatxt.grammar import (
    AdaptationConfig,
    DefineTerminal,
    HoistShortName,
    InlineContainment,
    KeywordAttribute,
    KeywordCrossRef,
    OptionalBody,
    RemoveAttributeKeyword,
    UnfoldContainment,
    WrappedContainment,
    adapt_grammar,
    emit_grammar,
    generate_grammar,
    parse_config,
)
from eatxt.metamodel import PrimitiveKind, load_metamodel
from eatxt.textsyntax import format_model, parse_model

from support import (
    CLASS_NAME_GLOBS, CONFIG, GOLDEN, MEMBER_NAME_GLOBS, TERMINAL_PATTERNS,
    read_grammar_text, reference_adapt_grammar,
)


def test_rule_per_concrete_class(mm, gen_g):
    assert set(gen_g.rules) == set(mm.concrete_classes())
    assert gen_g.root_rule == "EAPackage"
    for name, rule in gen_g.rules.items():
        assert rule.keyword == name
        assert not rule.name_inline
        assert not rule.body_optional


def test_generated_eapackage_entry_shapes(gen_g):
    rule = gen_g.rules["EAPackage"]
    forms = {e.member: e.form for e in rule.entries}
    assert isinstance(forms["shortName"], KeywordAttribute)
    assert forms["shortName"].kind is PrimitiveKind.IDENTIFIER
    assert isinstance(forms["uuid"], KeywordAttribute)
    assert forms["uuid"].kind is PrimitiveKind.STRING
    assert isinstance(forms["subPackage"], WrappedContainment)
    short = rule.entry_for("shortName")
    assert short is not None and not short.optional and not short.repeatable
    sub = rule.entry_for("subPackage")
    assert sub is not None and sub.optional and sub.repeatable


def test_crossref_entry(gen_g):
    form = gen_g.rules["FunctionFlowPort"].entry_for("type").form
    assert isinstance(form, KeywordCrossRef)
    assert form.target == "EADatatype"


def test_generation_fails_without_concrete_root():
    text = (
        '<ecore:EPackage xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"'
        ' xmlns:ecore="http://www.eclipse.org/emf/2002/Ecore" name="p">'
        '<eClassifiers xsi:type="ecore:EClass" name="A">'
        '<eStructuralFeatures xsi:type="ecore:EReference" name="kids"'
        ' eType="#//Ghost2" containment="true"/></eClassifiers>'
        '<eClassifiers xsi:type="ecore:EClass" name="Ghost2" abstract="true"/>'
        "</ecore:EPackage>"
    )
    mm = load_metamodel(text)
    with pytest.raises(GrammarError, match="no concrete subclass"):
        generate_grammar(mm)


# -- config parsing ---------------------------------------------------------

def test_parse_default_config():
    cfg = parse_config(CONFIG.read_text(encoding="utf-8"))
    kinds = [type(d).__name__ for d in cfg.directives]
    assert kinds == [
        "DefineTerminal",
        "DefineTerminal",
        "HoistShortName",
        "UnfoldContainment",
        "OptionalBody",
    ]


def test_config_comments_and_blank_lines_skipped():
    cfg = parse_config("# nothing\n\n   \n# more\noptional-body *\n")
    assert cfg.directives == [OptionalBody("*")]


def test_config_unknown_directive():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("optional-body *\nfrobnicate *\n")


def test_config_bad_terminal_kind():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("define-terminal Number /[0-9]+/\n")


def test_config_unparsable_pattern():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("define-terminal Numerical /[unclosed/\n")


def test_config_glob_with_bad_characters():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("optional-body [A-Z]*\n")


def test_config_wrong_arity():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("unfold-containment OnlyOneGlob\n")


# -- adaptation -------------------------------------------------------------

def test_hoist_moves_name_next_to_keyword(gen_g):
    adapted, report = adapt_grammar(
        gen_g, AdaptationConfig((HoistShortName("EAPackage"),))
    )
    rule = adapted.rules["EAPackage"]
    assert rule.name_inline
    assert rule.entry_for("shortName") is None
    assert report.entries[0].matches == 1
    # untouched rules keep the inner shortName line
    assert adapted.rules["EADatatype"].entry_for("shortName") is not None


def test_hoist_skips_rules_without_a_name_entry(gen_g):
    adapted, report = adapt_grammar(gen_g, AdaptationConfig((HoistShortName("*"),)))
    assert not adapted.rules["Comment"].name_inline
    assert report.entries[0].matches == len(gen_g.rules) - 1


def test_unfold_rewrites_wrapped_to_inline(gen_g):
    adapted, _ = adapt_grammar(
        gen_g, AdaptationConfig((UnfoldContainment("EAPackage", "subPackage"),))
    )
    form = adapted.rules["EAPackage"].entry_for("subPackage").form
    assert isinstance(form, InlineContainment)
    # other containments of the same rule stay wrapped
    still = adapted.rules["EAPackage"].entry_for("element").form
    assert isinstance(still, WrappedContainment)


def test_optional_body_flag(gen_g):
    adapted, _ = adapt_grammar(gen_g, AdaptationConfig((OptionalBody("EA*"),)))
    assert adapted.rules["EAPackage"].body_optional
    assert adapted.rules["EADatatype"].body_optional
    assert not adapted.rules["Comment"].body_optional


def test_define_terminal_replaces_existing(gen_g):
    # A redefinition keeps the kind's first position in the terminals and
    # in the emitted grammar.
    cfg = AdaptationConfig((
        DefineTerminal(PrimitiveKind.NUMERICAL, "[0-9]+"),
        DefineTerminal(PrimitiveKind.UUID, "[0-9a-f-]+"),
        DefineTerminal(PrimitiveKind.NUMERICAL, "[0-9a-f]+"),
    ))
    adapted, _ = adapt_grammar(gen_g, cfg)
    assert adapted.terminals[PrimitiveKind.NUMERICAL] == "[0-9a-f]+"
    terminal_lines = [
        line for line in emit_grammar(adapted).splitlines() if line.startswith("terminal ")
    ]
    assert terminal_lines == [
        "terminal Numerical: /[0-9a-f]+/;", "terminal UUID: /[0-9a-f-]+/;",
    ]
    assert list(adapted.terminals) == [PrimitiveKind.NUMERICAL, PrimitiveKind.UUID]


def test_remove_attribute_keyword(gen_g):
    adapted, _ = adapt_grammar(
        gen_g, AdaptationConfig((RemoveAttributeKeyword("FunctionFlowPort", "direction"),))
    )
    form = adapted.rules["FunctionFlowPort"].entry_for("direction").form
    assert form.keyword is None


def test_remove_attribute_keyword_rejects_double_positional(gen_g):
    cfg = AdaptationConfig((
        RemoveAttributeKeyword("FunctionClientServerPort", "kind"),
        RemoveAttributeKeyword("FunctionClientServerPort", "timeout"),
    ))
    with pytest.raises(ConfigError, match="positional"):
        adapt_grammar(gen_g, cfg)


def test_zero_match_glob_warns_in_report(gen_g):
    _, report = adapt_grammar(gen_g, AdaptationConfig((OptionalBody("Nope*"),)))
    assert report.entries[0].warning
    assert "no matches" in report.render()


EVERY_DIRECTIVE_KIND = (
    DefineTerminal(PrimitiveKind.IDENTIFIER, "[a-z]+"),
    HoistShortName("*"),
    UnfoldContainment("*", "*"),
    OptionalBody("*"),
    RemoveAttributeKeyword("FunctionFlowPort", "direction"),
)


def test_adaptation_leaves_input_grammar_alone(gen_g):
    before = copy.deepcopy(gen_g)
    adapted, report = adapt_grammar(gen_g, AdaptationConfig(EVERY_DIRECTIVE_KIND))
    assert all(entry.matches for entry in report.entries)
    assert gen_g == before
    assert emit_grammar(gen_g) == (GOLDEN / "generated.gtext").read_text(encoding="utf-8")
    # Nor does adapting the result again change the first result.
    again = copy.deepcopy(adapted)
    adapt_grammar(adapted, AdaptationConfig(EVERY_DIRECTIVE_KIND))
    assert adapted == again


GLOBS = st.sampled_from(CLASS_NAME_GLOBS)
MEMBER_GLOBS = st.sampled_from(MEMBER_NAME_GLOBS)
DIRECTIVES = st.one_of(
    st.builds(DefineTerminal, st.sampled_from(list(PrimitiveKind)),
              st.sampled_from(TERMINAL_PATTERNS)),
    st.builds(HoistShortName, GLOBS),
    st.builds(UnfoldContainment, GLOBS, MEMBER_GLOBS),
    st.builds(OptionalBody, GLOBS),
    st.builds(RemoveAttributeKeyword, GLOBS, MEMBER_GLOBS),
)


def adaptation_outcome(adapt, g, directives):
    """The adapted grammar, or None, and what the adaptation shows: the
    emitted grammar, the report and each entry's matches, or the text of
    the ConfigError it raises."""
    try:
        adapted, report = adapt(g, AdaptationConfig(directives))
    except ConfigError as exc:  # two positional attributes in one rule
        return None, str(exc)
    return adapted, (emit_grammar(adapted), report.render(), [e.matches for e in report.entries])


@settings(max_examples=150, deadline=None)
@given(directives=st.lists(DIRECTIVES, max_size=6))
def test_random_adaptations_leave_their_input_alone(gen_g, g, directives):
    for base in (gen_g, g):
        before = copy.deepcopy(base)
        adapted, outcome = adaptation_outcome(adapt_grammar, base, directives)
        assert outcome == adaptation_outcome(reference_adapt_grammar, base, directives)[1]
        assert base == before
        if adapted is not None:
            snapshot = copy.deepcopy(adapted)
            with contextlib.suppress(ConfigError):
                adapt_grammar(adapted, AdaptationConfig(directives))
            assert adapted == snapshot
    # The untouched input still adapts to the goldens.
    cfg = parse_config(CONFIG.read_text(encoding="utf-8"))
    assert emit_grammar(gen_g) == (GOLDEN / "generated.gtext").read_text(encoding="utf-8")
    assert emit_grammar(adapt_grammar(gen_g, cfg)[0]) == (
        GOLDEN / "adapted.gtext"
    ).read_text(encoding="utf-8")


def test_empty_config_is_identity(gen_g):
    adapted, report = adapt_grammar(gen_g, AdaptationConfig(()))
    assert adapted == gen_g
    assert report.entries == []


def test_directives_idempotent(gen_g):
    once, _ = adapt_grammar(gen_g, AdaptationConfig((HoistShortName("*"),)))
    twice, _ = adapt_grammar(once, AdaptationConfig((HoistShortName("*"),)))
    assert once == twice


def test_config_order_equals_folding_one_at_a_time(gen_g):
    directives = (
        HoistShortName("*"),
        UnfoldContainment("*", "*"),
        OptionalBody("*"),
    )
    combined, _ = adapt_grammar(gen_g, AdaptationConfig(directives))
    step = gen_g
    for d in directives:
        step, _ = adapt_grammar(step, AdaptationConfig((d,)))
    assert combined == step


def test_container_braces_survive_every_directive(mm, gen_g):
    cfg = parse_config(CONFIG.read_text(encoding="utf-8"))
    adapted, _ = adapt_grammar(gen_g, cfg)
    text = emit_grammar(adapted)
    for block in text.split("\n\n"):
        if "returns" in block:
            assert "'{'" in block and "'}'" in block


# -- emission ---------------------------------------------------------------

def test_emit_empty_grammar():
    from eatxt.grammar import Grammar

    assert emit_grammar(Grammar(rules={}, terminals={}, root_rule="")) == ""


SINGLE_CHILD = """<?xml version="1.0" encoding="UTF-8"?>
<ecore:EPackage xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"
    xmlns:ecore="http://www.eclipse.org/emf/2002/Ecore" name="box" rootClass="Box">
  <eClassifiers xsi:type="ecore:EClass" name="Box">
    <eStructuralFeatures xsi:type="ecore:EAttribute" name="shortName" eType="#//Identifier" lowerBound="1"/>
    <eStructuralFeatures xsi:type="ecore:EReference" name="lid" eType="#//Lid" containment="true" lowerBound="1"/>
    <eStructuralFeatures xsi:type="ecore:EReference" name="tag" eType="#//Lid" containment="true"/>
  </eClassifiers>
  <eClassifiers xsi:type="ecore:EClass" name="Lid">
    <eStructuralFeatures xsi:type="ecore:EAttribute" name="shortName" eType="#//Identifier" lowerBound="1"/>
  </eClassifiers>
</ecore:EPackage>
"""


def test_single_valued_wrapped_containment_holds_one_child():
    mm = load_metamodel(SINGLE_CHILD)
    g = generate_grammar(mm)
    assert emit_grammar(g).startswith(
        "Box returns Box:\n"
        "    'Box'\n"
        "    '{'\n"
        "        'shortName' shortName=Identifier\n"
        "        'lid' '{' lid=Lid '}'\n"
        "        ('tag' '{' tag=Lid '}' )?\n"
        "    '}';\n"
    )
    lid = "    lid\n    {\n        Lid\n        {\n            shortName L\n        }\n"
    text = (
        "Box\n{\n    shortName B\n" + lid + "    }\n"
        "    tag\n    {\n        Lid\n        {\n            shortName T\n        }\n    }\n}\n"
    )
    root, diags = parse_model(text, g, mm)
    assert diags == [] and format_model(root, g) == text
    second = "        ,\n        Lid\n        {\n            shortName M\n        }\n"
    _, diags = parse_model("Box\n{\n    shortName B\n" + lid + second + "    }\n}\n", g, mm)
    assert [(d.message, d.span.line, d.span.col) for d in diags] == [
        ("duplicate member 'lid'", 11, 9),
    ]


def test_emit_changes_when_config_matches(gen_g):
    adapted, _ = adapt_grammar(gen_g, AdaptationConfig((HoistShortName("*"),)))
    assert emit_grammar(adapted) != emit_grammar(gen_g)


def test_emit_mentions_missing_terminals(gen_g):
    text = emit_grammar(gen_g)
    assert "// terminal Identifier not defined here" in text


def test_round_reading_generated(gen_g):
    assert read_grammar_text(emit_grammar(gen_g)) == gen_g


def test_round_reading_adapted(mm, g):
    assert read_grammar_text(emit_grammar(g)) == g


def test_round_reading_partial_adaptations(gen_g):
    for directives in (
        (HoistShortName("*"),),
        (UnfoldContainment("*", "sub*"),),
        (OptionalBody("Function*"),),
        (RemoveAttributeKeyword("FunctionFlowPort", "direction"),),
    ):
        adapted, _ = adapt_grammar(gen_g, AdaptationConfig(directives))
        assert read_grammar_text(emit_grammar(adapted)) == adapted


def test_grammar_equality_tells_form_classes_apart(gen_g):
    # A cross-reference and a wrapped containment with the same keyword
    # and target are equal as tuples; the grammars must not be.
    swapped = copy.deepcopy(gen_g)
    entries = swapped.rules["FunctionFlowPort"].entries
    index = next(i for i, e in enumerate(entries) if e.member == "type")
    form = entries[index].form
    entries[index] = entries[index]._replace(form=WrappedContainment(*form))
    assert form == entries[index].form
    assert swapped != gen_g


def test_terminal_patterns_merge_defaults(g):
    patterns = g.terminal_patterns()
    assert set(patterns) == set(PrimitiveKind)
    assert patterns[PrimitiveKind.NUMERICAL].startswith("0b")

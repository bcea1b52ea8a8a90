"""Cursor context detection and proposal generation."""

from hypothesis import given, strategies as st

from eatxt.assist import (
    KEYWORD,
    TEMPLATE,
    build_template,
    complete,
    context_at,
    locate_context,
)
from eatxt.diagnostics import ERROR
from eatxt.grammar import adapt_grammar, generate_grammar, parse_config
from eatxt.metamodel import load_metamodel
from eatxt.model import ReferenceCache, build_cache
from eatxt.textsyntax import format_model, parse_document, parse_model

from support import CONFIG, MODELS, fill_placeholders, reference_build_template

WIPER = (MODELS[0].parent / "wiper_system.eatxt").read_text(encoding="utf-8")


def cache_for(text, g, mm):
    root, _ = parse_model(text, g, mm)
    return build_cache(root, mm) if root is not None else None


def proposals_at(text, line, col, g, mm):
    ctx = locate_context(text, line, col, g, mm)
    return complete(ctx, g, mm, cache_for(text, g, mm))


# --- context detection -----------------------------------------------------


def test_context_inside_an_element_body(g, mm):
    # Line 17 is the blank-ish area right after "isElementary true".
    ctx = locate_context(WIPER, 17, 13, g, mm)
    assert ctx.kind == "element"
    assert ctx.class_name == "DesignFunctionType"
    assert "isElementary" in ctx.members_present


@given(line=st.integers(-1, 8), column=st.integers(-1, 20))
def test_line_and_column_clamp_like_a_split_of_the_text(g, mm, line, column):
    text = "EAPackage P\n{\n    EADatatype T\n}\n"
    offset = 0
    if line >= 1:
        before = text.split("\n")[: line - 1]
        offset = sum(len(s) + 1 for s in before) + max(column - 1, 0)
    assert locate_context(text, line, column, g, mm) == context_at(
        parse_document(text, g, mm), min(offset, len(text)),
    )


def test_context_at_top_of_empty_document(g, mm):
    ctx = locate_context("", 1, 1, g, mm)
    assert ctx.kind == "top"
    assert not ctx.has_root


def test_context_after_a_complete_root(g, mm):
    text = "EAPackage P\n{\n}\n"
    ctx = locate_context(text, 3, 2, g, mm)
    assert ctx.kind == "top"
    assert ctx.has_root


def test_context_inside_string_literal_is_none(g, mm):
    text = 'EAPackage P\n{\n    name "hello"\n}\n'
    assert locate_context(text, 3, 13, g, mm) is None


def test_context_just_after_string_is_element(g, mm):
    text = 'EAPackage P\n{\n    name "hello"\n}\n'
    ctx = locate_context(text, 3, 18, g, mm)
    assert ctx is not None and ctx.kind == "element"


def test_context_in_unclosed_body(g, mm):
    text = "EAPackage P\n{\n    EADatatype T\n"
    ctx = context_at(parse_document(text, g, mm), len(text))
    assert ctx.kind == "element" and ctx.class_name == "EAPackage"


def test_nested_context_picks_innermost(g, mm):
    text = "EAPackage P\n{\n    DesignFunctionType F\n    {\n    }\n}\n"
    inner = locate_context(text, 5, 1, g, mm)
    assert inner.class_name == "DesignFunctionType"
    outer = locate_context(text, 6, 1, g, mm)
    assert outer.class_name == "EAPackage"


def test_wrapper_context_in_unadapted_grammar(gen_g, mm):
    text = "EAPackage\n{\n    shortName P\n    element\n    {\n    }\n}\n"
    ctx = locate_context(text, 6, 1, gen_g, mm)
    assert ctx.kind == "wrapper"
    assert ctx.class_name == "EAPackageableElement"


def test_keyword_without_value_counts_as_present(g, mm):
    text = "EAPackage P\n{\n    category\n    \n}\n"
    ctx = locate_context(text, 4, 5, g, mm)
    assert ctx.kind == "element" and "category" in ctx.members_present
    props = complete(ctx, g, mm, None)
    assert "category" not in [p.label for p in props if p.kind == KEYWORD]


# --- damaged documents -------------------------------------------------------


def test_stray_brace_keeps_later_bodies_in_context(g, mm):
    # The stray "}" on line 6 closes the root early; the function type
    # after it is parsed as a detached element and keeps its context.
    text = (
        "EAPackage P\n{\n"
        "    EADatatype T\n    {\n    }\n"
        "    }\n"
        "    DesignFunctionType F\n    {\n        \n    }\n"
        "}\n"
    )
    ctx = locate_context(text, 9, 9, g, mm)
    assert ctx.kind == "element" and ctx.class_name == "DesignFunctionType"
    keywords = [p.label for p in complete(ctx, g, mm, None) if p.kind == KEYWORD]
    assert keywords[0] == "isElementary"


def test_misspelled_root_keeps_nested_bodies_in_context(g, mm):
    text = "EAPackge P\n{\n    EADatatype T\n    {\n        \n    }\n}\n"
    ctx = locate_context(text, 5, 9, g, mm)
    assert ctx.kind == "element" and ctx.class_name == "EADatatype"
    top = locate_context(text, 1, 1, g, mm)
    assert top.kind == "top" and not top.has_root


def test_recovery_leaves_diagnostics_alone(g, mm):
    text = "EAPackage P\n{\n}\n}\nEAPackage Q\n{\n    bogus\n}\n"
    root, diags = parse_model(text, g, mm)
    assert root is not None and root.short_name == "P"
    assert [d.message for d in diags] == [
        "unexpected text after the top-level element: '}'",
    ]


# --- proposal lists ----------------------------------------------------------


def test_empty_document_proposes_exactly_the_root(g, mm):
    props = proposals_at("", 1, 1, g, mm)
    kinds = [(p.kind, p.label) for p in props]
    assert kinds == [(KEYWORD, "EAPackage"), (TEMPLATE, "EAPackage")]
    assert props[0].insert_text == "EAPackage"
    assert props[1].insert_text == "EAPackage ${1:name}"


def test_no_proposals_after_the_root_exists(g, mm):
    assert proposals_at("EAPackage P\n{\n}\n", 3, 2, g, mm) == []


def test_wiper_function_body_proposals(g, mm):
    props = proposals_at(WIPER, 17, 13, g, mm)
    keywords = [p.label for p in props if p.kind == KEYWORD]
    # isElementary is single-valued and already given on line 17's element,
    # so only the containment keywords remain.
    assert keywords == [
        "FunctionClientServerPort",
        "FunctionFlowPort",
        "FunctionPrototype",
        "FunctionConnector",
        "Comment",
    ]
    flow = next(
        p for p in props if p.kind == TEMPLATE and p.label == "FunctionFlowPort"
    )
    assert flow.insert_text == (
        "FunctionFlowPort ${1:name}\n"
        "{\n"
        "    direction ${2:Identifier}\n"
        "    type WiperSystem.Datatypes.Boolean\n"
        "}"
    )


def test_single_valued_attribute_reappears_when_absent(g, mm):
    text = "EAPackage P\n{\n    DesignFunctionType F\n    {\n    }\n}\n"
    props = proposals_at(text, 5, 1, g, mm)
    keywords = [p.label for p in props if p.kind == KEYWORD]
    assert keywords[0] == "isElementary"


def test_attribute_keyword_has_no_template(g, mm):
    props = proposals_at("EAPackage P\n{\n", 2, 2, g, mm)
    labels = {(p.kind, p.label) for p in props}
    assert (KEYWORD, "category") in labels
    assert (TEMPLATE, "category") not in labels


def test_repeatable_members_always_proposed(g, mm):
    text = "EAPackage P\n{\n    EADatatype T\n}\n"
    props = proposals_at(text, 4, 1, g, mm)
    assert "EADatatype" in [p.label for p in props if p.kind == KEYWORD]


def test_wrapper_context_proposes_concrete_subclasses(gen_g, mm):
    text = (
        "EAPackage\n{\n"
        "    shortName P\n"
        "    element\n    {\n"
        "        DesignFunctionType\n        {\n"
        "            shortName F\n"
        "            port\n            {\n            }\n"
        "        }\n"
        "    }\n"
        "}\n"
    )
    props = proposals_at(text, 11, 1, gen_g, mm)
    keywords = [p.label for p in props if p.kind == KEYWORD]
    assert keywords == [
        "FunctionClientServerPort",
        "FunctionFlowPort",
    ]


def test_abstract_targets_fan_out_alphabetically(g, mm):
    text = "EAPackage P\n{\n    DesignFunctionType F\n    {\n    }\n}\n"
    props = proposals_at(text, 5, 1, g, mm)
    keywords = [p.label for p in props if p.kind == KEYWORD]
    # "port" targets the abstract FunctionPort: its concrete subclasses
    # appear in alphabetical order at the port entry's position.
    i = keywords.index("FunctionClientServerPort")
    assert keywords[i + 1] == "FunctionFlowPort"


# --- templates ---------------------------------------------------------------


def test_template_for_class_without_mandatory_members(g, mm):
    assert build_template("EAPackage", g, mm, None) == "EAPackage ${1:name}"


def test_template_lists_mandatory_members_in_order(g, mm):
    got = build_template("FunctionFlowPort", g, mm, None)
    assert got == (
        "FunctionFlowPort ${1:name}\n"
        "{\n"
        "    direction ${2:Identifier}\n"
        "    type ${3:EADatatype}\n"
        "}"
    )


def test_template_prefills_reference_from_cache(g, mm):
    cache = cache_for(WIPER, g, mm)
    got = build_template("FunctionPrototype", g, mm, cache)
    assert "type WiperSystem.Functions.WiperCtrlBasic" in got
    assert "${2" not in got


def test_template_for_anonymous_class_has_no_name_slot(g, mm):
    assert build_template("Comment", g, mm, None) == "Comment"


def test_template_under_unadapted_grammar_spells_the_name_line(gen_g, mm):
    got = build_template("EAPackage", gen_g, mm, None)
    assert got == "EAPackage\n{\n    shortName ${1:name}\n}"


def test_templates_parse_after_placeholder_substitution(g, mm):
    cache = cache_for(WIPER, g, mm)
    for cls in ("EAPackage", "EADatatype", "Comment", "DesignFunctionType"):
        snippet = fill_placeholders(build_template(cls, g, mm, cache))
        if cls != "EAPackage":
            snippet = "EAPackage Host\n{\n" + snippet + "\n}\n"
        root, diags = parse_model(snippet, g, mm)
        assert root is not None
        assert not [d for d in diags if d.severity == ERROR], (cls, snippet)


KEYWORDLESS_NAME = "remove-attribute-keyword * shortName\n"


def template_grammars(mm):
    """The generated grammar and the grammars of these configs: the
    default one, each of its directives alone, and the keyword-less name
    slot alone, in place of the hoisted name and after the default."""
    default = CONFIG.read_text(encoding="utf-8")
    configs = {
        "default": default,
        "keywordless name": KEYWORDLESS_NAME,
        "keywordless name, not hoisted": default.replace("hoist-short-name *\n", KEYWORDLESS_NAME),
        "default, then keywordless name": default + KEYWORDLESS_NAME,
    }
    for line in default.splitlines():
        if line and not line.startswith("#"):
            configs[line] = line + "\n"
    grammars = {"generated": generate_grammar(mm)}
    for name, text in configs.items():
        grammars[name], _ = adapt_grammar(generate_grammar(mm), parse_config(text))
    return grammars


def template_caches(g, mm):
    return {"none": None, "wiper": cache_for(WIPER, g, mm), "empty": ReferenceCache()}


def test_templates_match_the_frozen_builder(g, mm):
    for syntax, grammar in template_grammars(mm).items():
        for name, cache in template_caches(g, mm).items():
            for cls in mm.concrete_classes():
                assert build_template(cls, grammar, mm, cache) == reference_build_template(
                    cls, grammar, mm, cache,
                ), (syntax, name, cls)


def test_filled_templates_are_canonical_text(g, mm):
    # The parser takes any class at the top, so no host element is needed.
    for syntax, grammar in template_grammars(mm).items():
        for name, cache in template_caches(g, mm).items():
            for cls in mm.concrete_classes():
                filled = fill_placeholders(build_template(cls, grammar, mm, cache))
                root, diags = parse_model(filled, grammar, mm)
                assert diags == [], (syntax, name, cls, filled)
                assert format_model(root, grammar) == filled + "\n", (syntax, name, cls)


LATE_NAME_SLOT = """<?xml version="1.0" encoding="UTF-8"?>
<ecore:EPackage xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"
    xmlns:ecore="http://www.eclipse.org/emf/2002/Ecore" name="late" rootClass="Item">
  <eClassifiers xsi:type="ecore:EClass" name="Coded" abstract="true">
    <eStructuralFeatures xsi:type="ecore:EAttribute" name="code" eType="#//Identifier" lowerBound="1"/>
  </eClassifiers>
  <eClassifiers xsi:type="ecore:EClass" name="Named" abstract="true">
    <eStructuralFeatures xsi:type="ecore:EAttribute" name="shortName" eType="#//Identifier" lowerBound="1"/>
  </eClassifiers>
  <eClassifiers xsi:type="ecore:EClass" name="Item" eSuperTypes="#//Coded #//Named">
    <eStructuralFeatures xsi:type="ecore:EReference" name="peer" eType="#//Item" lowerBound="1"/>
  </eClassifiers>
</ecore:EPackage>
"""


def test_template_writes_an_inherited_name_slot_where_its_entry_is():
    # The name slot comes after ``code`` here, and blanks are numbered in
    # the order they are written, so the filled template is canonical.
    late = load_metamodel(LATE_NAME_SLOT)
    grammar = generate_grammar(late)
    template = build_template("Item", grammar, late, None)
    assert template == (
        "Item\n{\n    code ${1:Identifier}\n    shortName ${2:name}\n    peer ${3:Item}\n}"
    )
    filled = fill_placeholders(template)
    root, diags = parse_model(filled, grammar, late)
    assert diags == [] and format_model(root, grammar) == filled + "\n"


# --- soundness and completeness over whole files -----------------------------


def contexts_of(text, g, mm):
    doc = parse_document(text, g, mm)
    seen = {}
    for offset in range(len(text) + 1):
        ctx = context_at(doc, offset)
        if ctx is not None and ctx not in seen:
            seen[ctx] = offset
    return seen


def insertion_point(text, ctx, offset):
    """A fresh line inside the context's body, right before it closes."""
    if ctx.kind == "top":
        return len(text)
    depth = 0
    i = offset
    while i < len(text):
        ch = text[i]
        if ch == '"':
            i += 1
            while i < len(text) and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
        elif text.startswith("//", i):
            i = text.find("\n", i)
            if i < 0:
                break
        elif ch == "{":
            depth += 1
        elif ch == "}":
            if depth == 0:
                return i
            depth -= 1
        i += 1
    return len(text)


def test_proposals_are_sound_everywhere(g, mm):
    for path in MODELS:
        text = path.read_text(encoding="utf-8")
        cache = cache_for(text, g, mm)
        base = [d for d in parse_model(text, g, mm)[1] if d.severity == ERROR]
        assert base == []
        for ctx, offset in contexts_of(text, g, mm).items():
            if ctx.kind == "top" and ctx.has_root:
                continue
            at = insertion_point(text, ctx, offset)
            for p in complete(ctx, g, mm, cache):
                if p.kind != TEMPLATE:
                    continue
                snippet = fill_placeholders(p.insert_text)
                patched = text[:at] + "\n" + snippet + "\n" + text[at:]
                root, diags = parse_model(patched, g, mm)
                errors = [d for d in diags if d.severity == ERROR]
                assert root is not None and errors == [], (
                    path.name,
                    ctx.class_name,
                    p.label,
                    [d.message for d in errors],
                )


def test_keyword_proposals_are_complete(g, mm):
    # Whatever the brute-force probe can insert, the keyword list offers.
    text = (MODELS[0].parent / "mixed_order.eatxt").read_text(encoding="utf-8")
    cache = cache_for(text, g, mm)
    for ctx, offset in contexts_of(text, g, mm).items():
        if ctx.kind != "element":
            continue
        offered = {p.label for p in complete(ctx, g, mm, cache) if p.kind == KEYWORD}
        at = insertion_point(text, ctx, offset)
        for cls in mm.concrete_classes():
            snippet = fill_placeholders(build_template(cls, g, mm, cache))
            patched = text[:at] + "\n" + snippet + "\n" + text[at:]
            _, diags = parse_model(patched, g, mm)
            if not [d for d in diags if d.severity == ERROR]:
                assert cls in offered, (ctx.class_name, cls)


def test_proposals_match_cache_contents(g, mm):
    cache = cache_for(WIPER, g, mm)
    ctx = locate_context(WIPER, 17, 13, g, mm)
    props = complete(ctx, g, mm, cache)
    proto = next(
        p for p in props if p.kind == TEMPLATE and p.label == "FunctionPrototype"
    )
    first = cache.by_class["DesignFunctionType"][0][0].dotted
    assert f"type {first}" in proto.insert_text

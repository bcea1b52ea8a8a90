"""Round trips between the text form and the hyphenated XML interchange form."""

import contextlib
import io
import re

import pytest
from hypothesis import given, reject, settings, strategies as st

import eatxt.metamodel
import eatxt.xmlio

from eatxt.cli import main
from eatxt.diagnostics import (
    ERROR, NO_SPAN, WARNING, Diagnostic, MetamodelError, SerializationError, Span,
)
from eatxt.grammar import generate_grammar
from eatxt.metamodel import (
    Attribute, Member, MetaClass, Metamodel, PrimitiveKind, _validate_and_index, load_metamodel,
)
from eatxt.model import CrossRef, ModelElement, QualifiedName
from eatxt.textsyntax import format_model, parse_model
from eatxt.xmlio import (
    XmlNameMap,
    from_eaxml,
    to_eaxml,
    to_tag,
)

from support import (
    CONFIG,
    EXTRA,
    GOLDEN,
    METAMODEL,
    MODELS,
    random_model,
    reference_from_eaxml,
    reference_to_eaxml,
    reference_xml_names,
    same_structure,
)


def parse_ok(text, g, mm):
    root, diags = parse_model(text, g, mm)
    assert root is not None and not [d for d in diags if d.severity == ERROR]
    return root


@pytest.mark.parametrize(
    "name,tag",
    [
        ("EAPackage", "EA-PACKAGE"),
        ("DesignFunctionType", "DESIGN-FUNCTION-TYPE"),
        ("shortName", "SHORT-NAME"),
        ("FunctionFlowPort", "FUNCTION-FLOW-PORT"),
        ("uuid", "UUID"),
        ("isElementary", "IS-ELEMENTARY"),
        ("ownedComment", "OWNED-COMMENT"),
    ],
)
def test_names_map_to_upper_hyphen_tags(name, tag):
    assert to_tag(name) == tag


def test_name_map_round_trips_every_metamodel_class(mm):
    names = XmlNameMap(mm)
    for cls in mm.classes.values():
        assert names.class_by_tag[to_tag(cls.name)] == cls.name


def name_tables(mm):
    """The tag tables of ``XmlNameMap`` and of its frozen constructor, in
    insertion order, or the message of the error each raises."""
    def current():
        names = XmlNameMap(mm)
        return names.class_by_tag, names.tag_by_name

    tables = []
    for build in (current, lambda: reference_xml_names(mm)[:2]):
        try:
            tables.append([list(table.items()) for table in build()])
        except SerializationError as exc:
            tables.append(str(exc))
    return tables


def test_name_map_matches_the_frozen_constructor_on_the_fixture(mm):
    names, expected = name_tables(mm)
    assert names == expected and isinstance(names, list)


# Names that share a tag (FooBar, UUID, AB-CAR), that have none (x_y) or
# that are also a class name.
_CLASS_POOL = ["Alpha", "Beta", "Gamma", "Delta", "FooBar", "Uuid", "UUID", "x_y"]
_MEMBER_POOL = ["fooBar", "FooBar", "uuid", "UUID", "x_y", "shortName", "ABCar", "AbCar", "gamma"]


@st.composite
def tag_metamodels(draw):
    """Metamodels of up to six classes, whose supertypes may be declared
    before or after them, each declaring members named from
    ``_MEMBER_POOL``. A class never redeclares a name it inherits."""
    # Mostly plain class names, so that members get to collide too.
    names = draw(st.lists(
        st.sampled_from(_CLASS_POOL[:4]) | st.sampled_from(_CLASS_POOL),
        min_size=1, max_size=6, unique=True,
    ))
    # Supertypes come earlier in a random order, not in declaration order.
    order = draw(st.permutations(names))
    inherited: dict[str, set[str]] = {}
    classes = {}
    for rank, name in enumerate(order):
        supertypes = draw(st.lists(st.sampled_from(order[:rank]), max_size=2, unique=True)
                          if rank else st.just([]))
        seen = set().union(*(inherited[s] for s in supertypes))
        free = [m for m in _MEMBER_POOL if m not in seen]
        own = draw(st.lists(st.sampled_from(free), max_size=3, unique=True)) if free else []
        inherited[name] = seen | set(own)
        classes[name] = MetaClass(
            name, supertypes=supertypes,
            members=[Member(m, Attribute(PrimitiveKind.IDENTIFIER)) for m in own],
        )
    mm = Metamodel({name: classes[name] for name in names}, names[0])
    try:
        _validate_and_index(mm)
    except MetamodelError:
        reject()  # a diamond that inherits two declarations of one name
    return mm


@settings(max_examples=300, deadline=None)
@given(mm=tag_metamodels())
def test_name_map_matches_the_frozen_constructor_on_colliding_names(mm):
    names, expected = name_tables(mm)
    assert names == expected


def abstract_chain(depth):
    """A chain of abstract classes, each declaring one attribute, ending
    in one concrete leaf."""
    classes = {
        f"C{i}": MetaClass(
            f"C{i}", abstract=True, supertypes=[f"C{i - 1}"] if i else [],
            members=[Member(f"attr{i}", Attribute(PrimitiveKind.STRING))],
        )
        for i in range(depth)
    }
    classes["Leaf"] = MetaClass("Leaf", supertypes=[f"C{depth - 1}"])
    mm = Metamodel(classes, "Leaf")
    _validate_and_index(mm)
    return mm


def test_name_map_tags_each_name_once(mm, monkeypatch):
    calls = {}
    real = eatxt.xmlio.to_tag

    def counting(name):
        calls[name] = calls.get(name, 0) + 1
        return real(name)

    monkeypatch.setattr(eatxt.xmlio, "to_tag", counting)
    for metamodel in (mm, abstract_chain(1000)):
        calls.clear()
        names = XmlNameMap(metamodel)
        declared = set(metamodel.classes)
        declared.update(m.name for c in metamodel.classes.values() for m in c.members)
        assert set(calls) == declared == set(names.tag_by_name)
        assert max(calls.values()) == 1


def test_tag_rejects_non_identifier():
    with pytest.raises(SerializationError):
        to_tag("not a name")
    with pytest.raises(SerializationError):
        to_tag("größe")


def test_colliding_class_names_rejected():
    source = """\
<?xml version="1.0" encoding="UTF-8"?>
<ecore:EPackage xmlns:ecore="http://www.eclipse.org/emf/2002/Ecore"
    name="clash" rootClass="ABCar">
  <eClassifiers xsi:type="ecore:EDataType"
      xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" name="Identifier"/>
  <eClassifiers xsi:type="ecore:EClass"
      xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" name="ABCar">
    <eStructuralFeatures xsi:type="ecore:EAttribute" name="shortName"
        eType="#//Identifier" lowerBound="1"/>
  </eClassifiers>
  <eClassifiers xsi:type="ecore:EClass"
      xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" name="AbCar">
    <eStructuralFeatures xsi:type="ecore:EAttribute" name="shortName"
        eType="#//Identifier" lowerBound="1"/>
  </eClassifiers>
</ecore:EPackage>
"""
    mm = load_metamodel(source)
    with pytest.raises(SerializationError, match="AB-CAR"):
        to_eaxml(random_model(0, mm, max_elements=1), mm)


STRING_SHORT_NAME = """\
<?xml version="1.0" encoding="UTF-8"?>
<ecore:EPackage xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"
    xmlns:ecore="http://www.eclipse.org/emf/2002/Ecore" name="p">
  <eClassifiers xsi:type="ecore:EClass" name="Pkg">
    <eStructuralFeatures xsi:type="ecore:EAttribute" name="shortName" eType="#//EString"/>
    <eStructuralFeatures xsi:type="ecore:EReference" name="item" eType="#//Item"
        containment="true" upperBound="-1"/>
  </eClassifiers>
  <eClassifiers xsi:type="ecore:EClass" name="Item">
    <eStructuralFeatures xsi:type="ecore:EAttribute" name="shortName"
        eType="#//Identifier" lowerBound="1"/>
  </eClassifiers>
</ecore:EPackage>
"""


def test_string_short_name_survives_the_round_trip(tmp_path, capsys):
    # A String shortName is a member, not the name slot: <SHORT-NAME> of
    # Pkg reads back as that member, while Item's stays the element name.
    mm = load_metamodel(STRING_SHORT_NAME)
    text = 'Pkg\n{\n    shortName "hello world"\n    item { Item { shortName I } }\n}\n'
    g = generate_grammar(mm)
    root = parse_ok(text, g, mm)
    xml = to_eaxml(root, mm)
    assert "<SHORT-NAME>hello world</SHORT-NAME>" in xml and "<SHORT-NAME>I</SHORT-NAME>" in xml
    back, diags = from_eaxml(xml, mm)
    assert diags == [] and same_structure(root, back)
    assert back.short_name is None and back.attributes == [("shortName", '"hello world"')]
    assert format_model(back, g) == format_model(root, g)
    ecore, model = tmp_path / "mm.ecore", tmp_path / "m.eatxt"
    ecore.write_text(STRING_SHORT_NAME, encoding="utf-8")
    model.write_text(text, encoding="utf-8")
    assert main(["roundtrip-check", str(model), "--metamodel", str(ecore)]) == 0
    assert capsys.readouterr() == ("", "")


def test_golden_xml_is_stable(g, mm):
    text = (MODELS[0].parent / "wiper_system.eatxt").read_text(encoding="utf-8")
    produced = to_eaxml(parse_ok(text, g, mm), mm)
    assert produced == (GOLDEN / "wiper_system.eaxml").read_text(encoding="utf-8")


def test_xml_header_and_root_shape(g, mm):
    produced = to_eaxml(parse_ok("EAPackage P\n", g, mm), mm)
    lines = produced.splitlines()
    assert lines[0] == '<?xml version="1.0" encoding="UTF-8"?>'
    assert lines[1] == '<EAXML version="2.1.12">'
    assert lines[-1] == "</EAXML>"
    assert produced.endswith("\n")


def test_short_name_comes_first(g, mm):
    text = "EAPackage P\n{\n    category c\n    EADatatype T\n}\n"
    produced = to_eaxml(parse_ok(text, g, mm), mm)
    package = produced[produced.index("<EA-PACKAGE>") :]
    assert package.index("<SHORT-NAME>P</SHORT-NAME>") < package.index("<CATEGORY>")


def test_references_use_dest_and_slash_paths(g, mm):
    text = (MODELS[0].parent / "wiper_system.eatxt").read_text(encoding="utf-8")
    produced = to_eaxml(parse_ok(text, g, mm), mm)
    assert (
        '<TYPE DEST="EA-DATATYPE">/WiperSystem/Datatypes/Boolean</TYPE>' in produced
    )
    assert '<PORT DEST="FUNCTION-PORT">' in produced


def test_consecutive_children_share_one_wrapper(g, mm):
    text = (
        "EAPackage P\n{\n"
        "    EADatatype A\n    EADatatype B\n"
        "    EAPackage Q\n"
        "    EADatatype C\n"
        "}\n"
    )
    produced = to_eaxml(parse_ok(text, g, mm), mm)
    # Two ELEMENT runs (A,B then C), one SUB-PACKAGE run in between.
    assert produced.count("<ELEMENT>") == 2
    assert produced.count("<SUB-PACKAGE>") == 1
    assert produced.index("<SUB-PACKAGE>") < produced.rindex("<ELEMENT>")


@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.stem)
def test_corpus_survives_the_xml_round_trip(path, g, mm):
    original = path.read_text(encoding="utf-8")
    root = parse_ok(original, g, mm)
    recovered, diags = from_eaxml(to_eaxml(root, mm), mm)
    assert recovered is not None
    assert not [d for d in diags if d.severity == ERROR]
    assert same_structure(root, recovered)
    assert format_model(recovered, g) == original


def test_random_models_survive_the_xml_round_trip(mm, g):
    for seed in range(40):
        root = random_model(seed, mm, max_elements=50)
        recovered, diags = from_eaxml(to_eaxml(root, mm), mm)
        assert not [d for d in diags if d.severity == ERROR], seed
        assert same_structure(root, recovered), seed


def test_random_models_round_trip_as_generated_text(mm, gen_g):
    """Text in the generated grammar, where names are body keywords and
    containments are wrapped, goes to EAXML and back to the same text."""
    for seed in range(40):
        text = format_model(random_model(seed, mm, max_elements=50), gen_g)
        root, diags = parse_model(text, gen_g, mm)
        assert diags == [], seed
        recovered, diags = from_eaxml(to_eaxml(root, mm), mm)
        assert diags == [], seed
        assert format_model(recovered, gen_g) == text, seed


def test_child_order_is_preserved_not_grouped(g, mm):
    shuffled = (
        "EAPackage P\n{\n"
        "    EADatatype A\n"
        "    EAPackage Q\n"
        "    EADatatype B\n"
        "    EAPackage R\n"
        "}\n"
    )
    root = parse_ok(shuffled, g, mm)
    recovered, _ = from_eaxml(to_eaxml(root, mm), mm)
    got = [child.short_name for _, child in recovered.children]
    assert got == ["A", "Q", "B", "R"]


def test_empty_attribute_elements_are_dropped_on_read(mm):
    source = """\
<?xml version="1.0" encoding="UTF-8"?>
<EAXML version="2.1.12">
  <EA-PACKAGE>
    <SHORT-NAME>P</SHORT-NAME>
    <CATEGORY></CATEGORY>
    <NAME></NAME>
  </EA-PACKAGE>
</EAXML>
"""
    root, diags = from_eaxml(source, mm)
    assert not [d for d in diags if d.severity == ERROR]
    assert root.attributes == []


def test_string_attribute_text_is_taken_verbatim(g, mm):
    text = 'EAPackage P\n{\n    name "  padded  "\n}\n'
    root = parse_ok(text, g, mm)
    recovered, _ = from_eaxml(to_eaxml(root, mm), mm)
    assert recovered.attributes[0][1] == '"  padded  "'


def test_a_carriage_return_in_a_string_survives_the_round_trip(g, mm):
    # XML readers take a raw carriage return for a line feed.
    text = 'EAPackage P\n{\n    name "a\rb"\n}\n'
    xml = to_eaxml(parse_ok(text, g, mm), mm)
    assert "<NAME>a&#13;b</NAME>" in xml
    back, diags = from_eaxml(xml, mm)
    assert diags == [] and format_model(back, g) == text


@pytest.mark.parametrize("char", ["\x01", "\x1f", "\ufffe", "\ud800"])
def test_a_character_xml_forbids_is_refused_naming_its_element_and_member(g, mm, char):
    root = parse_ok('EAPackage P\n{\n    DesignFunctionType F\n}\n', g, mm)
    root.children[0][1].attributes.append(("isElementary", "true"))
    root.children[0][1].attributes.append(("isElementary", f"t{char}"))
    with pytest.raises(SerializationError) as caught:
        to_eaxml(root, mm)
    assert str(caught.value) == (
        f"DesignFunctionType F: 'isElementary' holds the character {char!r}, "
        "which XML 1.0 cannot carry"
    )


def test_unknown_tag_is_skipped_with_warning(mm):
    source = """\
<?xml version="1.0" encoding="UTF-8"?>
<EAXML version="2.1.12">
  <EA-PACKAGE>
    <SHORT-NAME>P</SHORT-NAME>
    <NO-SUCH-MEMBER>x</NO-SUCH-MEMBER>
  </EA-PACKAGE>
</EAXML>
"""
    root, diags = from_eaxml(source, mm)
    assert root is not None
    warnings = [d for d in diags if d.severity == WARNING]
    assert any("NO-SUCH-MEMBER" in d.message for d in warnings)


def test_version_mismatch_warns_but_reads(mm):
    source = """\
<?xml version="1.0" encoding="UTF-8"?>
<EAXML version="9.9.9">
  <EA-PACKAGE>
    <SHORT-NAME>P</SHORT-NAME>
  </EA-PACKAGE>
</EAXML>
"""
    root, diags = from_eaxml(source, mm)
    assert root is not None and root.short_name == "P"
    assert any("9.9.9" in d.message and d.severity == WARNING for d in diags)


def test_wrong_root_element_is_an_error(mm):
    root, diags = from_eaxml("<OTHER/>", mm)
    assert root is None
    assert any(d.severity == ERROR for d in diags)


def test_zero_and_two_payload_children_are_errors(mm):
    empty = '<EAXML version="2.1.12"/>'
    root, diags = from_eaxml(empty, mm)
    assert root is None and any(d.severity == ERROR for d in diags)

    two = (
        '<EAXML version="2.1.12">'
        "<EA-PACKAGE><SHORT-NAME>A</SHORT-NAME></EA-PACKAGE>"
        "<EA-PACKAGE><SHORT-NAME>B</SHORT-NAME></EA-PACKAGE>"
        "</EAXML>"
    )
    root, diags = from_eaxml(two, mm)
    assert root is None and any("exactly one" in d.message for d in diags)


def test_abstract_root_tag_is_an_error(mm):
    source = (
        '<EAXML version="2.1.12">'
        "<EA-ELEMENT><SHORT-NAME>A</SHORT-NAME></EA-ELEMENT>"
        "</EAXML>"
    )
    root, diags = from_eaxml(source, mm)
    assert root is None
    assert any("not a concrete metamodel class" in d.message for d in diags)


def test_malformed_xml_reports_a_position(mm):
    root, diags = from_eaxml("<EAXML version='2.1.12'><broken", mm)
    assert root is None
    assert len(diags) == 1
    assert diags[0].severity == ERROR
    assert diags[0].span.line >= 1 and diags[0].span.col >= 1


def test_reference_paths_tolerate_whitespace(mm, g):
    source = """\
<?xml version="1.0" encoding="UTF-8"?>
<EAXML version="2.1.12">
  <EA-PACKAGE>
    <SHORT-NAME>P</SHORT-NAME>
    <ELEMENT>
      <EA-DATATYPE>
        <SHORT-NAME>T</SHORT-NAME>
      </EA-DATATYPE>
      <DESIGN-FUNCTION-TYPE>
        <SHORT-NAME>F</SHORT-NAME>
        <PORT>
          <FUNCTION-FLOW-PORT>
            <SHORT-NAME>p</SHORT-NAME>
            <DIRECTION>in</DIRECTION>
            <TYPE DEST="EA-DATATYPE">
              /P/T
            </TYPE>
          </FUNCTION-FLOW-PORT>
        </PORT>
      </DESIGN-FUNCTION-TYPE>
    </ELEMENT>
  </EA-PACKAGE>
</EAXML>
"""
    root, diags = from_eaxml(source, mm)
    assert not [d for d in diags if d.severity == ERROR]
    port = root.children[1][1].children[0][1]
    assert port.cross_refs[0].target.dotted == "P.T"
    assert "type P.T" in format_model(root, g)


def test_mismatched_wrapper_child_is_skipped_with_warning(mm):
    # A package inside PORT does not fit FunctionPort.
    source = """\
<?xml version="1.0" encoding="UTF-8"?>
<EAXML version="2.1.12">
  <EA-PACKAGE>
    <SHORT-NAME>P</SHORT-NAME>
    <ELEMENT>
      <DESIGN-FUNCTION-TYPE>
        <SHORT-NAME>F</SHORT-NAME>
        <PORT>
          <EA-PACKAGE>
            <SHORT-NAME>Q</SHORT-NAME>
          </EA-PACKAGE>
        </PORT>
      </DESIGN-FUNCTION-TYPE>
    </ELEMENT>
  </EA-PACKAGE>
</EAXML>
"""
    root, diags = from_eaxml(source, mm)
    assert root is not None
    fn = root.children[0][1]
    assert fn.children == []
    assert any(d.severity == WARNING for d in diags)


def test_ids_are_assigned_in_document_order(mm, g):
    text = (MODELS[0].parent / "nested_packages.eatxt").read_text(encoding="utf-8")
    root = parse_ok(text, g, mm)
    recovered, _ = from_eaxml(to_eaxml(root, mm), mm)
    ids = [el.id for el in recovered.iter_preorder()]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_tag_splitting_keeps_digit_groups():
    # Names with digits split the way the word regex dictates, and the split
    # survives the reverse mapping.
    pattern = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")
    for name in ("String0", "sha256Hash", "level2Cache"):
        words = pattern.findall(name)
        assert to_tag(name) == "-".join(w.upper() for w in words)


# --- the frozen ElementTree writer and reader as oracles -----------------------


def tree_record(root):
    """Everything a tree holds, element by element in pre-order."""
    rows, stack = [], [root]
    while stack:
        el = stack.pop()
        rows.append((
            el.id, el.class_name, el.short_name, el.start, el.end, list(el.attributes),
            [(r.member, r.target, r.resolved_id, r.start, r.end) for r in el.cross_refs],
            [(member, child.id) for member, child in el.children],
        ))
        stack.extend(child for _, child in reversed(el.children))
    return rows


def assert_reads_like_reference(xml, mm):
    """Same tree and messages as the ElementTree reader. Positions may
    differ only where the reader had none (0:0); there they are real."""
    root, diags = from_eaxml(xml, mm)
    ref_root, ref_diags = reference_from_eaxml(xml, mm)
    assert (root is None) == (ref_root is None)
    if ref_root is not None:
        assert tree_record(root) == tree_record(ref_root)
    assert [(d.severity, d.message) for d in diags] == [
        (d.severity, d.message) for d in ref_diags
    ]
    lines = xml.count("\n") + 1
    for got, ref in zip(diags, ref_diags):
        if ref.span == NO_SPAN:
            assert 1 <= got.span.line <= lines and got.span.col >= 1
        else:
            assert got.span == ref.span


def fixture_trees(g, mm):
    paths = MODELS + [EXTRA / "messy_but_valid.eatxt"]
    return [parse_ok(p.read_text(encoding="utf-8"), g, mm) for p in paths]


def test_writer_matches_the_reference_on_every_fixture(g, mm):
    for root in fixture_trees(g, mm):
        assert to_eaxml(root, mm) == reference_to_eaxml(root, mm)


def test_writer_matches_the_reference_on_random_models(mm):
    for seed in range(60):
        root = random_model(seed, mm, max_elements=10 + 3 * seed)
        assert to_eaxml(root, mm) == reference_to_eaxml(root, mm), seed


def chunked_trees(mm):
    """Random trees whose EAXML spans at least three of the writer's
    chunks of lines, and one padded with empty comments at the end of
    the root until its line count is a whole number of chunks."""
    chunk = eatxt.xmlio._CHUNK
    trees = [random_model(seed, mm, max_elements=3000, fan_out=8) for seed in (1, 2)]
    for root in trees:
        assert reference_to_eaxml(root, mm).count("\n") >= 3 * chunk
    padded = random_model(4, mm, max_elements=3000, fan_out=8)
    # The first comment may open a wrapper; each one after it adds a line.
    padded.children.append(("ownedComment", ModelElement("Comment")))
    lines = reference_to_eaxml(padded, mm).count("\n")
    padded.children += [("ownedComment", ModelElement("Comment"))] * (-lines % chunk)
    lines = reference_to_eaxml(padded, mm).count("\n")
    assert lines % chunk == 0 and lines >= 3 * chunk
    return trees + [padded]


def test_writer_matches_the_reference_across_chunks(g, mm):
    """The writer folds its lines into chunks as it goes. No chunk
    boundary shows in the document, and the canonical text of the same
    trees reads back as itself."""
    for root in chunked_trees(mm):
        assert to_eaxml(root, mm) == reference_to_eaxml(root, mm)
        text = format_model(root, g)
        back = parse_ok(text, g, mm)
        assert format_model(back, g) == text


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_writer_matches_the_reference_at_any_chunk_size(mm, monkeypatch, chunk):
    monkeypatch.setattr(eatxt.xmlio, "_CHUNK", chunk)
    for seed in range(15):
        root = random_model(seed, mm, max_elements=10 + 5 * seed)
        assert to_eaxml(root, mm) == reference_to_eaxml(root, mm), seed


def test_a_forbidden_character_is_named_as_the_whole_document_would_name_it(g, mm, monkeypatch):
    """Each chunk is checked as it is joined; the first forbidden
    character of the document is the one reported, with its first holder
    in document order."""
    monkeypatch.setattr(eatxt.xmlio, "_CHUNK", 1)
    root = parse_ok("EAPackage P\n{\n    EADatatype A\n    EADatatype B\n}\n", g, mm)
    root.children[0][1].attributes.append(("gid", "a\x02"))
    root.children[1][1].attributes.append(("gid", "b\x01\x02"))
    with pytest.raises(SerializationError) as caught:
        to_eaxml(root, mm)
    assert str(caught.value) == (
        "EADatatype A: 'gid' holds the character '\\x02', which XML 1.0 cannot carry"
    )


def test_a_tree_the_metamodel_cannot_hold_is_refused_before_its_characters(g, mm, monkeypatch):
    monkeypatch.setattr(eatxt.xmlio, "_CHUNK", 1)
    root = parse_ok("EAPackage P\n{\n    EADatatype A\n    EADatatype B\n}\n", g, mm)
    root.children[0][1].attributes.append(("gid", "a\x02"))
    root.children[1][1].attributes.append(("size", "1"))
    with pytest.raises(SerializationError, match="'EADatatype' has no attribute 'size'"):
        to_eaxml(root, mm)


def test_writer_matches_the_reference_on_empty_content(mm):
    # Elements and values with nothing inside print as <TAG />.
    root = ModelElement("EAPackage", attributes=[("name", '""'), ("category", "c")])
    root.children.append(("element", ModelElement("EADatatype", short_name="")))
    root.children.append(("element", ModelElement("EADatatype")))
    root.children.append(("subPackage", ModelElement("EAPackage", short_name="<&>")))
    produced = to_eaxml(root, mm)
    assert produced == reference_to_eaxml(root, mm)
    assert "<NAME />" in produced and "<EA-DATATYPE />" in produced
    assert "<SHORT-NAME>&lt;&amp;&gt;</SHORT-NAME>" in produced
    bare = ModelElement("EAPackage")
    assert to_eaxml(bare, mm) == reference_to_eaxml(bare, mm)


def test_reader_matches_the_reference_on_fixtures_and_random_models(g, mm):
    documents = [(GOLDEN / "wiper_system.eaxml").read_text(encoding="utf-8")]
    documents += [to_eaxml(root, mm) for root in fixture_trees(g, mm)]
    documents += [random_model(seed, mm, max_elements=80) for seed in range(40)]
    for doc in documents:
        assert_reads_like_reference(doc if isinstance(doc, str) else to_eaxml(doc, mm), mm)


# Damage for the reader: unknown tags, markup inside text, children that fit
# no containment, entities, comments, a second root, stray characters.
_XML_DAMAGE = [
    "<NO-SUCH-TAG>x</NO-SUCH-TAG>", "<FOO-BAR/>", "<b/>", "x<i>y</i>z",
    "<EA-PACKAGE><SHORT-NAME>Q</SHORT-NAME></EA-PACKAGE>",
    "<EA-DATATYPE><SHORT-NAME>D</SHORT-NAME></EA-DATATYPE>",
    "<FUNCTION-FLOW-PORT><SHORT-NAME>p</SHORT-NAME></FUNCTION-FLOW-PORT>",
    "<EA-ELEMENT/>", "<FUNCTION-PORT/>", "<SHORT-NAME>N</SHORT-NAME>", "<TYPE DEST=\"EA-DATATYPE\"> / </TYPE>",
    "<CATEGORY>  </CATEGORY>", "<NAME></NAME>", "<ELEMENT></ELEMENT>",
    "&nope;", "&e;", "&v;", "&amp;", "&lt;x&gt;", "&#65;", "<!-- c -->", "<![CDATA[<x>&]]>", "<?pi x?>",
    "<", ">", "&", "\"", "/", "</EA-PACKAGE>", "<EA-PACKAGE/>", "</EAXML>",
    "<a:b/>", "<x xmlns=\"urn:u\"/>",
]
_PROLOGUES = [
    "", "<!DOCTYPE EAXML SYSTEM \"eaxml.dtd\">\n",
    "<!DOCTYPE EAXML [<!ENTITY e SYSTEM \"x\"><!ENTITY v \"value\">]>\n",
]


def damaged_eaxml(data, mm):
    """The EAXML of a random model after one of ``_PROLOGUES`` and one to
    three edits: ``_XML_DAMAGE`` inserted, a few characters cut, or the
    text cut short."""
    seed = data.draw(st.integers(0, 30), label="seed")
    xml = to_eaxml(random_model(seed, mm, max_elements=25), mm)
    header, _, body = xml.partition("\n")
    xml = header + "\n" + data.draw(st.sampled_from(_PROLOGUES), label="prologue") + body
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        action = data.draw(st.sampled_from(["insert", "insert", "cut", "truncate"]))
        at = data.draw(st.integers(0, len(xml)), label="at")
        if action == "insert":
            xml = xml[:at] + data.draw(st.sampled_from(_XML_DAMAGE)) + xml[at:]
        elif action == "cut":
            xml = xml[:at] + xml[at + data.draw(st.integers(1, 12)):]
        else:
            xml = xml[:at]
    return xml


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reader_matches_the_reference_on_damaged_xml(data, g, mm):
    assert_reads_like_reference(damaged_eaxml(data, mm), mm)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def assert_diagnostics_point_into(err, path, text):
    """Every line on stderr is a diagnostic for ``path`` at a line:col
    that lies in ``text``: a line of it, and a column up to one past the
    line's end."""
    rows = text.split("\n")
    for line in err.splitlines():
        found = re.match(rf"{re.escape(str(path))}:(\d+):(\d+): (error|warning): ", line)
        assert found, line
        row, col = int(found[1]), int(found[2])
        assert 1 <= row <= len(rows) and 1 <= col <= len(rows[row - 1]) + 1, line


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_damaged_eaxml_keeps_the_exit_code_contract_through_to_text_and_roundtrip_check(
    tmp_path_factory, mm, data,
):
    """to-text on damaged EAXML, then roundtrip-check on the text it
    writes, with and without the config: exit 0 or 1, as every input is
    usable, no traceback, and every diagnostic at a real line:col of its
    input. The config's
    terminal patterns do not backtrack without end on any input; Python's
    ``re`` has no timeout, so a pattern that does is left out."""
    xml = damaged_eaxml(data, mm)
    folder = tmp_path_factory.getbasetemp()
    source, text_file = folder / "fuzzed.eaxml", folder / "fuzzed.eatxt"
    source.write_text(xml, encoding="utf-8")
    tool = ["--metamodel", METAMODEL]
    if data.draw(st.booleans(), label="config"):
        tool += ["--config", CONFIG]
    code, text, err = run_cli(["to-text", source, *tool])
    assert code in (0, 1), err
    assert_diagnostics_point_into(err, source, xml)
    if code == 0:
        text_file.write_text(text, encoding="utf-8")
        code, _, err = run_cli(["roundtrip-check", text_file, *tool])
        assert code in (0, 1), err
        assert_diagnostics_point_into(err, text_file, text)


def read_in_slices(xml, mm, size):
    """``from_eaxml`` with expat handed ``size`` characters at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eatxt.metamodel, "_SLICE", size)
        return from_eaxml(xml, mm)


def assert_reads_alike_in_slices(xml, mm, size=1):
    """The same tree, diagnostics and positions, read a slice of ``size``
    characters at a time as read by default."""
    root, diags = from_eaxml(xml, mm)
    sliced_root, sliced_diags = read_in_slices(xml, mm, size)
    assert (sliced_root is None) == (root is None)
    if root is not None:
        assert tree_record(sliced_root) == tree_record(root)
    assert sliced_diags == diags


_MALFORMED_EAXML = [
    '<?xml version="1.0" encoding="UTF-8"?>\n<EAXML version="2.1.12">\n'
    "<EA-PACKAGE><SHORT-NAME>P</SHORT-NAME>\n  <X>&bogus;</X>\n</EA-PACKAGE>\n</EAXML>\n",
    '<?xml version="1.0"?>\r\n<EAXML version="2.1.12">\r\n<EA-PACKAGE>\r\n'
    "<SHORT-NAME>Grüße\r\n</SHORT-NAME>\r\n<EA-DATATYPE>\r\n</EAXML>\r\n",
    "", "<", "<EAXML", "<EAXML>\n<EA-PACKAGE>\n", "\n\n<EAXML/>\n<EAXML/>",
    '<EAXML>\n<EA-PACKAGE a="1" a="2"/>\n</EAXML>\n', "<EAXML>&#0;</EAXML>",
]


def test_expat_reads_one_character_at_a_time_as_it_reads_by_default(g, mm):
    """Expat is handed the text in slices; where they end shows in no
    tree, diagnostic or position: not at a line break, a carriage return
    before one, a character beyond ASCII, a DTD or an error."""
    documents = [(GOLDEN / "wiper_system.eaxml").read_text(encoding="utf-8")]
    documents += [to_eaxml(root, mm) for root in fixture_trees(g, mm)]
    documents += [doc.replace("\n", "\r\n") for doc in documents[:2]]
    documents += _MALFORMED_EAXML
    xml = to_eaxml(random_model(6, mm, max_elements=20), mm)
    documents += [
        xml.replace("\n", "\n" + prologue, 1)[:at] + damage + xml[at:]
        for prologue in _PROLOGUES
        for damage in ("&nope;", "&e;", "&v;", "</EA-PACKAGE>", "x<b/>")
        for at in (len(xml) // 3, len(xml) // 2)
    ]
    for doc in documents:
        assert_reads_alike_in_slices(doc, mm)
    for doc in _MALFORMED_EAXML:
        assert from_eaxml(doc, mm)[1][-1].message.startswith("malformed XML: "), doc


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_expat_reads_damaged_xml_one_character_at_a_time_as_it_reads_by_default(data, mm):
    assert_reads_alike_in_slices(damaged_eaxml(data, mm), mm)


def test_a_document_of_several_slices_reads_as_one_whole(mm):
    """A document longer than the default slice reads as it reads when
    expat is handed all of it at once."""
    xml = to_eaxml(random_model(1, mm, max_elements=3000, fan_out=8), mm)
    assert len(xml) > 3 * eatxt.metamodel._SLICE
    assert_reads_alike_in_slices(xml, mm, size=len(xml))
    cut = xml[:len(xml) // 2]
    assert_reads_alike_in_slices(cut, mm, size=len(cut))


@pytest.mark.parametrize("prologue", _PROLOGUES, ids=["plain", "external-dtd", "entities"])
@pytest.mark.parametrize("damage", [
    "<NO-SUCH-TAG/>", "<EA-ELEMENT/>", "<EA-PACKAGEABLE-ELEMENT/>", "<FUNCTION-PORT/>",
    "<EA-PACKAGE/>", "x<b/>", "&nope;", "&e;", "</EA-PACKAGE>",
])
def test_reader_matches_the_reference_after_every_tag(damage, prologue, mm):
    # Seed 6 has packages, datatypes, functions, ports, types and comments.
    xml = to_eaxml(random_model(6, mm, max_elements=20), mm).replace("\n", "\n" + prologue, 1)
    for at in [m.end() for m in re.finditer(">", xml)]:
        assert_reads_like_reference(xml[:at] + damage + xml[at:], mm)


def test_an_external_dtd_subset_is_malformed_eaxml(mm, tmp_path, capsys):
    xml = to_eaxml(random_model(6, mm, max_elements=20), mm).replace(
        "\n", '\n<!DOCTYPE EAXML SYSTEM "eaxml.dtd">\n', 1,
    )
    assert from_eaxml(xml, mm) == (None, [Diagnostic(
        ERROR, "malformed XML: external DTD subset or parameter entity reference",
        Span(2, 24, 2, 24),
    )])
    path = tmp_path / "m.eaxml"
    path.write_text(xml, encoding="utf-8")
    assert main(["to-text", str(path), "--metamodel", str(METAMODEL)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"{path}:2:24: error: malformed XML: external DTD")


def test_malformed_xml_is_placed_at_the_character_expat_stops_at(mm, tmp_path, capsys):
    """Expat counts columns from 0; the diagnostic is 1-based, like the
    reader's warnings, and does not repeat expat's position."""
    source = (
        '<?xml version="1.0" encoding="UTF-8"?>\n<EAXML version="2.1.12">\n'
        "<EA-PACKAGE><SHORT-NAME>P</SHORT-NAME>\n  <X>&bogus;</X>\n</EA-PACKAGE>\n</EAXML>\n"
    )
    assert from_eaxml(source, mm) == (
        None, [Diagnostic(ERROR, "malformed XML: undefined entity", Span(4, 6, 4, 6))],
    )
    path = tmp_path / "bad.eaxml"
    path.write_text(source, encoding="utf-8")
    assert main(["to-text", str(path), "--metamodel", str(METAMODEL)]) == 1
    assert capsys.readouterr() == ("", f"{path}:4:6: error: malformed XML: undefined entity\n")


def test_unknown_tag_is_reported_at_its_own_line(mm):
    source = """\
<?xml version="1.0" encoding="UTF-8"?>
<EAXML version="2.1.12">
  <EA-PACKAGE>
    <SHORT-NAME>P</SHORT-NAME>
      <NO-SUCH-MEMBER>x</NO-SUCH-MEMBER>
    <ELEMENT>
      <NO-SUCH-CLASS/>
    </ELEMENT>
  </EA-PACKAGE>
</EAXML>
"""
    root, diags = from_eaxml(source, mm)
    assert root is not None
    assert [d.format("m.eaxml") for d in diags] == [
        "m.eaxml:5:7: warning: <NO-SUCH-MEMBER> is not a member of EAPackage; skipped",
        "m.eaxml:7:7: warning: unknown element tag <NO-SUCH-CLASS>; subtree skipped",
    ]


def test_structural_errors_point_at_their_tags(mm):
    two = '<EAXML version="2.1.12">\n<EA-PACKAGE/>\n  <EA-PACKAGE/>\n</EAXML>\n'
    _, diags = from_eaxml(two, mm)
    assert [(d.message, d.span.line, d.span.col) for d in diags] == [
        ("EAXML document must hold exactly one root element, found 2", 3, 3),
    ]
    _, diags = from_eaxml('\n<EAXML version="1">\n <EA-ELEMENT/></EAXML>', mm)
    assert [(d.span.line, d.span.col) for d in diags] == [(2, 1), (3, 2)]


def test_nesting_depth_is_not_bounded_by_recursion(mm):
    # 3000 nested packages: deeper than the interpreter's recursion limit.
    root = node = ModelElement("EAPackage", short_name="P0")
    for i in range(1, 3000):
        child = ModelElement("EAPackage", short_name=f"P{i}")
        node.children.append(("subPackage", child))
        node = child
    xml = to_eaxml(root, mm)
    assert xml.count("<EA-PACKAGE>") == 3000
    back, diags = from_eaxml(xml, mm)
    assert diags == []
    assert [el.short_name for el in back.iter_preorder()] == [f"P{i}" for i in range(3000)]
    assert [el.id for el in back.iter_preorder()] == list(range(1, 3001))



@pytest.mark.parametrize("root, message", [
    (ModelElement("Mystery"), "unknown class 'Mystery'"),
    (
        ModelElement("EAPackage", "P", attributes=[("element", "x")]),
        "'EAPackage' has no attribute 'element'",
    ),
    (
        ModelElement("EAPackage", "P", cross_refs=[CrossRef("category", QualifiedName(("X",)))]),
        "'EAPackage' has no cross-reference 'category'",
    ),
    (
        ModelElement("EAPackage", "P", children=[("category", ModelElement("EAPackage", "Q"))]),
        "'EAPackage' has no containment 'category'",
    ),
], ids=["class", "attribute", "cross-reference", "containment"])
def test_to_eaxml_rejects_a_tree_the_metamodel_cannot_hold(mm, root, message):
    with pytest.raises(SerializationError) as caught:
        to_eaxml(root, mm)
    assert str(caught.value) == message

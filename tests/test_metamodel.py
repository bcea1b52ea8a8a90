import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from eatxt.cli import main
from eatxt.diagnostics import MetamodelError
from eatxt.metamodel import (
    Attribute,
    Containment,
    CrossReference,
    Member,
    MetaClass,
    Metamodel,
    PrimitiveKind,
    _validate_and_index,
    load_metamodel,
)

from support import (
    ECORE_PROLOGUES, METAMODEL, mutated_ecores, reference_index, reference_load_metamodel,
)


def mini_package(body: str) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<ecore:EPackage xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"'
        ' xmlns:ecore="http://www.eclipse.org/emf/2002/Ecore" name="p">'
        f"{body}</ecore:EPackage>"
    )


def eclass(name, supertypes=(), features="", abstract=False):
    supers = " ".join(f"#//{s}" for s in supertypes)
    return (
        f'<eClassifiers xsi:type="ecore:EClass" name="{name}"'
        + (' abstract="true"' if abstract else "")
        + (f' eSuperTypes="{supers}"' if supers else "")
        + f">{features}</eClassifiers>"
    )


def attribute(name):
    return (
        f'<eStructuralFeatures xsi:type="ecore:EAttribute" name="{name}"'
        ' eType="#//Identifier"/>'
    )


NAME_SLOT = (
    '<eStructuralFeatures xsi:type="ecore:EAttribute" name="shortName"'
    ' eType="#//Identifier" lowerBound="1"/>'
)


CLASS_A = (
    '<eClassifiers xsi:type="ecore:EClass" name="A">'
    '<eStructuralFeatures xsi:type="ecore:EAttribute" name="shortName"'
    ' eType="#//Identifier" lowerBound="1"/></eClassifiers>'
)


def test_fixture_loads_with_expected_classes(mm):
    assert mm.root_class == "EAPackage"
    for name in (
        "EAPackage",
        "DesignFunctionType",
        "FunctionFlowPort",
        "FunctionConnector",
        "EADatatype",
        "Comment",
    ):
        assert name in mm.classes
    assert mm.classes["EAElement"].abstract
    assert not mm.classes["EAPackage"].abstract


def test_flatten_inherited_members_come_first(mm):
    names = [m.name for m in mm.flatten_members("EAPackage")]
    assert names == [
        "shortName",
        "category",
        "uuid",
        "name",
        "ownedComment",
        "subPackage",
        "element",
    ]


def test_member_kinds(mm):
    flow = {m.name: m for m in mm.flatten_members("FunctionFlowPort")}
    assert isinstance(flow["direction"].kind, Attribute)
    assert flow["direction"].kind.kind is PrimitiveKind.IDENTIFIER
    assert isinstance(flow["type"].kind, CrossReference)
    assert flow["type"].kind.target == "EADatatype"

    pkg = {m.name: m for m in mm.flatten_members("EAPackage")}
    assert isinstance(pkg["subPackage"].kind, Containment)
    assert pkg["subPackage"].upper is None
    assert pkg["uuid"].kind.kind is PrimitiveKind.STRING


def test_subtype_is_reflexive_and_transitive(mm):
    assert mm.is_subtype("EAPackage", "EAPackage")
    assert mm.is_subtype("FunctionFlowPort", "EAElement")
    assert mm.is_subtype("EADatatype", "EAPackageableElement")
    assert not mm.is_subtype("EAElement", "EADatatype")
    assert not mm.is_subtype("EAPackage", "EAPackageableElement")


def test_mandatory_members_exclude_the_name_slot(mm):
    assert [m.name for m in mm.mandatory_members("EAPackage")] == []
    assert [m.name for m in mm.mandatory_members("FunctionFlowPort")] == [
        "direction",
        "type",
    ]


def test_concrete_subclasses_in_declaration_order(mm):
    assert mm.concrete_subclasses("FunctionPort") == [
        "FunctionFlowPort",
        "FunctionClientServerPort",
    ]
    assert mm.concrete_subclasses("EAPackageableElement") == [
        "EADatatype",
        "DesignFunctionType",
    ]


@pytest.mark.parametrize("lookup", [
    lambda mm: mm.flatten_members("Mystery"),
    lambda mm: mm.member_of("Mystery", "shortName"),
], ids=["flatten_members", "member_of"])
def test_member_lookups_reject_an_unknown_class(mm, lookup):
    with pytest.raises(MetamodelError) as caught:
        lookup(mm)
    assert str(caught.value) == "unknown class 'Mystery'"


def test_duplicate_class_name_rejected():
    text = mini_package(CLASS_A + CLASS_A)
    with pytest.raises(MetamodelError, match="duplicate class name 'A'"):
        load_metamodel(text)


def test_dangling_supertype_rejected():
    text = mini_package(
        '<eClassifiers xsi:type="ecore:EClass" name="A" eSuperTypes="#//Ghost"/>'
    )
    with pytest.raises(MetamodelError, match="unknown class 'Ghost'"):
        load_metamodel(text)


def test_dangling_reference_target_rejected():
    text = mini_package(
        '<eClassifiers xsi:type="ecore:EClass" name="A">'
        '<eStructuralFeatures xsi:type="ecore:EReference" name="kids"'
        ' eType="#//Ghost" containment="true"/></eClassifiers>'
    )
    with pytest.raises(MetamodelError, match="'A.kids' targets unknown class"):
        load_metamodel(text)


def test_inheritance_cycle_reported_with_path():
    text = mini_package(
        '<eClassifiers xsi:type="ecore:EClass" name="A" eSuperTypes="#//B"/>'
        '<eClassifiers xsi:type="ecore:EClass" name="B" eSuperTypes="#//A"/>'
    )
    with pytest.raises(MetamodelError, match="inheritance cycle"):
        load_metamodel(text)


def test_unknown_datatype_rejected():
    text = mini_package(
        '<eClassifiers xsi:type="ecore:EClass" name="A">'
        '<eStructuralFeatures xsi:type="ecore:EAttribute" name="x"'
        ' eType="#//Blob"/></eClassifiers>'
    )
    with pytest.raises(MetamodelError, match="unknown attribute datatype 'Blob'"):
        load_metamodel(text)


def test_nested_packages_rejected():
    text = mini_package('<eSubpackages name="inner"/>')
    with pytest.raises(MetamodelError, match="nested packages"):
        load_metamodel(text)


def test_malformed_xml_reports_position():
    with pytest.raises(MetamodelError) as info:
        load_metamodel("<ecore:EPackage")
    assert str(info.value) == (
        "metamodel XML parse error at line 1, column 0: unclosed token: line 1, column 0"
    )


def test_missing_root_class_defaults_to_first_concrete():
    text = mini_package(
        '<eClassifiers xsi:type="ecore:EClass" name="Abs" abstract="true"/>' + CLASS_A
    )
    mm = load_metamodel(text)
    assert mm.root_class == "A"


def test_datatype_aliases_accepted():
    text = mini_package(
        '<eClassifiers xsi:type="ecore:EClass" name="A">'
        '<eStructuralFeatures xsi:type="ecore:EAttribute" name="a" eType="#//EString"/>'
        '<eStructuralFeatures xsi:type="ecore:EAttribute" name="b" eType="#//EBoolean"/>'
        '<eStructuralFeatures xsi:type="ecore:EAttribute" name="c" eType="#//EInt"/>'
        '<eStructuralFeatures xsi:type="ecore:EAttribute" name="d" eType="#//EFloat"/>'
        "</eClassifiers>"
    )
    mm = load_metamodel(text)
    kinds = [m.kind.kind for m in mm.classes["A"].members]
    assert kinds == [
        PrimitiveKind.STRING,
        PrimitiveKind.BOOLEAN,
        PrimitiveKind.NUMERICAL,
        PrimitiveKind.NUMERICAL,
    ]


def test_only_xsi_type_is_a_kind_marker():
    # An unprefixed ``type`` is an ordinary attribute, not a kind marker.
    mm = load_metamodel(mini_package(
        '<eClassifiers name="A" type="EDataType">' + NAME_SLOT + "</eClassifiers>"
    ))
    assert list(mm.classes) == ["A"] and mm.root_class == "A"
    mm = load_metamodel(mini_package(
        '<eClassifiers name="T" type="EClass" xsi:type="ecore:EDataType"/>' + CLASS_A
    ))
    assert list(mm.classes) == ["A"]
    with pytest.raises(MetamodelError, match=r"^feature 'A\.x' has no xsi:type$"):
        load_metamodel(mini_package(eclass("A", features=feature(
            'type="ecore:EAttribute" name="x" eType="#//EString"'
        ))))


def test_loading_from_path_object():
    mm = load_metamodel(METAMODEL)
    assert "EAPackage" in mm.classes


def test_class_declaring_two_members_of_one_name_rejected(tmp_path, capsys):
    text = mini_package(eclass(
        "Pkg", features=attribute("item")
        + '<eStructuralFeatures xsi:type="ecore:EReference" name="item"'
        ' eType="#//Pkg" containment="true"/>',
    ))
    message = "class 'Pkg' declares two members named 'item'"
    with pytest.raises(MetamodelError, match=message):
        load_metamodel(text)
    ecore, model = tmp_path / "mm.ecore", tmp_path / "m.eatxt"
    ecore.write_text(text, encoding="utf-8")
    model.write_text("Pkg\n", encoding="utf-8")
    assert main(["check", str(model), "--metamodel", str(ecore)]) == 2
    assert message in capsys.readouterr().err


def test_diamond_inherits_its_top_member_once():
    mm = load_metamodel(mini_package(
        eclass("A", features=NAME_SLOT, abstract=True)
        + eclass("B", ["A"], attribute("x"), abstract=True)
        + eclass("C", ["A"], attribute("y"), abstract=True)
        + eclass("D", ["B", "C"], attribute("z"))
    ))
    assert [m.name for m in mm.flatten_members("D")] == ["shortName", "x", "y", "z"]
    assert mm.flatten_members("D")[0] is mm.classes["A"].members[0]
    assert all(mm.is_subtype("D", c) for c in "ABCD")
    assert not mm.is_subtype("B", "C") and not mm.is_subtype("A", "D")


def test_two_inherited_declarations_of_one_name_rejected():
    text = mini_package(
        eclass("B", features=attribute("item"), abstract=True)
        + eclass("C", features=attribute("item"), abstract=True)
        + eclass("D", ["B", "C"])
    )
    message = "class 'D' inherits two members named 'item' (declared by 'B' and 'C')"
    with pytest.raises(MetamodelError, match=re.escape(message)):
        load_metamodel(text)


def test_deep_supertype_chain_runs_through_the_cli(tmp_path, capsys):
    depth = 5000
    classes = [eclass("K0", features=NAME_SLOT, abstract=True)]
    classes += [
        eclass(f"K{i}", [f"K{i - 1}"], abstract=i < depth - 1) for i in range(1, depth)
    ]
    ecore, model = tmp_path / "chain.ecore", tmp_path / "m.eatxt"
    ecore.write_text(mini_package("".join(classes)), encoding="utf-8")
    model.write_text(f"K{depth - 1} {{ shortName bottom }}\n", encoding="utf-8")
    assert main(["check", str(model), "--metamodel", str(ecore)]) == 0
    assert capsys.readouterr().err == ""
    mm = load_metamodel(ecore)
    assert mm.is_subtype(f"K{depth - 1}", "K0") and not mm.is_subtype("K0", "K1")
    assert [m.name for m in mm.flatten_members(f"K{depth - 1}")] == ["shortName"]


def test_stacked_diamonds_load_in_linear_time():
    levels = 30
    classes = [eclass("D0", features=NAME_SLOT, abstract=True)]
    for level in range(1, levels + 1):
        below = f"D{level - 1}"
        classes += [
            eclass(f"L{level}", [below], attribute(f"l{level}"), abstract=True),
            eclass(f"R{level}", [below], attribute(f"r{level}"), abstract=True),
            eclass(f"D{level}", [f"L{level}", f"R{level}"]),
        ]
    start = time.perf_counter()
    mm = load_metamodel(mini_package("".join(classes)))
    assert time.perf_counter() - start < 1.0
    names = [m.name for m in mm.flatten_members(f"D{levels}")]
    assert names[0] == "shortName" and len(names) == 1 + 2 * levels


# --- the index against its recursive reference -------------------------------

CLASS_NAMES = [f"C{i}" for i in range(8)]


@st.composite
def class_tables(draw):
    """Up to 8 classes with random supertypes (cycles and an unknown name
    included, rarely) and members named from a small pool, so that
    inherited names overlap. Names are unique within each class."""
    names = CLASS_NAMES[: draw(st.integers(1, len(CLASS_NAMES)))]
    classes = {}
    for index, name in enumerate(names):
        # Earlier classes only, so that most tables have no cycle; rarely
        # any class or the unknown name.
        wide = names + ["Ghost"] if draw(st.integers(0, 9)) == 0 else []
        pool = names[:index] + wide
        supertypes = draw(st.lists(st.sampled_from(pool), max_size=3)) if pool else []
        members = []
        for member in draw(st.lists(st.sampled_from("abcd"), unique=True, max_size=3)):
            target = draw(st.sampled_from(wide or names))
            kind = draw(st.sampled_from([
                Attribute(PrimitiveKind.IDENTIFIER), Containment(target), CrossReference(target),
            ]))
            members.append(Member(member, kind))
        classes[name] = MetaClass(name, supertypes=supertypes, members=members)
    return classes


def closure(classes, name):
    """``name`` and every class it inherits from."""
    seen, todo = {name}, [name]
    while todo:
        for sup in classes[todo.pop()].supertypes:
            if sup not in seen:
                seen.add(sup)
                todo.append(sup)
    return seen


INHERITS_TWO = re.compile(
    r"class '(\w+)' inherits two members named '(\w+)' "
    r"\(declared by '(\w+)' and '(\w+)'\)"
)


@settings(max_examples=300, deadline=None)
@given(classes=class_tables())
def test_index_matches_the_recursive_reference(classes):
    try:
        ancestors, flattened = reference_index(classes)
        expected = None
    except MetamodelError as exc:
        expected = str(exc)
    mm = Metamodel(classes, root_class="")
    try:
        _validate_and_index(mm)
        got = None
    except MetamodelError as exc:
        got = str(exc)

    if expected is not None and INHERITS_TWO.match(expected):
        # The index may meet the clash in another class that inherits
        # both declarations.
        m = INHERITS_TWO.match(got or "")
        assert m is not None, (expected, got)
        cls, member, first, second = m.groups()
        assert first != second
        assert {first, second} <= closure(classes, cls)
        for owner in (first, second):
            assert member in [x.name for x in classes[owner].members]
        return
    assert got == expected
    if got is not None:
        return
    everything = [*classes, "Ghost"]
    for sub in everything:
        for sup in everything:
            reflexive = sub == sup and sub in classes
            assert mm.is_subtype(sub, sup) == (reflexive or sup in ancestors.get(sub, ())), (sub, sup)
    for name, members in flattened.items():
        assert len(mm.flatten_members(name)) == len(members)
        assert all(a is b for a, b in zip(mm.flatten_members(name), members))
        by_name = {m.name: m for m in members}
        for member in "abcdx":
            assert mm.member_of(name, member) is by_name.get(member)


# --- the expat reader against the frozen ElementTree reader -------------------


def load_result(load, text):
    """The class tables and root class that ``load`` reads, or its error."""
    try:
        mm = load(text)
    except MetamodelError as exc:
        return str(exc)
    tables = [(c.name, c.abstract, c.supertypes, c.members) for c in mm.classes.values()]
    return mm.root_class, tables


def assert_loads_like_reference(text):
    assert load_result(load_metamodel, text) == load_result(reference_load_metamodel, text)


def feature(attrs):
    return f"<eStructuralFeatures {attrs}/>"


# The inputs of the tests above, then one for each content check they
# leave out and for XML that only a reader's rules decide.
READER_INPUTS = [
    METAMODEL.read_text(encoding="utf-8"),
    mini_package(CLASS_A + CLASS_A),
    mini_package('<eClassifiers xsi:type="ecore:EClass" name="A" eSuperTypes="#//Ghost"/>'),
    mini_package(eclass("A", features=feature(
        'xsi:type="ecore:EReference" name="kids" eType="#//Ghost" containment="true"'
    ))),
    mini_package(eclass("A", ["B"]) + eclass("B", ["A"])),
    mini_package(eclass("A", features=feature(
        'xsi:type="ecore:EAttribute" name="x" eType="#//Blob"'
    ))),
    mini_package('<eSubpackages name="inner"/>'),
    "<ecore:EPackage",
    mini_package(eclass("Abs", abstract=True) + CLASS_A),
    mini_package(eclass("A", features="".join(
        feature(f'xsi:type="ecore:EAttribute" name="{n}" eType="#//{t}"')
        for n, t in zip("abcd", ["EString", "EBoolean", "EInt", "EFloat"])
    ))),
    mini_package(eclass("Pkg", features=attribute("item") + feature(
        'xsi:type="ecore:EReference" name="item" eType="#//Pkg" containment="true"'
    ))),
    mini_package(
        eclass("A", features=NAME_SLOT, abstract=True)
        + eclass("B", ["A"], attribute("x"), abstract=True)
        + eclass("C", ["A"], attribute("y"), abstract=True)
        + eclass("D", ["B", "C"], attribute("z"))
    ),
    mini_package(
        eclass("B", features=attribute("item"), abstract=True)
        + eclass("C", features=attribute("item"), abstract=True)
        + eclass("D", ["B", "C"])
    ),
    mini_package("".join(
        [eclass("K0", features=NAME_SLOT, abstract=True)]
        + [eclass(f"K{i}", [f"K{i - 1}"], abstract=i < 299) for i in range(1, 300)]
    )),
    mini_package(eclass("A", features=feature('xsi:type="ecore:EAttribute"'))),
    mini_package(eclass("A", features=feature('xsi:type="ecore:EAttribute" name="x" lowerBound="2"'))),
    mini_package(eclass("A", features=feature('xsi:type="ecore:EAttribute" name="x" upperBound="y"'))),
    mini_package(eclass("A", features=feature('xsi:type="ecore:EOperation" name="x"'))),
    mini_package(eclass("A", features=feature('xsi:type="ecore:EReference" name="x"'))),
    mini_package(eclass("A", features=feature('name="x" eType="#//EString"'))),
    mini_package('<eClassifiers xsi:type="ecore:EEnum" name="E"/>'),
    mini_package('<eClassifiers xsi:type="ecore:EDataType" name="T"/>' + CLASS_A),
    mini_package('<eClassifiers xsi:type="ecore:EClass"/>'),
    mini_package("<eAnnotations/>"),
    mini_package(eclass("Abs", abstract=True)),
    mini_package(CLASS_A).replace('name="p"', 'name="p" rootClass="Ghost"'),
    mini_package(eclass("A", abstract=True)).replace('name="p"', 'name="p" rootClass="A"'),
    mini_package(CLASS_A).replace('name="p"', 'name="p" rootClass="A"'),
    '<EClass name="A"/>',
    '<e:EPackage xmlns:e="urn:e"><eClassifiers name="A" type="EClass"/></e:EPackage>',
    '<EPackage xmlns="urn:x"><eClassifiers name="A" abstract="true"/><eClassifiers name="B"/></EPackage>',
    '<EPackage><eClassifiers t:type="EDataType" xmlns:t="urn:t" name="A"/></EPackage>',
    '<!DOCTYPE EPackage [<!ATTLIST eClassifiers abstract CDATA "true">]>'
    '<EPackage><eClassifiers name="A"/><eClassifiers name="B" abstract="false"/></EPackage>',
    '<!DOCTYPE EPackage [<!ENTITY v "B">]><EPackage><eClassifiers name="&v;"/></EPackage>',
    '<!DOCTYPE EPackage SYSTEM "x"><EPackage><eClassifiers name="A&x;"/></EPackage>',
    '<!DOCTYPE EPackage [<!ENTITY e SYSTEM "x">]><EPackage><eClassifiers name="&e;"/></EPackage>',
    "\ufeff<EPackage><!-- c --><?pi?><eClassifiers name='A'><![CDATA[x]]></eClassifiers></EPackage>",
    "<EPackage><eClassifiers name='A'/></EPackage><EPackage/>",
    "<EPackage/>junk", "", "<EPackage><x:y/></EPackage>",
]


def test_reader_matches_the_reference_on_fixed_inputs():
    for text in READER_INPUTS:
        assert_loads_like_reference(text)


@pytest.mark.parametrize("prologue,at", [
    ('<!DOCTYPE EPackage SYSTEM "x">\n', (1, 26)),
    ("<!DOCTYPE EPackage PUBLIC 'p' 'x' [<!ENTITY v 'B'>]>\n", (1, 30)),
    ('<!DOCTYPE EPackage [<!ENTITY % e SYSTEM "x"> %e;]>\n', (1, 45)),
    ('<!DOCTYPE EPackage [%e;]>\n', (1, 20)),
])
def test_a_dtd_that_may_leave_entities_undeclared_is_an_error(prologue, at):
    # Expat used to take &x; for a skipped entity and drop it from the
    # attribute value without a word, so that this loaded class AB.
    text = prologue + '<EPackage><eClassifiers name="A&x;B"/></EPackage>'
    with pytest.raises(MetamodelError) as error:
        load_metamodel(text)
    line, col = at
    assert str(error.value) == (
        f"metamodel XML parse error at line {line}, column {col}: external DTD "
        f"subset or parameter entity reference: line {line}, column {col}"
    )
    # A standalone document has all its entities declared in the internal
    # subset, so the external one may stay unread.
    standalone = '<?xml version="1.0" standalone="yes"?>' + text
    with pytest.raises(MetamodelError, match="undefined entity: line 2, column 10"):
        load_metamodel(standalone)
    assert load_metamodel(standalone.replace("&x;", "")).classes.keys() == {"AB"}


@pytest.mark.parametrize("prologue", ECORE_PROLOGUES, ids=["plain", "external-dtd", "internal-entity", "external-entity"])
@pytest.mark.parametrize("reference", ["&x;", "&v;", "&e;"])
def test_reader_matches_the_reference_on_entities_after_every_tag(prologue, reference):
    header, _, body = METAMODEL.read_text(encoding="utf-8").partition("\n")
    text = header + "\n" + prologue + body
    for at in [m.end() for m in re.finditer(">", text)]:
        assert_loads_like_reference(text[:at] + reference + text[at:])


@settings(max_examples=300, deadline=None)
@given(text=mutated_ecores())
def test_reader_matches_the_reference_on_mutated_metamodels(text):
    assert_loads_like_reference(text)

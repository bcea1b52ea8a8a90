import importlib.util
from pathlib import Path

from eatxt.cli import main
from eatxt.diagnostics import ERROR, NO_SPAN, Diagnostic, Span
from eatxt.model import (
    CrossRef,
    ModelElement,
    QualifiedName,
    build_cache,
    lookup_first_fitting,
    parse_cache,
    resolve,
)
from eatxt.textsyntax import Parser, format_model, parse_document, parse_model
from eatxt.xmlio import from_eaxml, to_eaxml

from support import (
    CONFIG, METAMODEL, MODELS, assign_preorder_ids, naive_cache, random_model, same_structure,
)


def load(text, g, mm):
    root, diags = parse_model(text, g, mm)
    assert not [d for d in diags if d.severity == ERROR]
    return root


WIRED = """\
EAPackage P
{
    EADatatype T
    EAPackage Sub
    {
        EADatatype U
    }
    DesignFunctionType F
    {
        FunctionFlowPort a
        {
            direction in
            type P.T
        }
        FunctionFlowPort b
        {
            direction out
            type P.Sub.U
        }
    }
}
"""


def test_qualified_name_parse_and_print():
    qn = QualifiedName(tuple("A.B.C".split(".")))
    assert qn.segments == ("A", "B", "C")
    assert qn.dotted == "A.B.C"
    assert str(qn) == "A.B.C"


def test_resolve_links_references(g, mm):
    root = load(WIRED, g, mm)
    diags = resolve(root, mm)
    assert diags == []
    fn = next(el for el in root.iter_preorder() if el.short_name == "F")
    a, b = (child for _, child in fn.children)
    targets = {el.short_name: el.id for el in root.iter_preorder()}
    assert a.cross_refs[0].resolved_id == targets["T"]
    assert b.cross_refs[0].resolved_id == targets["U"]


def test_resolve_is_idempotent(g, mm):
    root = load(WIRED, g, mm)
    first = resolve(root, mm)
    second = resolve(root, mm)
    assert first == second == []


def test_unresolved_reference_reported(g, mm):
    text = WIRED.replace("type P.T", "type P.Missing")
    root = load(text, g, mm)
    diags = resolve(root, mm)
    assert any("unresolved reference" in d.message for d in diags)


def test_type_mismatch_reported(g, mm):
    # P.F is a DesignFunctionType, not an EADatatype.
    text = WIRED.replace("type P.Sub.U", "type P.F")
    root = load(text, g, mm)
    diags = resolve(root, mm)
    assert any(
        "expects a EADatatype" in d.message and "DesignFunctionType" in d.message
        for d in diags
    )


def test_duplicate_fqn_reported(g, mm):
    text = "EAPackage P\n{\n    EADatatype T\n    EADatatype T\n}\n"
    root = load(text, g, mm)
    diags = resolve(root, mm)
    assert any("duplicate" in d.message for d in diags)


def test_reference_to_duplicate_fqn_is_ambiguous(g, mm):
    text = (
        "EAPackage P\n{\n"
        "    EADatatype T\n    EADatatype T\n"
        "    DesignFunctionType F\n    {\n"
        "        FunctionFlowPort a\n        {\n"
        "            direction in\n            type P.T\n        }\n"
        "    }\n"
        "}\n"
    )
    root = load(text, g, mm)
    diags = resolve(root, mm)
    assert any("ambiguous" in d.message for d in diags)


# Every kind of resolve diagnostic, and two qualified names split over two
# lines with a comment between their segments.
FAULTY = """\
EAPackage P
{
    EADatatype T
    EAPackage Sub
    {
        EADatatype U
    }
    EADatatype T
    DesignFunctionType F
    {
        FunctionFlowPort a
        {
            direction in
            type P.Missing
        }
        FunctionFlowPort b
        {
            direction out
            type P.F
        }
        FunctionFlowPort c
        {
            direction in
            type P.T
        }
        FunctionFlowPort d
        {
            direction in
            type P. // the package
                Sub.Nope
        }
        FunctionFlowPort e
        {
            direction out
            type P.Sub // its subpackage
                .U
        }
    }
}
"""

# What resolve reports on FAULTY, each at the second element of a clash
# or at its reference, from the first name token to the end of the last.
FAULTY_DIAGNOSTICS = [
    Diagnostic(ERROR, "duplicate qualified name 'P.T' (id 2, id 5)", Span(8, 5, 8, 15)),
    Diagnostic(
        ERROR, "unresolved reference 'P.Missing' (FunctionFlowPort.type)", Span(14, 18, 14, 27),
    ),
    Diagnostic(
        ERROR,
        "reference 'P.F' (FunctionFlowPort.type) expects a EADatatype, found DesignFunctionType",
        Span(19, 18, 19, 21),
    ),
    Diagnostic(
        ERROR, "ambiguous reference 'P.T' (FunctionFlowPort.type): id 2, id 5",
        Span(24, 18, 24, 21),
    ),
    Diagnostic(
        ERROR, "unresolved reference 'P.Sub.Nope' (FunctionFlowPort.type)", Span(29, 18, 30, 25),
    ),
]


def test_resolve_positions_every_diagnostic(g, mm):
    parse = parse_document(FAULTY, g, mm)
    assert parse.diagnostics == []
    root = parse.root
    assert resolve(root, mm, parse.lines) == FAULTY_DIAGNOSTICS
    assert resolve(root, mm) == [d._replace(span=NO_SPAN) for d in FAULTY_DIAGNOSTICS]
    e = next(el for el in root.iter_preorder() if el.short_name == "e")
    assert e.cross_refs[0].resolved_id == 4  # P.Sub.U, across two lines


def test_resolve_positions_through_check(tmp_path, capsys):
    path = tmp_path / "faulty.eatxt"
    path.write_text(FAULTY, encoding="utf-8")
    code = main(["check", str(path), "--metamodel", str(METAMODEL), "--config", str(CONFIG)])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert out.splitlines() == [d.format(str(path)) for d in FAULTY_DIAGNOSTICS]


def test_resolve_has_no_positions_on_a_tree_read_from_eaxml(g, mm):
    root, diags = from_eaxml(to_eaxml(load(FAULTY, g, mm), mm), mm)
    assert diags == []
    assert resolve(root, mm) == [d._replace(span=NO_SPAN) for d in FAULTY_DIAGNOSTICS]


def test_cache_matches_naive_oracle_on_corpus(g, mm):
    for path in MODELS:
        root = load(path.read_text(encoding="utf-8"), g, mm)
        assert build_cache(root, mm).by_class == naive_cache(root, mm), path.name


def test_cache_matches_naive_oracle_on_random_models(mm):
    for seed in range(60):
        root = random_model(seed, mm, max_elements=45)
        assert build_cache(root, mm).by_class == naive_cache(root, mm), seed


def test_cache_entries_are_in_document_order(g, mm):
    root = load(WIRED, g, mm)
    cache = build_cache(root, mm)
    dts = [qn.dotted for qn, _ in cache.by_class["EADatatype"]]
    assert dts == ["P.T", "P.Sub.U"]


def test_cache_fans_out_to_supertypes(g, mm):
    root = load(WIRED, g, mm)
    cache = build_cache(root, mm)
    names = [qn.dotted for qn, _ in cache.by_class["EAPackageableElement"]]
    assert names == ["P.T", "P.Sub.U", "P.F"]
    assert "P.Sub" not in names  # packages are not packageable elements


def test_lookup_first_fitting(g, mm):
    root = load(WIRED, g, mm)
    cache = build_cache(root, mm)
    assert lookup_first_fitting(cache, "EADatatype").dotted == "P.T"
    assert lookup_first_fitting(cache, "FunctionConnector") is None


def test_parse_cache_finds_what_the_full_cache_finds(g, mm):
    """Lookups in any order, including a class the metamodel lacks, give
    the full cache's first entry, over a finished parse and over one the
    lookups pull on; the walk resumes where it stopped."""
    texts = [path.read_text(encoding="utf-8") for path in MODELS]
    texts += [format_model(random_model(seed, mm, max_elements=45), g) for seed in range(30)]
    classes = list(mm.classes) + ["Ghost"]
    for n, text in enumerate(texts):
        full = build_cache(load(text, g, mm), mm)
        pulled = Parser(text, g, mm)
        pulled.step()
        for parse in (parse_document(text, g, mm), pulled):
            cache = parse_cache(parse, mm)
            for cls in classes[n % len(classes):] + classes[: n % len(classes)]:
                assert lookup_first_fitting(cache, cls) == lookup_first_fitting(full, cls), (n, cls)
            assert cache.by_class == full.by_class
    assert lookup_first_fitting(parse_cache(parse_document("", g, mm), mm), "EADatatype") is None


def test_same_structure_ignores_ids_and_spans(g, mm):
    a = load(WIRED, g, mm)
    b = load(WIRED, g, mm)
    assert same_structure(a, b)


def test_same_structure_detects_changed_attribute(g, mm):
    a = load(WIRED, g, mm)
    b = load(WIRED.replace("direction in", "direction out"), g, mm)
    assert not same_structure(a, b)


def test_same_structure_detects_reordered_children(g, mm):
    a = load("EAPackage P\n{\n    EADatatype A\n    EADatatype B\n}\n", g, mm)
    b = load("EAPackage P\n{\n    EADatatype B\n    EADatatype A\n}\n", g, mm)
    assert not same_structure(a, b)


def deep_chain(depth):
    """A chain of packages ``depth`` elements deep, built without the
    parser, whose innermost port references a datatype in the root."""
    root = ModelElement("EAPackage", "P1")
    root.children.append(("element", ModelElement("EADatatype", "T")))
    node = root
    for i in range(2, depth - 1):
        child = ModelElement("EAPackage", f"P{i}")
        node.children.append(("subPackage", child))
        node = child
    function = ModelElement("DesignFunctionType", "F")
    node.children.append(("element", function))
    port = ModelElement(
        "FunctionFlowPort", "x", attributes=[("direction", "in")],
        cross_refs=[CrossRef("type", QualifiedName(("P1", "T")))],
    )
    function.children.append(("port", port))
    assign_preorder_ids(root)
    return root, port


def test_resolve_and_cache_have_no_depth_limit(mm):
    root, port = deep_chain(5000)
    assert resolve(root, mm) == []
    assert port.cross_refs[0].resolved_id == 2
    assert build_cache(root, mm).by_class == naive_cache(root, mm)


def test_model_constructors_the_depth_sweep_uses(g, mm):
    """perfbench/depth.py builds its trees with ModelElement(cls, name,
    attributes=..., cross_refs=...), CrossRef(member, QualifiedName(...))
    and reads .segments and .dotted; its checks hold on a short chain."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "depth.py"
    spec = importlib.util.spec_from_file_location("perfbench_depth", path)
    depth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(depth)

    qn = QualifiedName(("P1", "T"))
    assert qn.segments == ("P1", "T") and qn.dotted == "P1.T" and str(qn) == "P1.T"
    root, port = depth.chain_tree(50)
    assert port.attributes == [("direction", "in")]
    assert port.cross_refs[0].member == "type" and port.cross_refs[0].target == qn
    assert resolve(root, mm) == [] and port.cross_refs[0].resolved_id == 2
    found = lookup_first_fitting(build_cache(root, mm), "FunctionFlowPort")
    assert found.segments[-1] == "x" and len(found.segments) == 50
    assert format_model(root, g) == depth.chain_text(50)
    assert to_eaxml(root, mm) == depth.chain_xml(50)

"""Release gate: the eight behaviour guarantees the toolchain ships with.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and fails
loudly otherwise. Oracles here are frozen literals and brute-force checks,
independent of the implementation they judge.
"""

import random
import re
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager

from eatxt.assist import (
    KEYWORD,
    TEMPLATE,
    build_template,
    complete,
    context_at,
    locate_context,
)
from eatxt.cli import main
from eatxt.diagnostics import ERROR
from eatxt.grammar import emit_grammar, generate_grammar
from eatxt.model import ModelElement, build_cache
from eatxt.textsyntax import format_model, lex, parse_document, parse_model
from eatxt.xmlio import XmlNameMap, from_eaxml, to_eaxml, to_tag

from support import (
    CONFIG,
    METAMODEL,
    MODELS,
    assign_preorder_ids,
    fill_placeholders,
    naive_cache,
    random_model,
)

WIPER = MODELS[0].parent / "wiper_system.eatxt"


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"FAIL: criterion {number} {label}")
        raise
    print(f"PASS: criterion {number} {label}")


def errors_of(diags):
    return [d for d in diags if d.severity == ERROR]


# -- 1. generated grammar matches the frozen reference rule -------------------

REFERENCE_RULE = """
EAPackage returns EAPackage:
    'EAPackage'
    '{'
        'shortName' shortName=Identifier
        ('category' category=Identifier)?
        ('uuid' uuid=String0)?
        ('name' name=String0)?
        ('ownedComment' '{' ownedComment+=Comment ( "," ownedComment+=Comment)* '}' )?
        ('subPackage' '{' subPackage+=EAPackage ( "," subPackage+=EAPackage)* '}' )?
        ('element' '{' element+=EAPackageableElement ( "," element+=EAPackageableElement)* '}' )?
    '}';
"""

TOKEN = re.compile(r"'[^']*'|\"[^\"]*\"|[A-Za-z_][A-Za-z_0-9]*|\S")


def test_criterion_1_golden_grammar(mm):
    with criterion(1, "generated EAPackage rule matches the reference"):
        started = time.perf_counter()
        text = emit_grammar(generate_grammar(mm))
        elapsed = time.perf_counter() - started
        block = next(
            b for b in text.split("\n\n") if b.startswith("EAPackage returns")
        )
        assert TOKEN.findall(block) == TOKEN.findall(REFERENCE_RULE)
        assert elapsed < 1.0, f"grammar generation took {elapsed:.2f}s"


# -- 2. adaptation lets a bare one-liner parse, container braces survive ------


def test_criterion_2_adaptation_behavior(g, mm):
    with criterion(2, "adapted grammar parses a braceless one-liner"):
        root, diags = parse_model("EAPackage DesignPkg", g, mm)
        assert root is not None and diags == []
        assert root.class_name == "EAPackage"
        assert root.short_name == "DesignPkg"

        rule_blocks = [
            b
            for b in emit_grammar(g).split("\n\n")
            if b and "returns" in b.splitlines()[0]
        ]
        assert len(rule_blocks) == 8
        for block in rule_blocks:
            assert "'{'" in block and "'}'" in block, block.splitlines()[0]


# -- 3. terminal patterns agree with standalone oracles -----------------------

NUMERICAL_ORACLE = re.compile(
    r"0b[01]+|0o[0-7]+|0x[0-9A-Fa-f]+|[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?"
)
UUID_ORACLE = re.compile(
    r"[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}"
)


def test_criterion_3_terminal_suite(g):
    with criterion(3, "numeric and UUID terminals behave as specified"):
        for sample in ("0b101", "0o17", "42", "-3.5e2", "0xFF"):
            assert NUMERICAL_ORACLE.fullmatch(sample), sample
            tokens, diags = lex(sample, g.terminal_patterns())
            assert diags == [] and len(tokens) == 1, sample
            assert tokens.kinds[0] == "Numerical", sample

        for sample in ("0b2", "--1"):
            assert not NUMERICAL_ORACLE.fullmatch(sample), sample
            tokens, diags = lex(sample, g.terminal_patterns())
            single = len(tokens) == 1 and not diags
            assert not (single and tokens.kinds[0] == "Numerical"), sample

        uuid = "123e4567-e89b-12d3-a456-426614174000"
        digit_uuid = "12345678-1234-1234-1234-123456789012"
        for sample in (uuid, digit_uuid):
            assert UUID_ORACLE.fullmatch(sample), sample
            tokens, diags = lex(sample, g.terminal_patterns())
            assert diags == [] and len(tokens) == 1, sample
            assert tokens.kinds[0] == "UUID", sample


# -- 4. text -> model -> XML -> model -> text is the identity -----------------


def shuffled_copy(el, rng):
    clone = ModelElement(
        class_name=el.class_name,
        short_name=el.short_name,
        attributes=list(el.attributes),
        cross_refs=list(el.cross_refs),
        children=[(m, shuffled_copy(c, rng)) for m, c in el.children],
    )
    rng.shuffle(clone.children)
    return clone


def roundtrip(text, g, mm):
    root, diags = parse_model(text, g, mm)
    assert root is not None and not errors_of(diags), text[:80]
    recovered, xml_diags = from_eaxml(to_eaxml(root, mm), mm)
    assert recovered is not None and not errors_of(xml_diags)
    return format_model(recovered, g)


def test_criterion_4_roundtrip(g, mm):
    with criterion(4, "XML round trip reproduces the text byte for byte"):
        started = time.perf_counter()

        assert len(MODELS) >= 10
        for path in MODELS:
            text = path.read_text(encoding="utf-8")
            assert roundtrip(text, g, mm) == text, path.name

        for seed in range(500):
            tree = random_model(seed, mm, max_elements=20 + seed % 181)
            assert sum(1 for _ in tree.iter_preorder()) <= 200
            text = format_model(tree, g)
            assert roundtrip(text, g, mm) == text, seed

        for seed in range(30):
            rng = random.Random(1000 + seed)
            tree = random_model(seed, mm, max_elements=60)
            permuted = shuffled_copy(tree, rng)
            assign_preorder_ids(permuted)
            text = format_model(permuted, g)
            assert roundtrip(text, g, mm) == text, seed

        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"round trips took {elapsed:.1f}s"


# -- 5. empty attributes in the XML never reach the text ----------------------


def inject_empty_attribute(xml_text, mm, rng):
    """Add one empty attribute element under a random model element."""
    names = XmlNameMap(mm)
    doc = ET.fromstring(xml_text)
    nodes = [n for n in doc.iter() if n.tag in names.class_by_tag]
    rng.shuffle(nodes)
    for node in nodes:
        cls = names.class_by_tag[node.tag]
        present = {child.tag for child in node}
        options = [
            m
            for m in mm.flatten_members(cls)
            if m.name != "shortName"
            and type(m.kind).__name__ == "Attribute"
            and to_tag(m.name) not in present
        ]
        if not options:
            continue
        member = rng.choice(options)
        empty = ET.Element(to_tag(member.name))
        if rng.random() < 0.5:
            empty.text = ""
        node.insert(rng.randrange(len(list(node)) + 1), empty)
        return ET.tostring(doc, encoding="unicode")
    raise AssertionError("no injection slot found")


def test_criterion_5_empty_attributes_are_dropped(g, mm):
    with criterion(5, "empty XML attributes vanish from the converted text"):
        done = 0
        seed = 0
        while done < 50:
            tree = random_model(seed, mm, max_elements=25)
            seed += 1
            plain_xml = to_eaxml(tree, mm)
            baseline_root, diags = from_eaxml(plain_xml, mm)
            assert not errors_of(diags)
            baseline = format_model(baseline_root, g)

            rng = random.Random(9000 + seed)
            injected = inject_empty_attribute(plain_xml, mm, rng)
            root, diags = from_eaxml(injected, mm)
            assert root is not None and not errors_of(diags)
            assert format_model(root, g) == baseline, seed
            done += 1


# -- 6. completion: the wiper cursor scenario plus whole-file properties ------


def contexts_of(text, g, mm):
    doc = parse_document(text, g, mm)
    seen = {}
    for offset in range(len(text) + 1):
        ctx = context_at(doc, offset)
        if ctx is not None and ctx not in seen:
            seen[ctx] = offset
    return seen


def insertion_point(text, ctx, offset):
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


def test_criterion_6_completion(g, mm):
    with criterion(6, "completion proposals are correct, sound and complete"):
        text = WIPER.read_text(encoding="utf-8")
        root, _ = parse_model(text, g, mm)
        cache = build_cache(root, mm)

        ctx = locate_context(text, 17, 13, g, mm)
        assert ctx.kind == "element" and ctx.class_name == "DesignFunctionType"
        props = complete(ctx, g, mm, cache)
        assert "FunctionFlowPort" in [p.label for p in props if p.kind == KEYWORD]
        flow = next(
            p for p in props if p.kind == TEMPLATE and p.label == "FunctionFlowPort"
        )
        body = flow.insert_text.splitlines()
        assert body[0] == "FunctionFlowPort ${1:name}"
        members = [line.strip().split()[0] for line in body[2:-1]]
        assert members == ["direction", "type"]
        assert "type WiperSystem.Datatypes.Boolean" in flow.insert_text

        for path in MODELS:
            file_text = path.read_text(encoding="utf-8")
            file_root, diags = parse_model(file_text, g, mm)
            assert not errors_of(diags)
            file_cache = build_cache(file_root, mm)
            for ctx, offset in contexts_of(file_text, g, mm).items():
                if ctx.kind == "top" and ctx.has_root:
                    assert complete(ctx, g, mm, file_cache) == []
                    continue
                at = insertion_point(file_text, ctx, offset)
                proposals = complete(ctx, g, mm, file_cache)

                # Soundness: every template still parses once inserted.
                for p in proposals:
                    if p.kind != TEMPLATE:
                        continue
                    snippet = fill_placeholders(p.insert_text)
                    patched = (
                        file_text[:at] + "\n" + snippet + "\n" + file_text[at:]
                    )
                    patched_root, diags = parse_model(patched, g, mm)
                    assert patched_root is not None and not errors_of(diags), (
                        path.name,
                        ctx,
                        p.label,
                    )

                # Completeness: anything insertable is proposed.
                if ctx.kind == "element":
                    offered = {p.label for p in proposals if p.kind == KEYWORD}
                    for cls in mm.concrete_classes():
                        snippet = fill_placeholders(
                            build_template(cls, g, mm, file_cache)
                        )
                        patched = (
                            file_text[:at] + "\n" + snippet + "\n" + file_text[at:]
                        )
                        _, diags = parse_model(patched, g, mm)
                        if not errors_of(diags):
                            assert cls in offered, (path.name, ctx, cls)


# -- 7. reference cache: correct against brute force, fast at scale -----------


def test_criterion_7_cache_oracle(g, mm):
    with criterion(7, "reference cache matches brute force and stays fast"):
        for seed in range(1000):
            tree = random_model(seed, mm, max_elements=12 + seed % 30)
            assert build_cache(tree, mm).by_class == naive_cache(tree, mm), seed

        root = ModelElement(class_name="EAPackage", short_name="Root")
        count = 1
        while count < 10000:
            pkg = ModelElement(class_name="EAPackage", short_name=f"Pkg{count}")
            root.children.append(("subPackage", pkg))
            count += 1
            fn = ModelElement(
                class_name="DesignFunctionType", short_name=f"Fn{count}"
            )
            pkg.children.append(("element", fn))
            count += 1
            for i in range(min(97, 10000 - count)):
                dt = ModelElement(
                    class_name="EADatatype", short_name=f"T{count}_{i}"
                )
                pkg.children.append(("element", dt))
            count += min(97, max(0, 10000 - count))
        assign_preorder_ids(root)
        assert sum(1 for _ in root.iter_preorder()) >= 10000

        cache = build_cache(root, mm)
        text = "EAPackage Root\n{\n    DesignFunctionType F\n    {\n    }\n}\n"
        contexts = [
            locate_context(text, 5, 1, g, mm),
            locate_context(text, 6, 1, g, mm),
        ]
        started = time.perf_counter()
        for i in range(100):
            props = complete(contexts[i % 2], g, mm, cache)
            assert props
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"100 completions took {elapsed:.2f}s"


# -- 8. every command is deterministic -----------------------------------------


def test_criterion_8_determinism(capsys, tmp_path):
    with criterion(8, "every command yields identical output on identical input"):
        xml_path = tmp_path / "wiper.eaxml"
        code = main(
            [
                "to-xml",
                str(WIPER),
                "--metamodel",
                str(METAMODEL),
                "--config",
                str(CONFIG),
                "-o",
                str(xml_path),
            ]
        )
        capsys.readouterr()
        assert code == 0

        mm_args = ["--metamodel", str(METAMODEL)]
        cfg_args = mm_args + ["--config", str(CONFIG)]
        wiper = str(WIPER)
        invocations = [
            ["gen-grammar"] + mm_args,
            ["adapt"] + cfg_args,
            ["check", wiper] + cfg_args,
            ["to-xml", wiper] + cfg_args,
            ["to-text", str(xml_path)] + cfg_args,
            ["format", wiper] + cfg_args,
            ["complete", wiper, "--line", "17", "--col", "13"] + cfg_args,
            ["roundtrip-check", wiper] + cfg_args,
        ]
        for argv in invocations:
            runs = []
            for _ in range(2):
                code = main(argv)
                captured = capsys.readouterr()
                runs.append((code, captured.out, captured.err))
            assert runs[0] == runs[1], argv[0]
            assert runs[0][0] == 0, argv[0]

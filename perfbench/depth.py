"""Depth sweep: how deep a nesting each stage survives, and its cost.

For each depth on a fixed ladder, builds a chain of nested packages ending
in a function with one port whose type refers back to the top, and runs
each stage on it alone. Text and EAXML come from the loops below, trees
are built directly from eatxt's public model classes, so one stage's limit
never hides another's. A stage stops climbing at its first failure, which
is recorded, not raised. Prints one JSON line per (stage, depth).

Usage: python3 perfbench/depth.py --root <checkout>
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

LADDER = (50, 100, 150, 200, 250, 300, 400, 500, 600, 800, 1000, 1500, 2000)
REPEATS = 3


def chain_text(depth: int) -> str:
    """Canonical text of the chain: depth-2 packages, a function, a port."""
    packages = depth - 2
    lines = []
    for i in range(packages):
        pad = "    " * i
        lines += [f"{pad}EAPackage P{i + 1}", f"{pad}{{"]
        if i == 0:
            lines.append("    EADatatype T")
    pad = "    " * packages
    lines += [f"{pad}DesignFunctionType F", f"{pad}{{", f"{pad}    FunctionFlowPort x",
              f"{pad}    {{", f"{pad}        direction in", f"{pad}        type P1.T",
              f"{pad}    }}", f"{pad}}}"]
    lines += ["    " * i + "}" for i in reversed(range(packages))]
    return "\n".join(lines) + "\n"


def chain_xml(depth: int) -> str:
    packages = depth - 2
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', '<EAXML version="2.1.12">']
    closing = []
    for i in range(packages):
        pad = "  " * (1 + 2 * i)
        lines += [f"{pad}<EA-PACKAGE>", f"{pad}  <SHORT-NAME>P{i + 1}</SHORT-NAME>"]
        if i == 0:
            lines += [f"{pad}  <ELEMENT>", f"{pad}    <EA-DATATYPE>",
                      f"{pad}      <SHORT-NAME>T</SHORT-NAME>", f"{pad}    </EA-DATATYPE>",
                      f"{pad}  </ELEMENT>"]
        wrapper = "SUB-PACKAGE" if i < packages - 1 else "ELEMENT"
        lines.append(f"{pad}  <{wrapper}>")
        closing += [f"{pad}</EA-PACKAGE>", f"{pad}  </{wrapper}>"]
    pad = "  " * (1 + 2 * packages)
    lines += [f"{pad}<DESIGN-FUNCTION-TYPE>", f"{pad}  <SHORT-NAME>F</SHORT-NAME>",
              f"{pad}  <PORT>", f"{pad}    <FUNCTION-FLOW-PORT>", f"{pad}      <SHORT-NAME>x</SHORT-NAME>",
              f"{pad}      <DIRECTION>in</DIRECTION>", f'{pad}      <TYPE DEST="EA-DATATYPE">/P1/T</TYPE>',
              f"{pad}    </FUNCTION-FLOW-PORT>", f"{pad}  </PORT>", f"{pad}</DESIGN-FUNCTION-TYPE>"]
    lines += reversed(closing)
    lines.append("</EAXML>")
    return "\n".join(lines) + "\n"


def chain_tree(depth: int):
    from eatxt.model import CrossRef, ModelElement, QualifiedName

    root = ModelElement("EAPackage", "P1")
    root.children.append(("element", ModelElement("EADatatype", "T")))
    node = root
    for i in range(2, depth - 1):
        child = ModelElement("EAPackage", f"P{i}")
        node.children.append(("subPackage", child))
        node = child
    function = ModelElement("DesignFunctionType", "F")
    node.children.append(("element", function))
    port = ModelElement("FunctionFlowPort", "x", attributes=[("direction", "in")],
                        cross_refs=[CrossRef("type", QualifiedName(("P1", "T")))])
    function.children.append(("port", port))
    next_id, stack = 1, [root]
    while stack:
        el = stack.pop()
        el.id = next_id
        next_id += 1
        stack.extend(child for _, child in reversed(el.children))
    return root, port


def main() -> int:
    ap = argparse.ArgumentParser(description="nesting-depth sweep over eatxt's stages")
    ap.add_argument("--root", required=True)
    root = Path(ap.parse_args().root)
    sys.path.insert(0, str(root / "src"))
    from eatxt.grammar import adapt_grammar, generate_grammar, parse_config
    from eatxt.metamodel import load_metamodel
    from eatxt.model import build_cache, lookup_first_fitting, resolve
    from eatxt.textsyntax import format_model, parse_model
    from eatxt.xmlio import from_eaxml, to_eaxml

    data = Path(__file__).resolve().parent / "data"
    mm = load_metamodel((data / "mini_eastadl.ecore").read_text(encoding="utf-8"))
    g, _ = adapt_grammar(generate_grammar(mm), parse_config((data / "default.cfg").read_text(encoding="utf-8")))

    def clean(diags) -> bool:
        return not any(d.severity == "error" for d in diags)

    def first_port(cache, d):
        found = lookup_first_fitting(cache, "FunctionFlowPort")
        return found is not None and found.segments[-1] == "x" and len(found.segments) == d

    # stage -> (input for a depth, the call, check of its result)
    stages = {
        "parse_model": (chain_text, lambda text: parse_model(text, g, mm),
                        lambda d, _, out: out[0] is not None and clean(out[1])),
        "resolve": (chain_tree, lambda tree: resolve(tree[0], mm),
                    lambda d, tree, out: out == [] and tree[1].cross_refs[0].resolved_id == 2),
        "format_model": (chain_tree, lambda tree: format_model(tree[0], g),
                         lambda d, _, out: out == chain_text(d)),
        "to_eaxml": (chain_tree, lambda tree: to_eaxml(tree[0], mm),
                     lambda d, _, out: out == chain_xml(d)),
        "from_eaxml": (chain_xml, lambda xml: from_eaxml(xml, mm),
                       lambda d, _, out: out[0] is not None and clean(out[1])),
        "build_cache": (chain_tree, lambda tree: build_cache(tree[0], mm),
                        lambda d, _, out: first_port(out, d)),
    }
    for stage, (make, call, check) in stages.items():
        for depth in LADDER:
            times, ok, error = [], True, None
            for _ in range(REPEATS):
                try:
                    given = make(depth)
                    start = time.perf_counter()
                    out = call(given)
                    times.append(time.perf_counter() - start)
                    ok = bool(check(depth, given, out))
                except Exception as exc:  # RecursionError and the like: recorded, never raised
                    ok, error = False, type(exc).__name__
                if not ok:
                    break
            print(json.dumps({"stage": stage, "depth": depth, "ok": ok, "error": error,
                              "us_per_element": min(times) / (depth + 1) * 1e6 if times else 0.0}),
                  flush=True)
            if not ok:
                break
    return 0


if __name__ == "__main__":
    sys.exit(main())

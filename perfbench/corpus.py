"""Seeded benchmark inputs and the expected outputs the oracles compare with.

The generator builds model trees for the metamodel in ``schema.py``, wires
their cross-references once the whole tree exists (so every reference
resolves), and renders each tree three ways with the benchmark's own
writers: canonical text (docs/FORMATS.md section 4), irregular text with
comments and odd whitespace, and EAXML (section 5). Nothing here imports
eatxt, so edits to ``src/`` or ``tests/`` cannot change the inputs.

Run as a script, it writes one workload's files and ``manifest.json`` into
a directory. The benchmark runs it in a separate process so that the
generator's memory never counts towards the measured process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from pathlib import Path

import schema

EAXML_VERSION = "2.1.12"
COMMANDS = ("gen-grammar", "adapt", "check", "format", "to-xml", "to-text",
            "roundtrip-check", "complete")
BATCH_COMMANDS = ("check", "format", "to-xml", "to-text", "roundtrip-check")

# batch-large: document sizes in canonical kilobytes. Every run measures
# whole passes over all of them, so each run sees the same size mix.
BATCH_SIZES_KB = (100, 250, 1000)
BATCH_TRACED_DOC = 1          # index into BATCH_SIZES_KB
COMPLETE_SIZE_KB = 300
COMPLETE_REQUESTS = 2000
CLI_DOCS = 600
CLI_ELEMENTS = (10, 100)
CLI_TRACED_OPS = 150
PROBE_ELEMENTS = 40

_WORDS = ("wiper", "park", "motor", "rain", "lamp", "door", "seat", "brake",
          "torque", "speed", "sensor", "ctrl", "mode", "heat", "fan", "pump",
          "valve", "gear", "belt", "horn", "mirror", "window", "light", "cruise")
# Pieces of string literal bodies, already in escaped spelling.
_STRING_PIECES = ("wiper", "park position", " ", "  ", "Grüße", "äöü", "ß",
                  "€ 5", "你好", "\\\"quoted\\\"", "\\\\", "\\t", "\\n",
                  "<tag>", "a & b", "'single'", "http://example.org/x",
                  "{", "}", ",", ".", "0x1F", "true", "// not a comment",
                  "Ünïcödé", "mode=3")
_COMMENTS = ("// TODO review", "// généré", "// { not a brace }",
             "//", "// \"quote\" in comment", "// 注释")
_INDENT = "    "


class Node:
    __slots__ = ("cls", "name", "attrs", "refs", "children", "parent", "member")

    def __init__(self, cls: str, name: str | None, parent: "Node | None", member: str | None):
        self.cls = cls
        self.name = name
        self.attrs: list[tuple[str, str]] = []
        self.refs: list[tuple[str, Node]] = []
        self.children: list[Node] = []
        self.parent = parent
        self.member = member
        if parent is not None:
            parent.children.append(self)

    def path(self) -> list[str]:
        out = []
        node: Node | None = self
        while node is not None:
            out.append(node.name)
            node = node.parent
        return out[::-1]

    def fqn(self) -> str:
        return ".".join(self.path())


def preorder(root: Node):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------

class _Builder:
    """Builds one seeded model; names are unique per document."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counter = 0
        self.count = 0

    def name(self, capital: bool) -> str:
        self.counter += 1
        a, b = self.rng.sample(_WORDS, 2)
        first = a.capitalize() if capital else a
        return f"{first}{b.capitalize()}{self.counter}"

    def node(self, cls: str, parent: Node | None, member: str | None) -> Node:
        self.count += 1
        name = self.name(cls in ("EAPackage", "DesignFunctionType", "EADatatype")) \
            if schema.is_named(cls) else None
        return Node(cls, name, parent, member)

    def string(self) -> str:
        pieces = self.rng.choices(_STRING_PIECES, k=self.rng.randint(1, 5))
        return '"' + "".join(pieces) + '"'

    def numerical(self) -> str:
        rng = self.rng
        return rng.choice((
            str(rng.randint(0, 5000)), f"-{rng.randint(1, 99)}",
            f"{rng.randint(0, 9)}.{rng.randint(0, 999)}", f"-{rng.randint(1, 9)}.5e{rng.randint(0, 3)}",
            f"{rng.randint(1, 9)}E{rng.randint(0, 4)}", bin(rng.randint(1, 255)),
            f"0o{rng.randint(1, 511):o}", f"0x{rng.randint(1, 65535):X}", f"+{rng.randint(1, 50)}",
        ))

    def uuid(self) -> str:
        h = "%032x" % self.rng.getrandbits(128)
        if self.rng.random() < 0.3:
            h = h.upper()
        return f"{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:]}"

    def fill_attrs(self, node: Node) -> None:
        rng = self.rng
        values = {
            "category": lambda: rng.choice(("system", "function", "types", "analysis", "design")),
            "uuid": self.string,
            "name": self.string,
            "text": self.string,
            "gid": self.uuid,
            "isElementary": lambda: rng.choice(("true", "false")),
            "direction": lambda: rng.choice(("in", "out", "inout")),
            "kind": lambda: rng.choice(("server", "client", "event")),
            "timeout": self.numerical,
        }
        chance = {"category": 0.5, "uuid": 0.3, "name": 0.4, "text": 0.9, "gid": 0.4,
                  "isElementary": 0.6, "kind": 0.6, "timeout": 0.6}
        for name, kind, _, lower, _ in schema.body_entries(node.cls):
            if kind == schema.ATTR and (lower or rng.random() < chance[name]):
                node.attrs.append((name, values[name]()))

    def comment(self, parent: Node) -> None:
        self.fill_attrs(self.node("Comment", parent, "ownedComment"))

    def function(self, parent: Node) -> None:
        rng = self.rng
        dft = self.node("DesignFunctionType", parent, "element")
        self.fill_attrs(dft)
        for _ in range(rng.randint(1, 5)):
            cls = "FunctionFlowPort" if rng.random() < 0.7 else "FunctionClientServerPort"
            self.fill_attrs(self.node(cls, dft, "port"))
        for _ in range(rng.choice((0, 0, 1, 2))):
            self.node("FunctionPrototype", dft, "part")
        for _ in range(rng.choice((0, 1, 1, 2))):
            self.node("FunctionConnector", dft, "connector")
        if rng.random() < 0.3:
            self.comment(dft)

    def package(self, parent: Node | None, depth: int, budget: int) -> Node:
        """A package subtree of about ``budget`` elements, at most 5 packages deep."""
        rng = self.rng
        pkg = self.node("EAPackage", parent, None if parent is None else "subPackage")
        self.fill_attrs(pkg)
        start = self.count
        if rng.random() < 0.3:
            self.comment(pkg)
        while self.count - start < budget:
            roll = rng.random()
            if depth < 5 and roll < 0.12 and budget > 30:
                self.package(pkg, depth + 1, rng.randint(10, budget // 2))
            elif roll < 0.4:
                self.fill_attrs(self.node("EADatatype", pkg, "element"))
            elif roll < 0.95:
                self.function(pkg)
            else:
                self.comment(pkg)
        if rng.random() < 0.3:
            rng.shuffle(pkg.children)  # members interleave in document order
        return pkg


def wire(root: Node, rng: random.Random) -> None:
    """Point every cross-reference at an existing element of a fitting class."""
    by_class: dict[str, list[Node]] = {}
    for node in preorder(root):
        for cls in schema.ancestors(node.cls):
            by_class.setdefault(cls, []).append(node)
    for node in preorder(root):
        if node.cls in ("FunctionFlowPort", "FunctionPrototype"):
            target = schema.member(node.cls, "type")[2]
            node.refs.append(("type", rng.choice(by_class[target])))
        elif node.cls == "FunctionConnector":
            local = [c for c in node.parent.children if schema.is_subtype(c.cls, "FunctionPort")]
            pool = local if len(local) >= 2 and rng.random() < 0.8 else by_class["FunctionPort"]
            for port in rng.sample(pool, min(len(pool), rng.randint(0, 3))):
                node.refs.append(("port", port))


def build_model(rng: random.Random, elements: int) -> Node:
    """One model of roughly ``elements`` elements under a single root package."""
    b = _Builder(rng)
    root = b.node("EAPackage", None, None)
    b.fill_attrs(root)
    while b.count < elements:
        want = min(elements - b.count, rng.randint(20, 250))
        if want < 8:
            b.function(root)
        else:
            b.package(root, 2, want)
    if not any(n.cls == "EADatatype" for n in root.children):
        b.fill_attrs(b.node("EADatatype", root, "element"))  # every port needs a type
    wire(root, rng)
    return root


def sized_model(seed: str, kb: int) -> Node:
    """A model whose canonical text is within about 2% of ``kb`` kilobytes,
    so that every seed gives inputs of the same size."""
    target = kb * 1000
    elements = target // 145
    for _ in range(4):
        root = build_model(random.Random(seed), elements)
        size = len(canonical_text(root).encode("utf-8"))
        if abs(size - target) <= target // 50:
            break
        elements = max(8, round(elements * target / size))
    return root


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def _body_lines(node: Node) -> list[list[str]]:
    """Attribute and cross-reference lines in grammar entry order."""
    lines = []
    for name, kind, _, _, _ in schema.body_entries(node.cls):
        if kind == schema.ATTR:
            lines.extend([name, v] for m, v in node.attrs if m == name)
        elif kind == schema.XREF:
            lines.extend([name, t.fqn()] for m, t in node.refs if m == name)
    return lines


def _element_lines(node: Node, depth: int, out: list, bodies: dict | None, attrs_last=None) -> None:
    """Append (depth, tokens) lines for ``node``; records body slots when asked."""
    out.append((depth, [node.cls] + ([node.name] if node.name is not None else [])))
    attr_lines = _body_lines(node)
    if not attr_lines and not node.children:
        return
    out.append((depth, ["{"]))
    slots = [len(out) - 1]
    last = attrs_last is not None and attrs_last(node)
    if not last:
        for tokens in attr_lines:
            out.append((depth + 1, tokens))
            slots.append(len(out) - 1)
    for child in node.children:
        _element_lines(child, depth + 1, out, bodies, attrs_last)
        slots.append(len(out) - 1)
    if last:
        for tokens in attr_lines:
            out.append((depth + 1, tokens))
    out.append((depth, ["}"]))
    if bodies is not None:
        bodies[id(node)] = (depth, slots)


def canonical_lines(root: Node, bodies: dict | None = None) -> list[str]:
    out: list = []
    _element_lines(root, 0, out, bodies)
    return [_INDENT * d + " ".join(tokens) for d, tokens in out]


def canonical_text(root: Node) -> str:
    return "\n".join(canonical_lines(root)) + "\n"


def noisy_text(root: Node, rng: random.Random) -> str:
    """The same model with comments, odd indentation, joined lines and
    attributes after children now and then; it formats to canonical text."""
    out: list = []
    _element_lines(root, 0, out, None, attrs_last=lambda n: rng.random() < 0.1)
    merged: list[list[str]] = []
    for _, tokens in out:
        if len(tokens) == 2 and tokens[0] in ("type", "port") and rng.random() < 0.05:
            tokens = [tokens[0], " . ".join(tokens[1].split("."))]
        if merged and rng.random() < 0.12:
            merged[-1].extend(tokens)
        else:
            merged.append(list(tokens))
    text = []
    seps = (" ", " ", " ", "  ", "\t", " \t ")
    for tokens in merged:
        if rng.random() < 0.04:
            text.append("")
        if rng.random() < 0.04:
            text.append(" " * rng.randint(0, 8) + rng.choice(_COMMENTS))
        line = "\t" * rng.randint(0, 2) + " " * rng.randint(0, 9)
        line += "".join(tok + rng.choice(seps) for tok in tokens[:-1]) + tokens[-1]
        if rng.random() < 0.08:
            line += rng.choice(seps) + rng.choice(_COMMENTS)
        elif rng.random() < 0.05:
            line += " " * rng.randint(1, 4)
        text.append(line)
    return "// generated benchmark model\n" + "\n".join(text) + "\n\n"


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def eaxml_text(root: Node) -> str:
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', f'<EAXML version="{EAXML_VERSION}">']
    stack: list = [(root, 1)]
    # An explicit stack of pending lines keeps the writer free of recursion.
    while stack:
        item, level = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        node = item
        pad = "  " * level
        tag = schema.TAGS[node.cls]
        inner = []
        if node.name is not None:
            inner.append(f"{pad}  <SHORT-NAME>{node.name}</SHORT-NAME>")
        for member, lexeme in node.attrs:
            kind = schema.member(node.cls, member)[2]
            text = lexeme[1:-1] if kind == "String" else lexeme
            t = schema.TAGS[member]
            inner.append(f"{pad}  <{t}>{_xml_escape(text)}</{t}>")
        for member, target in node.refs:
            t = schema.TAGS[member]
            dest = schema.TAGS[schema.member(node.cls, member)[2]]
            inner.append(f'{pad}  <{t} DEST="{dest}">/{"/".join(target.path())}</{t}>')
        if not inner and not node.children:
            lines.append(f"{pad}<{tag} />")
            continue
        lines.append(f"{pad}<{tag}>")
        lines.extend(inner)
        pending: list = []
        runs: list[tuple[str, list[Node]]] = []
        for child in node.children:
            if runs and runs[-1][0] == child.member:
                runs[-1][1].append(child)
            else:
                runs.append((child.member, [child]))
        for member, children in runs:
            t = schema.TAGS[member]
            pending.append(f"{pad}  <{t}>")
            pending.extend((c, level + 2) for c in children)
            pending.append(f"{pad}  </{t}>")
        pending.append(f"{pad}</{tag}>")
        stack.extend((p, level) if isinstance(p, str) else p for p in reversed(pending))
    lines.append("</EAXML>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Completion oracle
# ---------------------------------------------------------------------------

def first_fitting(root: Node) -> dict[str, str]:
    """For every class, the first addressable element assignable to it in
    document order, found by walking the generator's own tree."""
    found: dict[str, str] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.name is None:
            continue  # nothing below an unnamed element has a qualified name
        fqn = node.fqn()
        for cls in schema.ancestors(node.cls):
            found.setdefault(cls, fqn)
        stack.extend(reversed(node.children))
    return found


def expected_reply(node: Node, fitting: dict[str, str]) -> dict:
    """What ``complete`` must offer inside the body of ``node``: member and
    class keywords in grammar entry order, and one template per class
    keyword with its pre-filled cross-references."""
    present = {m for m, _ in node.attrs} | {m for m, _ in node.refs} | {c.member for c in node.children}
    keywords: list[str] = []
    classes: list[str] = []
    for name, kind, target, _, upper in schema.body_entries(node.cls):
        if upper != schema.MANY and name in present:
            continue
        if kind != schema.CONT:
            keywords.append(name)
            continue
        for cls in schema.concrete_subclasses(target):
            if cls not in classes:
                classes.append(cls)
                keywords.append(cls)
    templates = [{
        "keyword": cls,
        "named": schema.is_named(cls),
        "prefill": [[name, fitting.get(target)]
                    for name, kind, target, lower, _ in schema.body_entries(cls)
                    if kind == schema.XREF and lower >= 1],
    } for cls in classes]
    return {"keywords": keywords, "templates": templates}


def completion_sites(root: Node, rng: random.Random, count: int,
                     bodies: dict) -> tuple[list[dict], list[dict]]:
    """Seeded cursor requests inside element bodies, favouring bodies that
    have proposals. Each one inserts a half-typed class keyword or a blank
    line at a body slot and puts the cursor at its end."""
    fitting = first_fitting(root)
    nodes = [n for n in preorder(root) if id(n) in bodies]
    weight = {"EAPackage": 4.0, "DesignFunctionType": 4.0, "FunctionConnector": 1.0,
              "FunctionClientServerPort": 1.0}
    weights = [weight.get(n.cls, 0.3) for n in nodes]
    replies: list[dict] = []
    reply_of: dict[int, int] = {}
    requests = []
    for _ in range(count):
        node = rng.choices(nodes, weights)[0]
        if id(node) not in reply_of:
            reply_of[id(node)] = len(replies)
            replies.append(expected_reply(node, fitting))
        depth, slots = bodies[id(node)]
        after = rng.choice(slots)
        if rng.random() < 0.75:
            word = rng.choice([c for c, v in schema.CLASSES.items() if not v[0]])
            typed = word[: rng.randint(1, len(word) - 1)]
        else:
            typed = ""
        line = _INDENT * (depth + 1) + typed
        requests.append({"after": after, "insert": line, "line": after + 2,
                         "col": len(line) + 1, "reply": reply_of[id(node)]})
    return requests, replies


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

class _Writer:
    def __init__(self, out: Path):
        self.out = out
        self.files: list[Path] = []
        (out / "cache").mkdir(parents=True, exist_ok=True)
        for name in ("mini_eastadl.ecore", "default.cfg"):
            self.put(name, (schema.DATA / name).read_text(encoding="utf-8"))
        self.mm = str(out / "mini_eastadl.ecore")
        self.cfg = str(out / "default.cfg")

    def put(self, name: str, text: str) -> str:
        path = self.out / name
        path.write_text(text, encoding="utf-8")
        self.files.append(path)
        return str(path)

    def argv(self, cmd: str, model: str | None = None, cache: str | None = None) -> list[str]:
        args = [cmd] + ([model] if model else []) + ["--metamodel", self.mm]
        if cmd != "gen-grammar":
            args += ["--config", self.cfg]
        if cache:
            args += ["--grammar-cache", cache]
        return args

    def document(self, stem: str, root: Node, rng: random.Random) -> dict:
        canon = canonical_text(root)
        return {
            "text": self.put(f"{stem}.eatxt", noisy_text(root, rng)),
            "xml": self.put(f"{stem}.eaxml", eaxml_text(root)),
            "canon": self.put(f"{stem}.canon", canon),
            "bytes": len(canon.encode("utf-8")),
        }

    def doc_op(self, cmd: str, doc: dict, cache: str | None = None) -> dict:
        model = doc["xml"] if cmd == "to-text" else doc["text"]
        expect = {"format": doc["canon"], "to-text": doc["canon"], "to-xml": doc["xml"]}.get(cmd)
        return {"cmd": cmd, "argv": self.argv(cmd, model, cache), "expect": expect,
                "bytes": doc["bytes"]}

    def complete_op(self, stem: str, root: Node, rng: random.Random, cache: str | None = None) -> dict:
        bodies: dict = {}
        lines = canonical_lines(root, bodies)
        (req,), replies = completion_sites(root, rng, 1, bodies)
        edited = lines[: req["after"] + 1] + [req["insert"]] + lines[req["after"] + 1:]
        path = self.put(f"{stem}.complete.eatxt", "\n".join(edited) + "\n")
        argv = self.argv("complete", path, cache) + ["--line", str(req["line"]), "--col", str(req["col"])]
        return {"cmd": "complete", "argv": argv, "reply": replies[0],
                "bytes": len("\n".join(lines).encode("utf-8")) + 1}

    def grammar_ops(self) -> dict[str, dict]:
        gen = self.put("expected-generated.gtext", (schema.DATA / "generated.gtext").read_text(encoding="utf-8"))
        adapted = "\n".join(schema.adapt_report()) + "\n" + (schema.DATA / "adapted.gtext").read_text(encoding="utf-8")
        adapt = self.put("expected-adapt.out", adapted)
        return {
            "gen-grammar": {"cmd": "gen-grammar", "argv": self.argv("gen-grammar"), "expect": gen, "bytes": 0},
            "adapt": {"cmd": "adapt", "argv": self.argv("adapt"), "expect": adapt, "bytes": 0},
        }

    def probe(self, rng: random.Random) -> list[dict]:
        """One call of every subcommand on a small document, plus a grammar
        cache write and read. It is the untimed warm-up of every run and the
        head of every traced pass."""
        root = build_model(rng, PROBE_ELEMENTS)
        doc = self.document("probe", root, rng)
        grammar = self.grammar_ops()
        shared = str(self.out / "cache" / "shared.json")
        ops = [grammar["gen-grammar"], grammar["adapt"]]
        ops += [self.doc_op(cmd, doc) for cmd in BATCH_COMMANDS]
        ops.append(self.complete_op("probe", root, rng))
        ops.append(dict(self.doc_op("check", doc, shared), fresh=shared))
        ops.append(self.doc_op("check", doc, shared))
        return ops

    def digest(self, ops: list) -> str:
        """SHA-256 of every input file and of the op list, paths made
        relative to the output directory."""
        h = hashlib.sha256()
        for path in sorted(self.files):
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        h.update(json.dumps(ops, sort_keys=True).replace(str(self.out), "").encode())
        return h.hexdigest()


def build_batch(w: _Writer, rng: random.Random) -> dict:
    docs = []
    for i, kb in enumerate(BATCH_SIZES_KB):
        root = sized_model(f"doc{i}/{rng.random()}", kb)
        docs.append(w.document(f"doc{i}", root, rng))
    order = list(range(len(docs)))
    rng.shuffle(order)
    ops = [w.doc_op(cmd, docs[i]) for i in order for cmd in BATCH_COMMANDS]
    traced = [w.doc_op(cmd, docs[BATCH_TRACED_DOC]) for cmd in BATCH_COMMANDS]
    return {"ops": ops, "traced": traced, "pass_ops": len(ops), "prefill_doc": docs[BATCH_TRACED_DOC]["text"]}


def build_complete(w: _Writer, rng: random.Random) -> dict:
    root = sized_model(f"complete/{rng.random()}", COMPLETE_SIZE_KB)
    bodies: dict = {}
    lines = canonical_lines(root, bodies)
    base = w.put("base.eatxt", "\n".join(lines) + "\n")
    requests, replies = completion_sites(root, rng, COMPLETE_REQUESTS, bodies)
    target = str(w.out / "request.eatxt")
    size = sum(len(line.encode("utf-8")) + 1 for line in lines)
    ops = [{"cmd": "complete", "argv": w.argv("complete", target) + ["--line", str(r["line"]), "--col", str(r["col"])],
            "edit": [r["after"], r["insert"]], "reply": replies[r["reply"]], "bytes": size}
           for r in requests]
    return {"ops": ops, "traced": ops[:5], "base": base, "edit_target": target, "prefill_doc": base}


def build_cli(w: _Writer, rng: random.Random) -> dict:
    grammar = w.grammar_ops()
    shared = str(w.out / "cache" / "shared.json")
    ops = []
    fresh = 0
    for i in range(CLI_DOCS):
        root = build_model(random.Random(rng.random()), rng.randint(*CLI_ELEMENTS))
        doc = w.document(f"small{i}", root, rng)
        cmds = rng.sample(COMMANDS, rng.randint(3, 6))
        for cmd in cmds:
            if cmd in grammar:
                ops.append(grammar[cmd])
                continue
            roll = rng.random()
            cache = None
            extra = {}
            if roll < 0.3:
                cache = shared
            elif roll < 0.45:
                fresh += 1
                cache = str(w.out / "cache" / f"fresh{fresh}.json")
                extra = {"fresh": cache}
            if cmd == "complete":
                op = w.complete_op(f"small{i}", root, rng, cache)
            else:
                op = w.doc_op(cmd, doc, cache)
            ops.append(dict(op, **extra))
    return {"ops": ops, "traced": ops[:CLI_TRACED_OPS], "prefill_doc": None}


BUILDERS = {"batch-large": build_batch, "complete-large": build_complete, "cli-small": build_cli}


def generate(workload: str, seed: int, out: Path) -> None:
    """Write the inputs, ``probe.json`` (the warm-up ops, kept apart so that
    set-up time does not include reading the manifest) and ``manifest.json``."""
    rng = random.Random(f"{workload}/{seed}")
    w = _Writer(out)
    probe = w.probe(random.Random(f"probe/{seed}"))
    manifest = BUILDERS[workload](w, rng)
    manifest.update(workload=workload, seed=seed, mm=w.mm, cfg=w.cfg, probe_doc=probe[2]["argv"][1],
                    inputs_sha256=w.digest([probe, manifest["ops"]]), input_files=len(w.files))
    (out / "probe.json").write_text(json.dumps(probe), encoding="utf-8")
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def main() -> None:
    ap = argparse.ArgumentParser(description="write one workload's benchmark inputs")
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    generate(args.workload, args.seed, Path(args.out))


if __name__ == "__main__":
    main()

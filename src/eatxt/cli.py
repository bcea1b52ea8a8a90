"""Command-line front end for the toolchain.

Eight subcommands cover the pipeline: gen-grammar, adapt, check, to-xml,
to-text, complete, format, and roundtrip-check. Every command receives
the metamodel (and optionally the adaptation config) explicitly; there is
no hidden project state.

All commands share one pipeline in :func:`main`. It loads the metamodel
once and, for the six commands that take a model file, builds the grammar
once: generated and adapted, or read from a grammar cache. Commands that
need a clean tree get it from :func:`_clean_tree`, which parses the model
file (reads it as EAXML for to-text), prints the diagnostics on stderr and
stops the command unless the tree is clean. ``check`` and ``complete`` go
on past errors and parse the file themselves.

Exit codes: 0 for success; 1 when processing produced error diagnostics
or the model cannot be rendered; 2 for every toolchain error, that is an
unusable input such as a missing file, a bad metamodel, config or grammar
cache, or a cursor outside the text. Warnings never change the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import json
import os
import sys
import tempfile

from .assist import complete as compute_proposals
from .assist import context_at
from .diagnostics import (
    Diagnostic,
    GrammarError,
    MetamodelError,
    SerializationError,
    ToolchainError,
    has_errors,
)
from .grammar import (
    Grammar,
    adapt_grammar,
    emit_grammar,
    generate_grammar,
    grammar_from_dict,
    grammar_to_dict,
    parse_config,
)
from .metamodel import Metamodel, load_metamodel
from .model import ModelElement, ReferenceCache, build_cache, resolve
from .textsyntax import LineIndex, format_model, parse_document, parse_model
from .xmlio import XmlNameMap, from_eaxml, to_eaxml

OK = 0
DATA_ERROR = 1
USAGE_ERROR = 2


class _UsageError(ToolchainError):
    """An input the CLI cannot use: a file it cannot read or write, a bad
    grammar cache, a cursor outside the text."""


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")


def _atomic_write(path: str, data: str) -> None:
    """Write via a sibling temp file and rename, so readers never see halves."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".eatxt-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}")


def _emit_output(args: argparse.Namespace, data: str) -> None:
    if args.out:
        _atomic_write(args.out, data)
    else:
        sys.stdout.write(data)


def _load_mm(args: argparse.Namespace) -> Metamodel:
    try:
        return load_metamodel(_read_text(args.metamodel))
    except MetamodelError as exc:
        raise _UsageError(f"{args.metamodel}: {exc}")


def _xml_names(args: argparse.Namespace, mm: Metamodel) -> XmlNameMap:
    """The metamodel's XML tag tables, once per XML command. A metamodel
    with a class or member name that has no tag is unusable there."""
    try:
        return XmlNameMap(mm)
    except SerializationError as exc:
        raise _UsageError(f"{args.metamodel}: {exc}") from None


def _build_grammar(args: argparse.Namespace, mm: Metamodel) -> Grammar:
    """Grammar for model commands: generated, adapted, optionally cached.

    A --grammar-cache file is read when present and written when absent.
    The cache is not invalidated automatically; delete it after changing
    the metamodel or the config. A cache without a rule for some concrete
    class is rejected.
    """
    cache_path = args.grammar_cache
    if cache_path and os.path.exists(cache_path):
        try:
            with open(cache_path, "r", encoding="utf-8") as fh:
                g = grammar_from_dict(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError, GrammarError) as exc:
            raise _UsageError(f"unusable grammar cache {cache_path}: {exc}")
        for name in mm.concrete_classes():
            if name not in g.rules:
                raise _UsageError(
                    f"unusable grammar cache {cache_path}: no rule for class {name}"
                )
        return g

    g = generate_grammar(mm)
    if args.config:
        g, _ = adapt_grammar(g, parse_config(_read_text(args.config)))
    if cache_path:
        _atomic_write(
            cache_path, json.dumps(grammar_to_dict(g), indent=2) + "\n"
        )
    return g


def _print_diags(path: str, diags: list[Diagnostic], stream) -> None:
    for d in diags:
        print(d.format(path), file=stream)


def _clean_tree(
    args: argparse.Namespace, mm: Metamodel, g: Grammar,
) -> ModelElement | None:
    """The model file as a tree, or None after printing its errors.

    Text is parsed; to-text reads its file as EAXML. Diagnostics go to
    stderr, and the tree is returned only when none of them is an error.
    """
    if args.command == "to-text":
        names = _xml_names(args, mm)
        root, diags = from_eaxml(_read_text(args.model), mm, names)
    else:
        root, diags = parse_model(_read_text(args.model), g, mm)
    _print_diags(args.model, diags, sys.stderr)
    return None if has_errors(diags) else root


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_grammar(args: argparse.Namespace, mm: Metamodel, g: None) -> int:
    _emit_output(args, emit_grammar(generate_grammar(mm)))
    return OK


def cmd_adapt(args: argparse.Namespace, mm: Metamodel, g: None) -> int:
    cfg = parse_config(_read_text(args.config))
    adapted, report = adapt_grammar(generate_grammar(mm), cfg)
    rendered = report.render()
    if rendered:
        print(rendered)
    _emit_output(args, emit_grammar(adapted))
    return OK


def cmd_check(args: argparse.Namespace, mm: Metamodel, g: Grammar) -> int:
    root, diags = parse_model(_read_text(args.model), g, mm)
    if root is not None:
        diags = diags + resolve(root, mm)
    _print_diags(args.model, diags, sys.stdout)
    return DATA_ERROR if has_errors(diags) else OK


def cmd_to_xml(args: argparse.Namespace, mm: Metamodel, g: Grammar) -> int:
    names = _xml_names(args, mm)
    root = _clean_tree(args, mm, g)
    if root is None:
        return DATA_ERROR
    _emit_output(args, to_eaxml(root, mm, names))
    return OK


def cmd_format(args: argparse.Namespace, mm: Metamodel, g: Grammar) -> int:
    """format and to-text: the canonical text of the model file's tree."""
    root = _clean_tree(args, mm, g)
    if root is None:
        return DATA_ERROR
    _emit_output(args, format_model(root, g))
    return OK


def _cursor_offset(lines: LineIndex, size: int, line: int, col: int) -> int:
    """Offset of a 1-based position that must lie in a text of ``size``
    characters."""
    count = len(lines.starts)
    if line < 1 or line > count:
        raise _UsageError(f"line {line} out of range (1..{count})")
    end = lines.starts[line] if line < count else size + 1
    width = end - lines.starts[line - 1]
    if col < 1 or col > width:
        raise _UsageError(f"column {col} out of range (1..{width}) on line {line}")
    return lines.offset(line, col)


def cmd_complete(args: argparse.Namespace, mm: Metamodel, g: Grammar) -> int:
    text = _read_text(args.model)
    doc = parse_document(text, g, mm)
    ctx = context_at(doc, _cursor_offset(doc.lines, len(text), args.line, args.col))
    cache = build_cache(doc.root, mm) if doc.root is not None else ReferenceCache()
    for p in compute_proposals(ctx, g, mm, cache):
        body = (
            p.insert_text.replace("\\", "\\\\")
            .replace("\t", "\\t")
            .replace("\n", "\\n")
        )
        print(f"{p.kind.upper()}\t{body}")
    return OK


def cmd_roundtrip_check(args: argparse.Namespace, mm: Metamodel, g: Grammar) -> int:
    names = _xml_names(args, mm)
    root = _clean_tree(args, mm, g)
    if root is None:
        return DATA_ERROR
    canonical = format_model(root, g)
    back, xml_diags = from_eaxml(to_eaxml(root, mm, names), mm, names)
    if back is None or has_errors(xml_diags):
        _print_diags(args.model, xml_diags, sys.stderr)
        return DATA_ERROR
    recovered = format_model(back, g)

    if recovered == canonical:
        return OK
    diff = difflib.unified_diff(
        canonical.splitlines(keepends=True),
        recovered.splitlines(keepends=True),
        fromfile="canonical",
        tofile="roundtripped",
    )
    sys.stdout.writelines(diff)
    return DATA_ERROR


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

# Subcommands: name, handler, help, whether it takes a model file (and with
# it --config and --grammar-cache), whether it writes an output (-o).
_COMMANDS = [
    ("gen-grammar", cmd_gen_grammar, "emit the grammar generated from a metamodel",
     False, True),
    ("adapt", cmd_adapt, "emit the grammar after applying a config", False, True),
    ("check", cmd_check, "parse and resolve a model, printing diagnostics", True, False),
    ("to-xml", cmd_to_xml, "convert textual model to XML", True, True),
    ("to-text", cmd_format, "convert XML model to canonical text", True, True),
    ("complete", cmd_complete, "print completion proposals for a position", True, False),
    ("format", cmd_format, "rewrite a model in canonical form", True, True),
    ("roundtrip-check", cmd_roundtrip_check,
     "verify text -> XML -> text reproduces the canonical form", True, False),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eatxt",
        description="Textual modeling toolchain: grammar generation, parsing, "
        "formatting, completion, and XML exchange.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, model, out in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        if model:
            sp.add_argument("model", help="input file")
        sp.add_argument("--metamodel", required=True, help="metamodel XMI file")
        if model:
            sp.add_argument("--config", help="grammar adaptation config")
            sp.add_argument(
                "--grammar-cache",
                help="JSON file caching the adapted grammar (read if present, written if not)",
            )
        if out:
            sp.add_argument("-o", "--out", help="output file (default: stdout)")
        sp.set_defaults(func=func)

    sub.choices["adapt"].add_argument(
        "--config", required=True, help="grammar adaptation config"
    )
    complete = sub.choices["complete"]
    complete.add_argument("--line", type=int, required=True, help="1-based line")
    complete.add_argument("--col", type=int, required=True, help="1-based column")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        mm = _load_mm(args)
        g = _build_grammar(args, mm) if "model" in args else None
        try:
            code = args.func(args, mm, g)
        except SerializationError as exc:  # raised while rendering output
            print(f"{args.model}: error: {exc}", file=sys.stderr)
            code = DATA_ERROR
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away. Send what is still buffered to the null
        # device, so that the flush at interpreter exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return USAGE_ERROR
    except ToolchainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

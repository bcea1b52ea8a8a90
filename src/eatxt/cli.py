"""Command-line front end for the toolchain.

Eight subcommands cover the pipeline: gen-grammar, adapt, check, to-xml,
to-text, complete, format, and roundtrip-check. Every model-touching
command receives the metamodel (and optionally the adaptation config)
explicitly; there is no hidden project state. Exit codes: 0 for success,
1 when processing produced error diagnostics, 2 for unusable inputs
(missing files, bad config, bad metamodel). Warnings never change the
exit code.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
import tempfile

from .assist import complete as compute_proposals
from .assist import context_at
from .diagnostics import (
    ConfigError,
    Diagnostic,
    MetamodelError,
    SerializationError,
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
from .model import ReferenceCache, build_cache, resolve
from .textsyntax import LineIndex, format_model, parse_document, parse_model
from .xmlio import from_eaxml, to_eaxml

OK = 0
DATA_ERROR = 1
USAGE_ERROR = 2


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(USAGE_ERROR, f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise _CliError(USAGE_ERROR, f"cannot read {path}: {exc}")


def _atomic_write(path: str, data: str) -> None:
    """Write via a sibling temp file and rename, so readers never see halves."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".eatxt-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise _CliError(USAGE_ERROR, f"cannot write {path}: {exc.strerror or exc}")


def _emit_output(args: argparse.Namespace, data: str) -> None:
    if getattr(args, "out", None):
        _atomic_write(args.out, data)
    else:
        sys.stdout.write(data)


def _load_mm(args: argparse.Namespace) -> Metamodel:
    try:
        return load_metamodel(_read_text(args.metamodel))
    except MetamodelError as exc:
        raise _CliError(USAGE_ERROR, f"{args.metamodel}: {exc}")


def _build_grammar(args: argparse.Namespace, mm: Metamodel) -> Grammar:
    """Grammar for model commands: generated, adapted, optionally cached.

    A --grammar-cache file is read when present and written when absent.
    The cache is not invalidated automatically; delete it after changing
    the metamodel or the config.
    """
    cache_path = getattr(args, "grammar_cache", None)
    if cache_path and os.path.exists(cache_path):
        try:
            with open(cache_path, "r", encoding="utf-8") as fh:
                return grammar_from_dict(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise _CliError(USAGE_ERROR, f"unusable grammar cache {cache_path}: {exc}")

    g = generate_grammar(mm)
    if getattr(args, "config", None):
        cfg = parse_config(_read_text(args.config))
        g, _ = adapt_grammar(g, cfg)
    if cache_path:
        _atomic_write(
            cache_path, json.dumps(grammar_to_dict(g), indent=2) + "\n"
        )
    return g


def _print_diags(path: str, diags: list[Diagnostic], stream) -> None:
    for d in diags:
        print(d.format(path), file=stream)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_grammar(args: argparse.Namespace) -> int:
    mm = _load_mm(args)
    _emit_output(args, emit_grammar(generate_grammar(mm)))
    return OK


def cmd_adapt(args: argparse.Namespace) -> int:
    mm = _load_mm(args)
    cfg = parse_config(_read_text(args.config))
    adapted, report = adapt_grammar(generate_grammar(mm), cfg)
    rendered = report.render()
    if rendered:
        print(rendered)
    _emit_output(args, emit_grammar(adapted))
    return OK


def _parse_file(args: argparse.Namespace, mm: Metamodel, g: Grammar):
    return parse_model(_read_text(args.model), g, mm)


def cmd_check(args: argparse.Namespace) -> int:
    mm = _load_mm(args)
    g = _build_grammar(args, mm)
    root, diags = _parse_file(args, mm, g)
    if root is not None:
        diags = diags + resolve(root, mm)
    _print_diags(args.model, diags, sys.stdout)
    return DATA_ERROR if has_errors(diags) else OK


def cmd_to_xml(args: argparse.Namespace) -> int:
    mm = _load_mm(args)
    g = _build_grammar(args, mm)
    root, diags = _parse_file(args, mm, g)
    _print_diags(args.model, diags, sys.stderr)
    if root is None or has_errors(diags):
        return DATA_ERROR
    try:
        _emit_output(args, to_eaxml(root, mm))
    except SerializationError as exc:
        print(f"{args.model}: error: {exc}", file=sys.stderr)
        return DATA_ERROR
    return OK


def cmd_to_text(args: argparse.Namespace) -> int:
    mm = _load_mm(args)
    g = _build_grammar(args, mm)
    text = _read_text(args.model)
    root, diags = from_eaxml(text, mm)
    _print_diags(args.model, diags, sys.stderr)
    if root is None or has_errors(diags):
        return DATA_ERROR
    try:
        _emit_output(args, format_model(root, g))
    except SerializationError as exc:
        print(f"{args.model}: error: {exc}", file=sys.stderr)
        return DATA_ERROR
    return OK


def cmd_format(args: argparse.Namespace) -> int:
    mm = _load_mm(args)
    g = _build_grammar(args, mm)
    root, diags = _parse_file(args, mm, g)
    _print_diags(args.model, diags, sys.stderr)
    if root is None or has_errors(diags):
        return DATA_ERROR
    _emit_output(args, format_model(root, g))
    return OK


def _cursor_offset(text: str, line: int, col: int) -> int:
    """Character offset of a 1-based position that must lie in the text."""
    lines = LineIndex(text)
    count = len(lines.starts)
    if line < 1 or line > count:
        raise _CliError(USAGE_ERROR, f"line {line} out of range (1..{count})")
    end = lines.starts[line] if line < count else len(text) + 1
    width = end - lines.starts[line - 1]
    if col < 1 or col > width:
        raise _CliError(
            USAGE_ERROR, f"column {col} out of range (1..{width}) on line {line}"
        )
    return lines.offset(line, col)


def cmd_complete(args: argparse.Namespace) -> int:
    mm = _load_mm(args)
    g = _build_grammar(args, mm)
    text = _read_text(args.model)
    offset = _cursor_offset(text, args.line, args.col)
    doc = parse_document(text, g, mm)
    ctx = context_at(doc, offset)
    cache = build_cache(doc.root, mm) if doc.root is not None else ReferenceCache()
    for p in compute_proposals(ctx, g, mm, cache):
        body = (
            p.insert_text.replace("\\", "\\\\")
            .replace("\t", "\\t")
            .replace("\n", "\\n")
        )
        print(f"{p.kind.upper()}\t{body}")
    return OK


def cmd_roundtrip_check(args: argparse.Namespace) -> int:
    mm = _load_mm(args)
    g = _build_grammar(args, mm)
    root, diags = _parse_file(args, mm, g)
    _print_diags(args.model, diags, sys.stderr)
    if root is None or has_errors(diags):
        return DATA_ERROR

    try:
        canonical = format_model(root, g)
        xml = to_eaxml(root, mm)
    except SerializationError as exc:
        print(f"{args.model}: error: {exc}", file=sys.stderr)
        return DATA_ERROR
    back, xml_diags = from_eaxml(xml, mm)
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

def _add_common(sp: argparse.ArgumentParser, model: bool = True, out: bool = True,
                config: bool = True) -> None:
    if model:
        sp.add_argument("model", help="input file")
    sp.add_argument("--metamodel", required=True, help="metamodel XMI file")
    if config:
        sp.add_argument("--config", help="grammar adaptation config")
        sp.add_argument(
            "--grammar-cache",
            help="JSON file caching the adapted grammar (read if present, written if not)",
        )
    if out:
        sp.add_argument("-o", "--out", help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eatxt",
        description="Textual modeling toolchain: grammar generation, parsing, "
        "formatting, completion, and XML exchange.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-grammar", help="emit the grammar generated from a metamodel")
    _add_common(sp, model=False, config=False)
    sp.set_defaults(func=cmd_gen_grammar)

    sp = sub.add_parser("adapt", help="emit the grammar after applying a config")
    _add_common(sp, model=False, config=False)
    sp.add_argument("--config", required=True, help="grammar adaptation config")
    sp.set_defaults(func=cmd_adapt)

    sp = sub.add_parser("check", help="parse and resolve a model, printing diagnostics")
    _add_common(sp, out=False)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("to-xml", help="convert textual model to XML")
    _add_common(sp)
    sp.set_defaults(func=cmd_to_xml)

    sp = sub.add_parser("to-text", help="convert XML model to canonical text")
    _add_common(sp)
    sp.set_defaults(func=cmd_to_text)

    sp = sub.add_parser("complete", help="print completion proposals for a position")
    _add_common(sp, out=False)
    sp.add_argument("--line", type=int, required=True, help="1-based line")
    sp.add_argument("--col", type=int, required=True, help="1-based column")
    sp.set_defaults(func=cmd_complete)

    sp = sub.add_parser("format", help="rewrite a model in canonical form")
    _add_common(sp)
    sp.set_defaults(func=cmd_format)

    sp = sub.add_parser(
        "roundtrip-check",
        help="verify text -> XML -> text reproduces the canonical form",
    )
    _add_common(sp, out=False)
    sp.set_defaults(func=cmd_roundtrip_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away. Send what is still buffered to the null
        # device, so that the flush at interpreter exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return USAGE_ERROR
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (MetamodelError, SerializationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

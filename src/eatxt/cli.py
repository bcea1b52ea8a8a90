"""Command-line front end for the toolchain.

Eight subcommands cover the pipeline: gen-grammar, adapt, check, to-xml,
to-text, complete, format, and roundtrip-check. Every command receives
the metamodel (and optionally the adaptation config) explicitly; there is
no hidden project state.

All commands share one pipeline in :func:`main`. It loads the metamodel
once and, for the six commands that take a model file, builds the grammar
once: generated from the metamodel and adapted by the config. The
``--grammar-cache`` flag is accepted and ignored, so that existing
invocations still run; no copy of the grammar is read, so none can go
stale. Commands that need a clean tree get it from :func:`_clean_tree`;
``check`` and ``complete`` go on past errors and parse the file
themselves. ``complete`` reads the file through one parse, only as far
as its reply needs (:func:`eatxt.assist.context_at` and
:func:`eatxt.model.parse_cache`), and builds no reference cache of the
whole model. The parse's ``LineIndex``, the one owner of positions,
places the cursor, and its diagnostics reuse the line starts found.

A batch command (check, format, to-xml, to-text, roundtrip-check) holds
at most one model tree, its input text and one copy of each text it
writes. The parse keeps only a window of about two lexer batches of
tokens, dropping those it has passed, and the input text goes with the
parse. roundtrip-check writes the EAXML and then the canonical text of
the parsed tree, drops the tree, reads the EAXML back and drops it; only
the canonical text stays, for the comparison. So its peak is the larger
of the tree with the two texts written from it, and the canonical text
and the EAXML with the tree read back.

A call does only the work its command needs, since an editor may run
one per keystroke. A plain command line, a subcommand followed by its
own options in full, each with a value, and its model file, is read
straight into the namespace that argparse would return
(:func:`parse_args`). Every other command line, help included, goes to
the argparse parser of :func:`build_parser`, which alone prints usage,
help and errors. Both take each subcommand's options from one table,
``_COMMANDS``. ``difflib`` and ``tempfile`` are imported by the
functions that use them, so importing this module does not load them.

:func:`main` pauses Python's cyclic garbage collector for the length of
one command and restores the state it found, however the command ends.
A command allocates model trees, tokens and diagnostics in bulk,
and none of them holds a reference cycle: reference counting frees them
all, so the collector would only rescan them, again and again as they
grow. The few cycles a command leaves (argparse's parser, when one is
built) are the same for every input and are collected after the command
returns.

Exit codes: 0 for success; 1 when processing produced error diagnostics
or the model cannot be rendered; 2 for every toolchain error, that is an
unusable input such as a missing file, a bad metamodel or config, or a
cursor outside the text, and when a command runs out of memory. Warnings
never change the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import stat
import sys

from .assist import complete as compute_proposals
from .assist import context_at
from .diagnostics import (
    ConfigError,
    Diagnostic,
    MetamodelError,
    SerializationError,
    ToolchainError,
    has_errors,
)
from .grammar import (
    AdaptationReport,
    Grammar,
    adapt_grammar,
    emit_grammar,
    generate_grammar,
    parse_config,
)
from .metamodel import Metamodel, load_metamodel
from .model import ModelElement, parse_cache, resolve
from .textsyntax import LineIndex, Parser, format_model, parse_document
from .xmlio import XmlNameMap, from_eaxml, to_eaxml

OK = 0
DATA_ERROR = 1
USAGE_ERROR = 2


class _UsageError(ToolchainError):
    """An input the CLI cannot use: a file it cannot read or write, a
    cursor outside the text."""


def _read_text(path: str) -> str:
    """The file's text, without a leading UTF-8 byte-order mark."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot read {path}: {_undecodable(exc)}") from None


def _undecodable(exc: UnicodeDecodeError) -> str:
    """Which byte is not UTF-8, and where: at the line and column that a
    parse of the text would give it, in characters after the byte-order
    mark. A whole read decodes the file in one call, so ``exc.object``
    holds every byte after the mark."""
    before = exc.object[:exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    line, col, _, _ = LineIndex(before).span(len(before), len(before))
    return (
        f"byte 0x{exc.object[exc.start]:02x} at line {line}, column {col} "
        f"is not UTF-8 ({exc.reason})"
    )


def _atomic_write(path: str, data: str) -> None:
    """Write via a temp file beside the file and rename, so readers never
    see halves. A link is followed, so the file it names is replaced; a
    path that names something else than a file, such as a device or a
    pipe, is written in place. A replaced file keeps its mode, and a new
    one gets the mode that creating it would give under the umask."""
    import tempfile

    target = os.path.realpath(path)
    tmp = None
    try:
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = stat.S_IFREG | 0o666 & ~umask
        if not stat.S_ISREG(mode):
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(data)
            return
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".eatxt-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, stat.S_IMODE(mode))
            fh.write(data)
        os.replace(tmp, target)
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


def _adapt(args: argparse.Namespace, g: Grammar) -> tuple[Grammar, AdaptationReport]:
    """``g`` adapted by the --config file; an error in the config names it."""
    try:
        return adapt_grammar(g, parse_config(_read_text(args.config)))
    except ConfigError as exc:
        raise _UsageError(f"{args.config}: {exc}") from None


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
        parse = parse_document(_read_text(args.model), g, mm)
        root, diags = parse.root, parse.diagnostics
    _print_diags(args.model, diags, sys.stderr)
    return None if has_errors(diags) else root


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_grammar(args: argparse.Namespace, mm: Metamodel, g: None) -> int:
    _emit_output(args, emit_grammar(generate_grammar(mm)))
    return OK


def cmd_adapt(args: argparse.Namespace, mm: Metamodel, g: None) -> int:
    adapted, report = _adapt(args, generate_grammar(mm))
    rendered = report.render()
    if rendered:
        print(rendered)
    _emit_output(args, emit_grammar(adapted))
    return OK


def cmd_check(args: argparse.Namespace, mm: Metamodel, g: Grammar) -> int:
    parse = parse_document(_read_text(args.model), g, mm)
    root, diags, lines = parse.root, parse.diagnostics, parse.lines
    del parse  # resolve needs the tree and its line index, not the parse's bodies
    if root is not None:
        diags = diags + resolve(root, mm, lines)
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


def _cursor_offset(lines: LineIndex, line: int, col: int) -> int:
    """Offset of a 1-based position that must lie in the text."""
    try:
        return lines.offset(line, col)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def cmd_complete(args: argparse.Namespace, mm: Metamodel, g: Grammar) -> int:
    with Parser(_read_text(args.model), g, mm) as parse:
        ctx = context_at(parse, _cursor_offset(parse.lines, args.line, args.col))
        proposals = compute_proposals(ctx, g, mm, parse_cache(parse, mm))
    for p in proposals:
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
    # Each tree and text is dropped once nothing reads it, so that the
    # command holds one tree at a time. The EAXML is written first, so that
    # the canonical text is not held beside the writer's chunks.
    xml = to_eaxml(root, mm, names)
    canonical = format_model(root, g)
    del root
    back, xml_diags = from_eaxml(xml, mm, names)
    del xml
    if back is None or has_errors(xml_diags):
        # A line:col would point into the intermediate EAXML, not the file.
        for d in xml_diags:
            print(f"{args.model}: {d.severity}: {d.message}", file=sys.stderr)
        return DATA_ERROR
    recovered = format_model(back, g)

    if recovered == canonical:
        return OK
    import difflib

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

# Options: option strings, help, whether required, and the type that reads
# the value (None for a string). The destination is the last, long string.
_METAMODEL = (("--metamodel",), "metamodel XMI file", True, None)
_OUT = (("-o", "--out"), "output file (default: stdout)", False, None)
_MODEL_OPTIONS = (
    _METAMODEL,
    (("--config",), "grammar adaptation config", False, None),
    (("--grammar-cache",),
     "ignored; the grammar is always built from --metamodel and --config", False, None),
)

# Subcommands: name -> handler, help, whether it takes a model file, and its
# options in the order that the help lists them.
_COMMANDS = {
    "gen-grammar": (cmd_gen_grammar, "emit the grammar generated from a metamodel", False,
                    (_METAMODEL, _OUT)),
    "adapt": (cmd_adapt, "emit the grammar after applying a config", False,
              (_METAMODEL, _OUT, (("--config",), "grammar adaptation config", True, None))),
    "check": (cmd_check, "parse and resolve a model, printing diagnostics", True,
              _MODEL_OPTIONS),
    "to-xml": (cmd_to_xml, "convert textual model to XML", True, (*_MODEL_OPTIONS, _OUT)),
    "to-text": (cmd_format, "convert XML model to canonical text", True,
                (*_MODEL_OPTIONS, _OUT)),
    "complete": (cmd_complete, "print completion proposals for a position", True,
                 (*_MODEL_OPTIONS, (("--line",), "1-based line", True, int),
                  (("--col",), "1-based column", True, int))),
    "format": (cmd_format, "rewrite a model in canonical form", True, (*_MODEL_OPTIONS, _OUT)),
    "roundtrip-check": (cmd_roundtrip_check,
                        "verify text -> XML -> text reproduces the canonical form", True,
                        _MODEL_OPTIONS),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser with every subcommand. It prints the usage, the
    help and every error about a command line."""
    parser = argparse.ArgumentParser(
        prog="eatxt",
        description="Textual modeling toolchain: grammar generation, parsing, "
        "formatting, completion, and XML exchange.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, model, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if model:
            sp.add_argument("model", help="input file")
        for strings, option_help, required, kind in options:
            sp.add_argument(*strings, help=option_help, required=required, type=kind)
        sp.set_defaults(func=func)
    return parser


def _read_plain(argv: list[str]) -> argparse.Namespace | None:
    """The namespace that :func:`build_parser` returns for a plain command
    line, or None for any other, printing nothing either way.

    A plain command line names a subcommand first. Each word after it is
    one of that subcommand's option strings, in full, followed by a value,
    or a positional; neither value nor positional starts with ``-``. Every
    option occurs at most once, the required ones and the model file are
    there, and each value reads as its type. Anything else, help included,
    is argparse's to read or refuse."""
    spec = _COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    func, _, model, options = spec
    values = {}
    by_string = {}
    required = []
    for strings, _, needed, kind in options:
        dest = strings[-1][2:].replace("-", "_")
        values[dest] = None
        if needed:
            required.append(dest)
        for string in strings:
            by_string[string] = dest, kind
    positionals = []
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            positionals.append(word)
            continue
        option = by_string.get(word)
        value = next(words, "-")  # a missing value reads as one that is not plain
        if option is None or value.startswith("-") or values[option[0]] is not None:
            return None
        dest, kind = option
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        values[dest] = value
    if len(positionals) != int(model) or any(values[dest] is None for dest in required):
        return None
    if model:
        values["model"] = positionals[0]
    return argparse.Namespace(command=argv[0], func=func, **values)


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The command line as :func:`main` reads it: directly when it is
    plain, and through :func:`build_parser` otherwise."""
    args = _read_plain(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parse_args(argv)
    try:
        mm = _load_mm(args)
        g = None
        if "model" in args:
            g = generate_grammar(mm)
            if args.config:
                g, _ = _adapt(args, g)
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
    except MemoryError:
        pass
    # Out of memory: reported once the exception has let go of the frames
    # that held the command's data.
    print(f"error: {args.command} {getattr(args, 'model', args.metamodel)}: out of memory",
          file=sys.stderr)
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

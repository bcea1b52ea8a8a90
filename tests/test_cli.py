"""End-to-end runs of the command line front end.

Everything goes through main(argv) so the tests stay fast; one test execs
the installed console script to prove the wiring.
"""

import contextlib
import errno
import functools
import gc
import io
import os
import pathlib
import random
import re
import stat
import subprocess
import sys
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

import eatxt.cli
import eatxt.textsyntax
from eatxt.cli import main
from eatxt.diagnostics import ERROR, ConfigError, Diagnostic, MetamodelError, Span
from eatxt.grammar import (
    AdaptationConfig, adapt_grammar, emit_grammar, generate_grammar, parse_config,
    render_directive,
)
from eatxt.metamodel import load_metamodel
from eatxt.assist import complete, context_at
from eatxt.model import build_cache
from eatxt.textsyntax import LineIndex, format_model, parse_document, parse_model
from eatxt.xmlio import to_eaxml

from support import (
    CONFIG, EXTRA, GOLDEN, METAMODEL, MODELS, line_starts, mutated_ecores, parse_record,
    random_directives, random_model, reference_build_parser, reference_load_metamodel,
)

WIPER = MODELS[0].parent / "wiper_system.eatxt"

DIAG_LINE = re.compile(r"^.+?:\d+:\d+: (error|warning): .+$")


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def base_args(model):
    return ["check", model, "--metamodel", METAMODEL, "--config", CONFIG]


# --- grammar commands --------------------------------------------------------


def test_gen_grammar_prints_grammar(capsys):
    code, out, err = run(capsys, "gen-grammar", "--metamodel", METAMODEL)
    assert code == 0 and err == ""
    assert out == (GOLDEN / "generated.gtext").read_text(encoding="utf-8")


def test_gen_grammar_writes_file(capsys, tmp_path):
    target = tmp_path / "out" "grammar.gtext"
    code, out, _ = run(
        capsys, "gen-grammar", "--metamodel", METAMODEL, "-o", target
    )
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8").startswith("EAPackage returns")


def test_adapt_writes_grammar_and_reports(capsys, tmp_path):
    target = tmp_path / "adapted.gtext"
    code, out, err = run(
        capsys,
        "adapt",
        "--metamodel",
        METAMODEL,
        "--config",
        CONFIG,
        "-o",
        target,
    )
    assert code == 0 and err == ""
    assert "hoist-short-name *: 7 rule(s) hoisted" in out
    assert target.read_text(encoding="utf-8") == (GOLDEN / "adapted.gtext").read_text(
        encoding="utf-8"
    )


def test_adapt_requires_config(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["adapt", "--metamodel", str(METAMODEL)])
    assert exc.value.code == 2


def test_missing_metamodel_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "gen-grammar", "--metamodel", tmp_path / "no.ecore")
    assert code == 2
    assert "no.ecore" in err


# Root's containment targets an abstract class that no concrete class extends.
UNGENERATABLE_MM = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<ecore:EPackage xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"'
    ' xmlns:ecore="http://www.eclipse.org/emf/2002/Ecore" name="p" rootClass="Root">'
    '<eClassifiers xsi:type="ecore:EClass" name="Ghost" abstract="true"/>'
    '<eClassifiers xsi:type="ecore:EClass" name="Root">'
    '<eStructuralFeatures xsi:type="ecore:EReference" name="kids"'
    ' eType="#//Ghost" containment="true" upperBound="-1"/>'
    "</eClassifiers></ecore:EPackage>"
)


@pytest.mark.parametrize("command", ["gen-grammar", "check"])
def test_ungeneratable_grammar_is_usage_error(capsys, tmp_path, command):
    bad = tmp_path / "ghost.ecore"
    bad.write_text(UNGENERATABLE_MM, encoding="utf-8")
    argv = [command, "--metamodel", bad] + ([WIPER] if command == "check" else [])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "error: containment 'Root.kids' targets 'Ghost'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["to-xml", "to-text", "roundtrip-check"])
def test_metamodel_without_xml_tags_is_usage_error(capsys, tmp_path, command):
    # Text commands work with this metamodel; XML needs a tag per class.
    source = METAMODEL.read_text(encoding="utf-8")
    bad = tmp_path / "underscore.ecore"
    bad.write_text(re.sub(r"\bEAPackage\b", "EA_Package", source), encoding="utf-8")
    model = tmp_path / "m.eatxt"
    model.write_text("EA_Package P\n", encoding="utf-8")
    argv = ["--metamodel", bad, "--config", CONFIG]
    assert run(capsys, "check", model, *argv) == (0, "", "")
    code, out, err = run(capsys, command, model, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: {bad}: identifier 'EA_Package' cannot be mapped to an XML tag\n"
    )


@pytest.mark.parametrize("command", ["to-xml", "to-text", "roundtrip-check"])
def test_members_sharing_a_tag_are_a_usage_error(capsys, tmp_path, command):
    # Comment.IsElementary and DesignFunctionType.isElementary are both
    # <IS-ELEMENTARY>; text commands do not care.
    source = METAMODEL.read_text(encoding="utf-8")
    bad = tmp_path / "clash.ecore"
    bad.write_text(source.replace(
        '<eStructuralFeatures xsi:type="ecore:EAttribute" name="text" eType="#//String0"/>',
        '<eStructuralFeatures xsi:type="ecore:EAttribute" name="text" eType="#//String0"/>'
        '<eStructuralFeatures xsi:type="ecore:EAttribute" name="IsElementary" eType="#//Boolean"/>',
    ), encoding="utf-8")
    argv = ["--metamodel", bad, "--config", CONFIG]
    assert run(capsys, "check", WIPER, *argv) == (0, "", "")
    assert run(capsys, command, WIPER, *argv) == (
        2, "",
        f"error: {bad}: members 'IsElementary' and 'isElementary' map to the same tag "
        "IS-ELEMENTARY\n",
    )


def test_broken_config_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("frobnicate *\n", encoding="utf-8")
    code, _, err = run(
        capsys, "adapt", "--metamodel", METAMODEL, "--config", bad
    )
    assert code == 2
    assert err == f"error: {bad}: line 1: unknown directive 'frobnicate'\n"


def test_rejected_config_names_its_file_for_model_commands(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "remove-attribute-keyword FunctionFlowPort *\n", encoding="utf-8"
    )
    code, out, err = run(
        capsys, "check", WIPER, "--metamodel", METAMODEL, "--config", bad
    )
    assert code == 2 and out == ""
    assert err.startswith(
        f"error: {bad}: remove-attribute-keyword FunctionFlowPort *: "
        "rule 'FunctionFlowPort' would have 2 positional attributes"
    )


# --- check -------------------------------------------------------------------


def test_check_clean_corpus(capsys):
    for path in MODELS:
        code, out, err = run(capsys, *base_args(path))
        assert (code, out, err) == (0, "", ""), path.name


def test_check_reports_diagnostics_with_positions(capsys):
    code, out, _ = run(capsys, *base_args(EXTRA / "broken_syntax.eatxt"))
    assert code == 1
    lines = out.splitlines()
    assert lines and all(DIAG_LINE.match(line) for line in lines)
    assert all(line.startswith(str(EXTRA / "broken_syntax.eatxt")) for line in lines)


def test_check_flags_dangling_references(capsys):
    code, out, _ = run(capsys, *base_args(EXTRA / "dangling_ref.eatxt"))
    assert code == 1
    assert "unresolved reference" in out


def test_check_accepts_messy_formatting(capsys):
    code, _, _ = run(capsys, *base_args(EXTRA / "messy_but_valid.eatxt"))
    assert code == 0


def test_check_warnings_alone_keep_exit_zero(capsys):
    code, out, _ = run(capsys, *base_args(EXTRA / "duplicate_names.eatxt"))
    assert code == 1  # duplicate FQNs are reported as errors on resolve
    assert "duplicate" in out


# --- converters --------------------------------------------------------------


def test_to_xml_matches_golden(capsys):
    code, out, err = run(
        capsys, "to-xml", WIPER, "--metamodel", METAMODEL, "--config", CONFIG
    )
    assert code == 0 and err == ""
    assert out == (GOLDEN / "wiper_system.eaxml").read_text(encoding="utf-8")


def test_xml_and_back_restores_the_text(capsys, tmp_path):
    xml_file = tmp_path / "m.eaxml"
    code, _, _ = run(
        capsys,
        "to-xml",
        WIPER,
        "--metamodel",
        METAMODEL,
        "--config",
        CONFIG,
        "-o",
        xml_file,
    )
    assert code == 0
    code, out, err = run(
        capsys, "to-text", xml_file, "--metamodel", METAMODEL, "--config", CONFIG
    )
    assert code == 0
    assert out == WIPER.read_text(encoding="utf-8")


def test_to_xml_rejects_broken_input(capsys):
    code, _, err = run(
        capsys,
        "to-xml",
        EXTRA / "broken_syntax.eatxt",
        "--metamodel",
        METAMODEL,
        "--config",
        CONFIG,
    )
    assert code == 1
    assert err != ""


def test_format_canonicalizes_messy_input(capsys, tmp_path):
    out_file = tmp_path / "clean.eatxt"
    code, _, _ = run(
        capsys,
        "format",
        EXTRA / "messy_but_valid.eatxt",
        "--metamodel",
        METAMODEL,
        "--config",
        CONFIG,
        "-o",
        out_file,
    )
    assert code == 0
    text = out_file.read_text(encoding="utf-8")
    assert text.endswith("\n")
    code2, out2, _ = run(
        capsys,
        "format",
        out_file,
        "--metamodel",
        METAMODEL,
        "--config",
        CONFIG,
    )
    assert code2 == 0 and out2 == text


def test_output_into_a_missing_directory_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "grammar.gtext"
    code, out, err = run(capsys, "gen-grammar", "--metamodel", METAMODEL, "-o", target)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


def test_output_files_are_written_atomically(capsys, tmp_path):
    target = tmp_path / "result.gtext"
    target.write_text("old content", encoding="utf-8")
    code, _, _ = run(capsys, "gen-grammar", "--metamodel", METAMODEL, "-o", target)
    assert code == 0
    assert "old content" not in target.read_text(encoding="utf-8")
    leftovers = [p for p in tmp_path.iterdir() if p != target]
    assert leftovers == []


def test_a_failed_rename_removes_the_temp_file(capsys, tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    target = tmp_path / "out.eatxt"
    code, out, err = run(
        capsys, "format", WIPER, "--metamodel", METAMODEL, "--config", CONFIG, "-o", target,
    )
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: {os.strerror(errno.EXDEV)}\n"
    assert list(tmp_path.iterdir()) == []


def test_output_into_a_pipe_writes_into_it(capsys, tmp_path):
    # The rename used to replace the pipe with a file, the reader seeing
    # nothing. The grammar is far below a pipe's buffer, so nothing blocks.
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
    try:
        result = run(capsys, "gen-grammar", "--metamodel", METAMODEL, "-o", pipe)
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert result == (0, "", "")
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert data.decode("utf-8") == (GOLDEN / "generated.gtext").read_text(encoding="utf-8")
    assert os.listdir(tmp_path) == ["pipe"]


def test_output_through_a_link_replaces_the_file_it_names(capsys, tmp_path):
    target = tmp_path / "real" / "result.gtext"
    target.parent.mkdir()
    target.write_text("old content", encoding="utf-8")
    link = tmp_path / "link.gtext"
    link.symlink_to(target)
    result = run(capsys, "gen-grammar", "--metamodel", METAMODEL, "-o", link)
    assert result == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8") == (GOLDEN / "generated.gtext").read_text(
        encoding="utf-8"
    )
    assert sorted(os.listdir(tmp_path)) == ["link.gtext", "real"]
    assert os.listdir(target.parent) == ["result.gtext"]


def test_output_files_keep_the_mode_a_plain_write_gives(capsys, tmp_path):
    # mkstemp makes the temp file behind the rename private (0600); the
    # output still gets the mode a plain write would give it.
    new, old = tmp_path / "new.gtext", tmp_path / "old.gtext"
    old.write_text("old content", encoding="utf-8")
    old.chmod(0o640)
    umask = os.umask(0o022)
    try:
        for target in (new, old):
            result = run(capsys, "gen-grammar", "--metamodel", METAMODEL, "-o", target)
            assert result == (0, "", ""), target.name
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o644
    assert stat.S_IMODE(old.stat().st_mode) == 0o640


# --- --grammar-cache ---------------------------------------------------------

STALE_CACHE = EXTRA / "stale_grammar_cache.json"

# Each model command on the wiper model, or on its EAXML for to-text;
# complete at the ``isElementary`` line, whose keyword the stale cache renames.
_MODEL_RUNS = {
    "check": ["check", WIPER],
    "format": ["format", WIPER],
    "to-xml": ["to-xml", WIPER],
    "to-text": ["to-text", GOLDEN / "wiper_system.eaxml"],
    "complete": ["complete", WIPER, "--line", 17, "--col", 13],
    "roundtrip-check": ["roundtrip-check", WIPER],
}


def model_run(command):
    return [*_MODEL_RUNS[command], "--metamodel", METAMODEL, "--config", CONFIG]


def cache_path(tmp_path, kind):
    """A --grammar-cache path of the given kind."""
    if kind == "stale":
        # Written by ``check --grammar-cache`` when a cache was still read,
        # with the ``isElementary`` keyword changed to ``isAtomic``.
        return STALE_CACHE
    path = tmp_path / "grammar.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "invalid-json":
        path.write_text("{not json", encoding="utf-8")
    elif kind == "byte-order-mark":
        fresh = STALE_CACHE.read_bytes().replace(b'"isAtomic"', b'"isElementary"')
        path.write_bytes(b"\xef\xbb\xbf" + fresh)
    return path


def path_state(path):
    """None for a missing path, a directory's listing, or a file's bytes."""
    if path.is_dir():
        return sorted(os.listdir(path))
    return path.read_bytes() if path.exists() else None


@pytest.mark.parametrize(
    "kind", ["missing", "directory", "invalid-json", "byte-order-mark", "stale"]
)
@pytest.mark.parametrize("command", list(_MODEL_RUNS))
def test_grammar_cache_flag_changes_nothing(capsys, tmp_path, command, kind):
    # The grammar is always generated and adapted: the flag is accepted so
    # that existing invocations run, but nothing at its path is read,
    # created or changed.
    cache = cache_path(tmp_path, kind)
    before = path_state(cache)
    argv = model_run(command)
    assert run(capsys, *argv, "--grammar-cache", cache) == run(capsys, *argv)
    assert path_state(cache) == before


@settings(max_examples=60, deadline=None)
@given(content=st.binary(), command=st.sampled_from(list(_MODEL_RUNS)))
def test_grammar_cache_flag_ignores_any_file_content(tmp_path_factory, content, command):
    cache = tmp_path_factory.getbasetemp() / "arbitrary.json"
    cache.write_bytes(content)
    argv = model_run(command)
    assert run_quiet([*argv, "--grammar-cache", cache]) == run_quiet(argv)
    assert cache.read_bytes() == content


def test_grammar_cache_flag_naming_a_pipe_does_not_block(tmp_path):
    # Opening a pipe for reading waits for a writer, so a run that read
    # the cache would hang; each runs in its own process, under a timeout.
    fifo = tmp_path / "grammar.json"
    os.mkfifo(fifo)
    for command in _MODEL_RUNS:
        argv = [str(a) for a in model_run(command)]
        with_flag = subprocess.run(
            [sys.executable, "-m", "eatxt.cli", *argv, "--grammar-cache", str(fifo)],
            capture_output=True, text=True, timeout=30,
        )
        assert (with_flag.returncode, with_flag.stdout, with_flag.stderr) == run_quiet(argv), (
            command
        )
    assert stat.S_ISFIFO(fifo.stat().st_mode) and os.listdir(tmp_path) == ["grammar.json"]


# --- complete ----------------------------------------------------------------


def complete_args(path, line, col):
    return [
        "complete",
        path,
        "--metamodel",
        METAMODEL,
        "--config",
        CONFIG,
        "--line",
        line,
        "--col",
        col,
    ]


def test_complete_emits_kind_and_tab_separated_text(capsys):
    code, out, err = run(capsys, *complete_args(WIPER, 17, 13))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "KEYWORD\tFunctionClientServerPort"
    flow = next(l for l in lines if l.startswith("TEMPLATE\tFunctionFlowPort"))
    assert (
        flow
        == "TEMPLATE\tFunctionFlowPort ${1:name}\\n{\\n    direction ${2:Identifier}"
        "\\n    type WiperSystem.Datatypes.Boolean\\n}"
    )
    kinds = [l.split("\t")[0] for l in lines]
    assert kinds == sorted(kinds, key=lambda k: k == "TEMPLATE")


def test_complete_on_empty_file_offers_the_root(capsys, tmp_path):
    empty = tmp_path / "empty.eatxt"
    empty.write_text("", encoding="utf-8")
    code, out, _ = run(capsys, *complete_args(empty, 1, 1))
    assert code == 0
    assert out.splitlines() == [
        "KEYWORD\tEAPackage",
        "TEMPLATE\tEAPackage ${1:name}",
    ]


def test_complete_inside_string_prints_nothing(capsys, tmp_path):
    f = tmp_path / "m.eatxt"
    f.write_text('EAPackage P\n{\n    name "hello"\n}\n', encoding="utf-8")
    code, out, _ = run(capsys, *complete_args(f, 3, 13))
    assert code == 0 and out == ""


def test_complete_lexes_the_document_once(capsys, monkeypatch):
    """One lexer pass, through the parser's own token columns, and one
    line index; no reference cache over the whole model and no numbering
    walk over the tree. Reference counting frees the parse, which stops
    early, when the command ends."""
    import eatxt.model
    import eatxt.textsyntax

    calls = {"lex": [], "build_cache": []}
    indexes = []
    token_sources = []
    walks = []
    index_init = eatxt.textsyntax.LineIndex.__init__
    tokens_init = eatxt.textsyntax.Tokens.__init__
    parser_init = eatxt.textsyntax.Parser.__init__
    parsers = []
    iter_preorder = eatxt.model.ModelElement.iter_preorder

    def counting_index_init(self, text):
        indexes.append(text)
        index_init(self, text)

    def counting_tokens_init(self, text, terminals):
        token_sources.append(text)
        tokens_init(self, text, terminals)

    def watched_parser_init(self, *args):
        parsers.append(weakref.ref(self))
        parser_init(self, *args)

    def counting_iter_preorder(self):
        walks.append(self)
        return iter_preorder(self)

    monkeypatch.setattr(eatxt.textsyntax.LineIndex, "__init__", counting_index_init)
    monkeypatch.setattr(eatxt.textsyntax.Tokens, "__init__", counting_tokens_init)
    monkeypatch.setattr(eatxt.textsyntax.Parser, "__init__", watched_parser_init)
    monkeypatch.setattr(eatxt.model.ModelElement, "iter_preorder", counting_iter_preorder)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name].append(args[0])
            return original(*args, **kwargs)
        return wrapper

    # Patch every module's binding, as a caller importing by name sees it.
    for original in (eatxt.textsyntax.lex, eatxt.model.build_cache):
        wrapper = counting(original.__name__, original)
        for name, module in list(sys.modules.items()):
            if name == "eatxt" or name.startswith("eatxt."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
    gc.disable()
    try:
        code, out, _ = run(capsys, *complete_args(WIPER, 17, 13))
        assert len(parsers) == 1 and parsers[0]() is None
    finally:
        gc.enable()
    assert code == 0 and "TEMPLATE\tFunctionFlowPort" in out
    assert len(token_sources) == 1 and calls["lex"] == []
    assert len(indexes) == 1
    assert calls["build_cache"] == []
    assert walks == []
    assert not hasattr(eatxt.model, "assign_preorder_ids")


def test_complete_position_out_of_range_is_usage_error(capsys, tmp_path):
    f = tmp_path / "m.eatxt"
    f.write_text("EAPackage P\n", encoding="utf-8")
    for line, col, message in (
        (99, 1, "line 99 out of range (1..2)"),
        (3, 1, "line 3 out of range (1..2)"),
        (0, 1, "line 0 out of range (1..2)"),
        (1, 99, "column 99 out of range (1..12) on line 1"),
        (1, 13, "column 13 out of range (1..12) on line 1"),
        (2, 2, "column 2 out of range (1..1) on line 2"),
        (1, 0, "column 0 out of range (1..12) on line 1"),
        # Beyond what a machine-sized integer holds.
        (10**20, 1, f"line {10**20} out of range (1..2)"),
        (-10**20, 10**20, f"line {-10**20} out of range (1..2)"),
        (1, 10**20, f"column {10**20} out of range (1..12) on line 1"),
        (2, -10**20, f"column {-10**20} out of range (1..1) on line 2"),
    ):
        code, _, err = run(capsys, *complete_args(f, line, col))
        assert code == 2, (line, col)
        assert message in err
    for line, col in ((1, 12), (2, 1)):
        code, _, _ = run(capsys, *complete_args(f, line, col))
        assert code == 0, (line, col)


def line_start_offset(text, line, col):
    """What the cursor check must answer, from every line start of the
    text: an offset, or the message of the usage error."""
    starts = line_starts(text)
    count = len(starts)
    if line < 1 or line > count:
        return f"line {line} out of range (1..{count})"
    width = (starts[line] if line < count else len(text) + 1) - starts[line - 1]
    if col < 1 or col > width:
        return f"column {col} out of range (1..{width}) on line {line}"
    return starts[line - 1] + col - 1


@given(st.text(alphabet="a \n", max_size=30))
@example("")
@example("\n\n\n")
@example("ab")
@example("ab\nc\n")
def test_cursor_check_agrees_with_the_line_starts(text):
    starts = line_starts(text) + [len(text) + 1]
    for line in range(-1, len(starts) + 2):
        width = starts[line] - starts[line - 1] if 1 <= line < len(starts) else 0
        for col in range(-1, width + 3):
            try:
                got = eatxt.cli._cursor_offset(LineIndex(text), line, col)
            except eatxt.cli._UsageError as exc:
                got = str(exc)
            assert got == line_start_offset(text, line, col), (line, col)


def test_complete_works_on_files_with_errors(capsys):
    code, out, _ = run(capsys, *complete_args(EXTRA / "broken_syntax.eatxt", 2, 2))
    assert code == 0
    assert any(l.startswith("KEYWORD\t") for l in out.splitlines())


def test_complete_places_a_half_typed_keyword_without_the_whole_line_index(
    capsys, monkeypatch, tmp_path, g, mm,
):
    """The prefix parse reports the half-typed keyword under the cursor.
    Placing that report finds the line starts only as far as the keyword,
    not those of the whole text."""
    lines = format_model(random_model(5, mm, max_elements=400, fan_out=8), g).split("\n")
    assert lines[1] == "{" and len(lines) > 1000
    model = tmp_path / "m.eatxt"
    model.write_text("\n".join(lines[:2] + ["    Fun"] + lines[2:]), encoding="utf-8")
    indexes = []
    index_init = eatxt.textsyntax.LineIndex.__init__

    def recording_index_init(self, text):
        indexes.append(self)
        index_init(self, text)

    monkeypatch.setattr(eatxt.textsyntax.LineIndex, "__init__", recording_index_init)
    code, out, _ = run(capsys, *complete_args(model, 3, 8))
    assert code == 0 and "TEMPLATE\tDesignFunctionType" in out
    (index,) = indexes
    assert index._starts == [0, len(lines[0]) + 1, len(lines[0]) + 3]


class WatchedPattern:
    """A compiled pattern whose ``finditer`` calls record the range of
    text that each one has read: from where it starts to the end of the
    last match taken from it, or to where it stops once it has run out.
    Any other use fails."""

    def __init__(self, pattern, scans):
        self.pattern = pattern
        self.scans = scans

    def finditer(self, text, pos=0, endpos=sys.maxsize):
        scan = [pos, pos]
        self.scans.append(scan)
        for m in self.pattern.finditer(text, pos, endpos):
            scan[1] = m.end()
            yield m
        scan[1] = min(endpos, len(text))

    def __getattr__(self, name):
        raise AssertionError(f"unwatched use of the newline pattern: {name}")


def test_complete_scans_for_newlines_once(capsys, monkeypatch, tmp_path, g, mm):
    """Placing the cursor and then the half-typed keyword under it finds
    each newline once, and none past the cursor's line."""
    lines = format_model(random_model(5, mm, max_elements=400, fan_out=8), g).split("\n")
    assert lines[1] == "{" and len(lines) > 1000
    model = tmp_path / "m.eatxt"
    model.write_text("\n".join(lines[:2] + ["    Fun"] + lines[2:]), encoding="utf-8")
    scans = []
    for module in (eatxt.textsyntax, eatxt.cli):
        if hasattr(module, "_NEWLINE"):
            monkeypatch.setattr(module, "_NEWLINE", WatchedPattern(module._NEWLINE, scans))
    code, out, _ = run(capsys, *complete_args(model, 3, 8))
    assert code == 0 and "TEMPLATE\tDesignFunctionType" in out
    line_3_end = len(lines[0]) + 1 + len(lines[1]) + 1 + len("    Fun")
    assert scans and max(end for _, end in scans) <= line_3_end
    scans.sort()
    for (_, end), (start, _) in zip(scans, scans[1:]):
        assert end <= start, scans


def nested_packages(depth):
    """``depth`` packages, each in the body of the one before: the text as
    typed, with every body braced, and its canonical form."""
    typed = "".join(f"EAPackage P{d}\n{{\n" for d in range(depth)) + "}\n" * depth
    lines = []
    for d in range(depth - 1):
        lines += ["    " * d + f"EAPackage P{d}", "    " * d + "{"]
    lines.append("    " * (depth - 1) + f"EAPackage P{depth - 1}")
    lines += ["    " * d + "}" for d in reversed(range(depth - 1))]
    return typed, "\n".join(lines) + "\n"


def test_deep_nesting_runs_every_command(capsys, tmp_path):
    deep = tmp_path / "deep.eatxt"
    for depth in (400, 2000, 5000):
        typed, canonical = nested_packages(depth)
        deep.write_text(typed, encoding="utf-8")
        assert run(capsys, *base_args(deep)) == (0, "", ""), depth
        code, out, err = run(capsys, *complete_args(deep, depth + 1, 1))
        assert (code, err) == (0, "") and out.startswith("KEYWORD\t"), depth
        if depth > 2000:
            continue  # canonical text grows with depth squared: 150 MB at 5000
        tool = ["--metamodel", METAMODEL, "--config", CONFIG]
        assert run(capsys, "format", deep, *tool) == (0, canonical, ""), depth
        code, out, err = run(capsys, "to-xml", deep, *tool)
        assert (code, err) == (0, "") and out.count("<EA-PACKAGE>") == depth, depth
        assert run(capsys, "roundtrip-check", deep, *tool) == (0, "", ""), depth


# Runs main in a process whose address space may grow only 64 MB past what
# it maps once eatxt is imported. The limit is the child's own.
OUT_OF_MEMORY = """
import resource, sys
from eatxt.cli import main
with open("/proc/self/status") as status:
    kb = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, ((kb + 64 * 1024) * 1024, hard))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_running_out_of_memory_exits_two_with_one_line(tmp_path):
    """150,000 sibling packages, a flat model whose check needs about twice
    the 64 MB the child may add, end in one line and the usage exit code,
    not a traceback."""
    wide = tmp_path / "wide.eatxt"
    wide.write_text(
        "EAPackage Root\n{\n" + "".join(f"    EAPackage P{i}\n" for i in range(150_000)) + "}\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-c", OUT_OF_MEMORY, *map(str, base_args(wide))],
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: check {wide}: out of memory\n"


FIXTURE_TEXTS = [path.read_text(encoding="utf-8") for path in MODELS]


def edited(draw, text):
    """``text`` after up to three edits: a brace inserted or deleted, or
    the text cut short."""
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["insert", "delete", "truncate"]))
        if edit == "insert":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from("{}")) + text[at:]
        elif edit == "delete":
            braces = [at for at, ch in enumerate(text) if ch in "{}"]
            if braces:
                at = draw(st.sampled_from(braces))
                text = text[:at] + text[at + 1:]
        else:
            text = text[: draw(st.integers(0, len(text)))]
    return text


@st.composite
def mutated_models(draw):
    """A fixture model, often nested 300 or 1200 packages deep, after up to
    three edits: a brace inserted or deleted, or the text cut short.
    Hypothesis allows about 2000 more frames of recursion while it runs a
    test, so only the deeper nesting would show a recursive walk."""
    text = draw(st.sampled_from(FIXTURE_TEXTS))
    depth = draw(st.sampled_from([0, 300, 1200]))
    text = "EAPackage Deep\n{\n" * depth + text + "}\n" * depth
    return edited(draw, text)


@functools.cache
def generated_fixture_texts():
    """The fixture models reprinted in the generated syntax."""
    mm = load_metamodel(METAMODEL.read_text(encoding="utf-8"))
    g, _ = adapt_grammar(generate_grammar(mm), parse_config(CONFIG.read_text(encoding="utf-8")))
    gen_g = generate_grammar(mm)
    return [format_model(parse_model(text, g, mm)[0], gen_g) for text in FIXTURE_TEXTS]


@st.composite
def mutated_generated_models(draw):
    """A fixture model in the generated syntax, where ``shortName`` is a
    body keyword, often nested 300 or 1200 packages deep. Some names move
    to the end of their body, after the children, as every package around
    the fixture has its name; then up to three edits as in
    ``mutated_models``."""
    text = draw(st.sampled_from(generated_fixture_texts()))
    rng = random.Random(draw(st.integers(0, 2 ** 16), label="late names"))
    lines: list[str] = []
    late: list[list[str]] = []  # per open brace, the name lines moved to its end
    for line in text.split("\n"):
        stripped = line.strip()
        if stripped == "}" and late:
            lines.extend(late.pop())
        elif stripped.startswith("shortName ") and late and rng.random() < 0.5:
            late[-1].append(line)
            continue
        lines.append(line)
        if stripped == "{":
            late.append([])
    depth = draw(st.sampled_from([0, 300, 1200]))
    text = (
        "EAPackage\n{\nsubPackage\n{\n" * depth + "\n".join(lines)
        + "}\nshortName Deep\n}\n" * depth
    )
    return edited(draw, text)


@settings(max_examples=40, deadline=None)
@given(text=mutated_models(), data=st.data())
def test_mutated_models_keep_the_exit_code_contract(tmp_path_factory, text, data):
    model = tmp_path_factory.getbasetemp() / "fuzzed.eatxt"
    model.write_text(text, encoding="utf-8")
    line = data.draw(st.integers(1, text.count("\n") + 1), label="line")
    tool = ["--metamodel", METAMODEL, "--config", CONFIG]
    for argv in (
        ["check", model, *tool],
        ["format", model, *tool],
        ["to-xml", model, *tool],
        ["roundtrip-check", model, *tool],
        ["complete", model, *tool, "--line", line, "--col", 1],
    ):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        assert code in (0, 1, 2), argv[0]
        assert "Traceback" not in err.getvalue(), argv[0]


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def library_reply(text, line, col, g, mm):
    """What ``complete`` prints for a cursor inside ``text``, computed with
    the library calls and a full reference cache."""
    doc = parse_document(text, g, mm)
    offset = sum(len(row) + 1 for row in text.split("\n")[: line - 1]) + col - 1
    cache = build_cache(doc.root, mm) if doc.root is not None else None
    return "".join(
        f"{p.kind.upper()}\t"
        + p.insert_text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")
        + "\n"
        for p in complete(context_at(doc, offset), g, mm, cache)
    )


@settings(max_examples=60, deadline=None)
@given(text=mutated_models(), data=st.data())
def test_complete_cursor_fuzz_matches_the_library(tmp_path_factory, g, mm, text, data):
    model = tmp_path_factory.getbasetemp() / "cursor.eatxt"
    model.write_text(text, encoding="utf-8")
    rows = text.split("\n")
    # Each example places one cursor on an indented line, which lies inside
    # the fixture's bodies where templates get pre-filled references (the
    # deep wrapper's lines are not indented), and one anywhere, the column
    # too in range or just out of it.
    inner = [n for n, row in enumerate(rows, start=1) if row.startswith(" ")] or [1]
    lines = [
        data.draw(st.sampled_from(inner), label="inner line"),
        data.draw(st.integers(-2, len(rows) + 2), label="line"),
    ]
    for line in lines:
        width = len(rows[line - 1]) + 1 if 1 <= line <= len(rows) else 1
        col = data.draw(st.integers(-2, width + 2), label="col")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in complete_args(model, line, col)])
        if 1 <= line <= len(rows) and 1 <= col <= width:
            assert (code, err.getvalue()) == (0, "")
            assert out.getvalue() == library_reply(text, line, col, g, mm)
        else:
            assert code == 2 and out.getvalue() == ""
            assert "out of range" in err.getvalue()


def test_complete_reads_on_to_targets_written_after_the_cursor(tmp_path, g, gen_g, mm):
    """Every fixture with the children of each element in reverse order,
    so that reference targets come after the places that refer to them,
    in both syntaxes: a cursor at the start of each line gets the
    library's reply."""
    model = tmp_path / "reversed.eatxt"
    for path in MODELS:
        root, _ = parse_model(path.read_text(encoding="utf-8"), g, mm)
        for el in root.iter_preorder():
            el.children.reverse()
        for syntax, grammar in (("adapted", g), ("generated", gen_g)):
            text = format_model(root, grammar)
            model.write_text(text, encoding="utf-8")
            tool = ["--metamodel", METAMODEL] + (["--config", CONFIG] if grammar is g else [])
            for line, row in enumerate(text.split("\n")[:-1], start=1):
                col = len(row) - len(row.lstrip()) + 1
                code, out, err = run_quiet(["complete", model, *tool, "--line", line, "--col", col])
                assert (code, err) == (0, "")
                assert out == library_reply(text, line, col, grammar, mm), (path.name, syntax, line)


@settings(max_examples=60, deadline=None)
@given(text=mutated_generated_models(), data=st.data())
def test_complete_cursor_fuzz_matches_the_library_in_the_generated_grammar(
    tmp_path_factory, gen_g, mm, text, data,
):
    """``test_complete_cursor_fuzz_matches_the_library`` without --config:
    names are body keywords, often written after the children, so that
    the parse behind a reply must read on until each name it uses is
    final."""
    model = tmp_path_factory.getbasetemp() / "cursor.eatxt"
    model.write_text(text, encoding="utf-8")
    rows = text.split("\n")
    # Two cursors at the first child of a port or part block, where the
    # templates get pre-filled references (on an indented line if there is
    # no such block), and one anywhere.
    inner = [
        n for n in range(3, len(rows) + 1)
        if rows[n - 2].strip() == "{" and rows[n - 3].strip() in ("port", "part")
    ] or [n for n, row in enumerate(rows, start=1) if row.startswith(" ")] or [1]
    lines = [
        data.draw(st.sampled_from(inner), label="block line"),
        data.draw(st.sampled_from(inner), label="block line"),
        data.draw(st.integers(-2, len(rows) + 2), label="line"),
    ]
    for line in lines:
        width = len(rows[line - 1]) + 1 if 1 <= line <= len(rows) else 1
        col = data.draw(st.integers(-2, width + 2), label="col")
        argv = ["complete", model, "--metamodel", METAMODEL, "--line", line, "--col", col]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        if 1 <= line <= len(rows) and 1 <= col <= width:
            assert (code, err.getvalue()) == (0, "")
            assert out.getvalue() == library_reply(text, line, col, gen_g, mm)
        else:
            assert code == 2 and out.getvalue() == ""
            assert "out of range" in err.getvalue()


@settings(max_examples=30, deadline=None)
@given(adapted=mutated_models(), generated=mutated_generated_models())
def test_lexing_one_token_at_a_time_parses_mutated_models_alike(g, gen_g, mm, adapted, generated):
    for text, grammar in ((adapted, g), (generated, gen_g)):
        expected = parse_record(text, grammar, mm)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(eatxt.textsyntax, "_BATCH", 1)
            assert parse_record(text, grammar, mm) == expected


@settings(max_examples=40, deadline=None)
@given(text=mutated_ecores(), data=st.data())
def test_mutated_metamodels_keep_the_exit_code_contract(tmp_path_factory, text, data):
    # A mutated metamodel that still loads is cut short before its root's
    # end tag, so that every run meets an unusable one.
    try:
        reference_load_metamodel(text)
        end = text.rfind("</ecore:EPackage") + 1
        text = text[: data.draw(st.integers(0, end), label="cut")]
    except MetamodelError:
        pass
    with pytest.raises(MetamodelError) as expected:
        reference_load_metamodel(text)
    ecore = tmp_path_factory.getbasetemp() / "fuzzed.ecore"
    ecore.write_text(text, encoding="utf-8")
    xml = GOLDEN / "wiper_system.eaxml"
    for argv in (
        ["gen-grammar", "--metamodel", ecore],
        ["adapt", "--metamodel", ecore, "--config", CONFIG],
        ["check", WIPER, "--metamodel", ecore, "--config", CONFIG],
        ["to-text", xml, "--metamodel", ecore],
        ["complete", WIPER, "--metamodel", ecore, "--line", 1, "--col", 1],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        assert (code, out.getvalue()) == (2, ""), argv[0]
        assert err.getvalue() == f"error: {ecore}: {expected.value}\n", argv[0]


def exit_code_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


_CONFIG_LINES = CONFIG.read_text(encoding="utf-8").splitlines()
_CONFIG_DAMAGE = [
    "frobnicate *", "hoist-short-name", "optional-body * *", "unfold-containment a-b *",
    "optional-body ?", "hoist-short-name **x", "define-terminal Numerical /[0-9]+",
    "define-terminal UUID [0-9]+/", "define-terminal Boolean /true/false/ x",
    "define-terminal String //", "define-terminal Identifier /(unclosed/",
    "define-terminal Identifier /[/", "define-terminal Identifier /a{2,1}/",
    "define-terminal Whatever /x/", "define-terminal", "remove-attribute-keyword * *",
]


@st.composite
def mutated_configs(draw):
    """``fixtures/default.cfg`` with up to three edits: a word dropped or
    doubled in a line, or a damaged line inserted."""
    lines = list(_CONFIG_LINES)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "double", "insert"]))
        words = lines[at].split(" ")
        if edit == "insert":
            lines.insert(at, draw(st.sampled_from(_CONFIG_DAMAGE)))
        elif edit == "drop":
            del words[draw(st.integers(0, len(words) - 1))]
            lines[at] = " ".join(words)
        else:
            word = draw(st.integers(0, len(words) - 1))
            words.insert(word, words[word])
            lines[at] = " ".join(words)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(text=mutated_configs())
def test_mutated_configs_keep_the_exit_code_contract(tmp_path_factory, text):
    config = tmp_path_factory.getbasetemp() / "fuzzed.cfg"
    config.write_text(text, encoding="utf-8")
    for argv in (
        ["adapt", "--metamodel", METAMODEL, "--config", config],
        ["check", WIPER, "--metamodel", METAMODEL, "--config", config],
    ):
        code, err = exit_code_and_stderr(argv)
        assert code in (0, 1, 2), argv[0]
        assert "Traceback" not in err, argv[0]


POSITIONAL_ERROR = re.compile(
    r"error: .+: .+: rule '\w+' would have \d+ positional attributes \(.+\); "
    r"at most one is allowed\n"
)


@pytest.mark.parametrize("seed", range(20))
def test_adapt_prints_what_the_library_reports_for_seeded_configs(capsys, tmp_path, gen_g, seed):
    directives = random_directives(random.Random(seed))
    config = tmp_path / "seeded.cfg"
    config.write_text("".join(render_directive(d) + "\n" for d in directives), encoding="utf-8")
    code, out, err = run(capsys, "adapt", "--metamodel", METAMODEL, "--config", config)
    try:
        adapted, report = adapt_grammar(gen_g, AdaptationConfig(directives))
    except ConfigError as exc:
        assert (code, out) == (2, "")
        assert err == f"error: {config}: {exc}\n"
        assert POSITIONAL_ERROR.fullmatch(err)
        return
    lines = "".join(e.render() + "\n" for e in report.entries)
    assert (code, out, err) == (0, lines + emit_grammar(adapted), "")


# --- roundtrip-check ---------------------------------------------------------


def test_roundtrip_check_passes_on_corpus(capsys):
    for path in MODELS:
        code, out, _ = run(
            capsys,
            "roundtrip-check",
            path,
            "--metamodel",
            METAMODEL,
            "--config",
            CONFIG,
        )
        assert (code, out) == (0, ""), path.name


@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.stem)
def test_generated_syntax_from_eaxml_checks_and_roundtrips(path, capsys, tmp_path):
    # to-text without a config writes one wrapped block per run of
    # same-member children; the parser accepts the repeated blocks.
    xml, text = tmp_path / "m.eaxml", tmp_path / "m.eatxt"
    argv = ["to-xml", path, "--metamodel", METAMODEL, "--config", CONFIG, "-o", xml]
    assert run(capsys, *argv) == (0, "", "")
    assert run(capsys, "to-text", xml, "--metamodel", METAMODEL, "-o", text) == (0, "", "")
    for command in ("check", "roundtrip-check"):
        assert run(capsys, command, text, "--metamodel", METAMODEL) == (0, "", ""), command
    formatted = text.read_text(encoding="utf-8")
    assert run(capsys, "format", text, "--metamodel", METAMODEL) == (0, formatted, "")


@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.stem)
def test_a_name_without_its_keyword_converts_checks_and_formats(path, capsys, tmp_path):
    # The name written as a bare value in the body, not hoisted: text read
    # back from EAXML checks, and format leaves it as it is.
    default = CONFIG.read_text(encoding="utf-8")
    assert "hoist-short-name *\n" in default
    config = tmp_path / "bare-name.cfg"
    config.write_text(
        default.replace("hoist-short-name *\n", "remove-attribute-keyword * shortName\n"),
        encoding="utf-8",
    )
    xml, text = tmp_path / "m.eaxml", tmp_path / "m.eatxt"
    argv = ["to-xml", path, "--metamodel", METAMODEL, "--config", CONFIG, "-o", xml]
    assert run(capsys, *argv) == (0, "", "")
    tool = ["--metamodel", METAMODEL, "--config", config]
    assert run(capsys, "to-text", xml, *tool, "-o", text) == (0, "", "")
    assert run(capsys, "check", text, *tool) == (0, "", "")
    formatted = text.read_text(encoding="utf-8")
    assert run(capsys, "format", text, *tool) == (0, formatted, "")
    assert "shortName" not in formatted


def test_roundtrip_check_rejects_unparsable_input(capsys):
    code, _, err = run(
        capsys,
        "roundtrip-check",
        EXTRA / "broken_syntax.eatxt",
        "--metamodel",
        METAMODEL,
        "--config",
        CONFIG,
    )
    assert code == 1 and err != ""


def test_a_character_xml_cannot_carry_exits_1_naming_it(capsys, tmp_path):
    # It used to pass to-xml into EAXML that no reader accepts.
    model = tmp_path / "c1.eatxt"
    model.write_text('EAPackage P\n{\n    name "a\x01b"\n}\n', encoding="utf-8")
    assert run(capsys, *base_args(model)) == (0, "", "")
    message = (
        f"{model}: error: EAPackage P: 'name' holds the character '\\x01', "
        "which XML 1.0 cannot carry\n"
    )
    for command in ("to-xml", "roundtrip-check"):
        argv = [command, model, "--metamodel", METAMODEL, "--config", CONFIG]
        assert run(capsys, *argv) == (1, "", message), command


def test_roundtrip_check_reports_a_failed_read_back_without_a_position(capsys, monkeypatch):
    # A position would point into the intermediate EAXML, not the model.
    def unreadable(text, mm, names=None):
        return None, [Diagnostic(ERROR, "malformed XML: not well-formed", Span(5, 11, 5, 11))]

    monkeypatch.setattr(eatxt.cli, "from_eaxml", unreadable)
    argv = ["roundtrip-check", WIPER, "--metamodel", METAMODEL, "--config", CONFIG]
    assert run(capsys, *argv) == (1, "", f"{WIPER}: error: malformed XML: not well-formed\n")


def test_roundtrip_check_prints_the_diff_of_a_lossy_read_back(capsys, monkeypatch):
    read = eatxt.cli.from_eaxml

    def lossy(text, mm, names=None):
        root, diags = read(text, mm, names)
        for el in root.iter_preorder():
            el.attributes = [a for a in el.attributes if a[0] != "direction"]
        return root, diags

    monkeypatch.setattr(eatxt.cli, "from_eaxml", lossy)
    argv = ["roundtrip-check", WIPER, "--metamodel", METAMODEL, "--config", CONFIG]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert out.startswith("--- canonical\n+++ roundtripped\n@@ ")
    changed = [row for row in out.splitlines()[2:] if row[:1] in "+-"]
    assert changed == ["-                direction in", "-                direction out"]


def test_model_file_that_is_not_utf8_is_usage_error(capsys, tmp_path):
    model = tmp_path / "latin1.eatxt"
    model.write_bytes("EAPackage Caf\xe9\n".encode("latin-1"))
    assert run(capsys, *base_args(model)) == (
        2, "",
        f"error: cannot read {model}: 'utf-8' codec can't decode byte 0xe9 in position 13: "
        "invalid continuation byte\n",
    )


def test_model_file_with_a_byte_order_mark_reads_without_it(capsys, tmp_path):
    # The mark used to be read as a character no token takes.
    model = tmp_path / "marked.eatxt"
    model.write_text("\ufeff" + WIPER.read_text(encoding="utf-8"), encoding="utf-8")
    assert run(capsys, *base_args(model)) == (0, "", "")
    # Columns on the first line count from the character after the mark.
    model.write_text("\ufeffEAPackage P ?\n", encoding="utf-8")
    assert run(capsys, *base_args(model)) == (
        1, f"{model}:1:13: error: cannot read character '?'\n", "",
    )


def test_config_file_with_a_byte_order_mark_reads_without_it(capsys, tmp_path):
    # The mark used to make the first line an unknown directive.
    config = tmp_path / "marked.cfg"
    config.write_text("\ufeff" + CONFIG.read_text(encoding="utf-8"), encoding="utf-8")
    argv = ["adapt", "--metamodel", METAMODEL, "--config"]
    assert run(capsys, *argv, config) == run(capsys, *argv, CONFIG)
    assert run(capsys, *argv, config)[0] == 0


POSITIONAL = (
    "remove-attribute-keyword FunctionFlowPort direction\n"
    "remove-attribute-keyword EAPackage name\n"
)


def test_values_without_their_keyword_format_convert_and_complete(capsys, tmp_path, g, mm):
    # The corpus in a syntax where an Identifier and a String value are
    # written without their keyword: format is a fixpoint, text -> EAXML
    # -> text is the identity, and complete answers at the end of every
    # line as the library does.
    config = tmp_path / "positional.cfg"
    config.write_text(CONFIG.read_text(encoding="utf-8") + POSITIONAL, encoding="utf-8")
    positional, _ = adapt_grammar(generate_grammar(mm), parse_config(config.read_text(encoding="utf-8")))
    tool = ["--metamodel", METAMODEL, "--config", config]
    for path in MODELS:
        root, _ = parse_model(path.read_text(encoding="utf-8"), g, mm)
        text = format_model(root, positional)
        model = tmp_path / path.name
        model.write_text(text, encoding="utf-8")
        assert run(capsys, "format", model, *tool) == (0, text, ""), path.name
        xml = to_eaxml(root, mm)
        assert run(capsys, "to-xml", model, *tool) == (0, xml, ""), path.name
        (tmp_path / "m.eaxml").write_text(xml, encoding="utf-8")
        assert run(capsys, "to-text", tmp_path / "m.eaxml", *tool) == (0, text, ""), path.name
        for line, row in enumerate(text.split("\n"), 1):
            reply = run(capsys, "complete", model, *tool, "--line", line, "--col", len(row) + 1)
            assert reply == (0, library_reply(text, line, len(row) + 1, positional, mm), "")
    assert "direction" not in text and "    in\n" in text and 'name "' not in text


# --- ergonomics --------------------------------------------------------------


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def parse_outcome(capsys, parse, argv):
    """Exit code (None when parsing succeeds), stdout and stderr."""
    try:
        parse(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


COMMANDS = [
    "gen-grammar", "adapt", "check", "to-xml", "to-text", "complete", "format",
    "roundtrip-check",
]


@pytest.mark.parametrize("argv", [
    [],
    ["--help"],
    ["-h"],
    *([command, "--help"] for command in COMMANDS),
    ["frobnicate"],
    ["frobnicate", "m.eatxt", "--metamodel", "mm.ecore"],
    ["--metamodel", "mm.ecore", "check", "m.eatxt"],
    ["check", "m.eatxt"],
    ["gen-grammar"],
    ["adapt", "--metamodel", "mm.ecore"],
    ["complete", "m.eatxt", "--metamodel", "mm.ecore", "--line", "x", "--col", "1"],
    ["check", "m.eatxt", "--metamodel", "mm.ecore", "--bogus"],
    ["gen-grammar", "--metamodel", "mm.ecore", "stray"],
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_usage_help_and_errors_match_the_parser_with_every_subcommand(capsys, argv):
    expected = parse_outcome(capsys, reference_build_parser().parse_args, argv)
    assert expected[0] is not None
    assert parse_outcome(capsys, main, argv) == expected


@pytest.mark.parametrize("argv", [
    ["gen-grammar", "--metamodel", "mm.ecore", "-o", "out.gtext"],
    ["adapt", "--metamodel", "mm.ecore", "--config", "c.cfg"],
    ["check", "m.eatxt", "--metamodel", "mm.ecore", "--config", "c.cfg",
     "--grammar-cache", "g.json"],
    ["to-text", "m.eaxml", "--metamodel", "mm.ecore", "-o", "out.eatxt"],
    ["complete", "m.eatxt", "--metamodel", "mm.ecore", "--line", "3", "--col", "4"],
], ids=lambda argv: argv[0])
def test_one_subcommand_parser_reads_arguments_as_before(argv):
    expected = vars(reference_build_parser().parse_args(argv))
    got = vars(eatxt.cli.build_parser(argv[0]).parse_args(argv))
    del got["func"]
    assert got == expected


def test_importing_the_cli_leaves_unused_modules_unloaded():
    src = str(pathlib.Path(eatxt.cli.__file__).resolve().parents[1])
    # Modules that the interpreter's own start-up loaded do not count.
    probe = (
        "import sys; before = set(sys.modules); import eatxt.cli; "
        "print(sorted({'dataclasses', 'difflib', 'tempfile', 'json', 'pathlib', "
        "'xml.etree.ElementTree', 'copy'} "
        "& set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_runs_are_deterministic(capsys):
    argv = ["to-xml", str(WIPER), "--metamodel", str(METAMODEL), "--config", str(CONFIG)]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_closed_stdout_pipe_exits_without_traceback(tmp_path):
    # Far more diagnostics than a pipe buffers, so writing hits the
    # closed read end.
    noisy = tmp_path / "noisy.eatxt"
    noisy.write_text(
        "EAPackage P\n{\n" + '    "stray"\n' * 3000 + "}\n", encoding="utf-8"
    )
    argv = [sys.executable, "-m", "eatxt.cli", *map(str, base_args(noisy))]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() in (0, 1, 2)
    assert "Traceback" not in err


# --- the collector pause ------------------------------------------------------


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def __init__(self, fileno):
        self._fileno = fileno

    def write(self, data):
        raise BrokenPipeError

    flush = write

    def fileno(self):
        return self._fileno


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(enabled, capsys, monkeypatch, tmp_path):
    inside = []

    def parse_and_record(*args):
        inside.append(gc.isenabled())
        return parse_model(*args)

    monkeypatch.setattr(eatxt.cli, "parse_model", parse_and_record)

    def outcome(argv, stdout=None):
        with monkeypatch.context() as patch:
            if stdout is not None:
                patch.setattr(sys, "stdout", stdout)
            try:
                return main([str(a) for a in argv]), gc.isenabled()
            except SystemExit as exc:
                return f"exit {exc.code}", gc.isenabled()

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with open(tmp_path / "out", "w") as sink:
            results = [
                outcome(base_args(WIPER)),
                outcome(base_args(EXTRA / "broken_syntax.eatxt")),
                outcome(base_args(tmp_path / "missing.eatxt")),
                outcome(["frobnicate"]),
                outcome(["--help"]),
                outcome(base_args(EXTRA / "broken_syntax.eatxt"), _ClosedPipe(sink.fileno())),
            ]
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert results == [
        (0, enabled), (1, enabled), (2, enabled),
        ("exit 2", enabled), ("exit 0", enabled), (2, enabled),
    ]
    assert inside == [False, False, False]


def cyclic_garbage(argv):
    """How many objects in reference cycles one run of ``main`` leaves."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        try:
            main([str(a) for a in argv])
        except SystemExit:
            pass
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_commands_leave_cyclic_garbage_independent_of_the_model(capsys, tmp_path, mm, g):
    # The pause is safe only if trees, tokens and diagnostics form no
    # reference cycles: then a 2,000-element model leaves no more cyclic
    # garbage behind than a 10-element one.
    def commands(size, root):
        text, damaged = tmp_path / f"{size}.eatxt", tmp_path / f"{size}-damaged.eatxt"
        xml, malformed = tmp_path / f"{size}.eaxml", tmp_path / f"{size}-malformed.eaxml"
        canonical = format_model(root, g)
        text.write_text(canonical, encoding="utf-8")
        lines = canonical.split("\n")
        lines[len(lines) // 2] += " } stray { Packge"
        damaged.write_text("\n".join(lines), encoding="utf-8")
        eaxml = to_eaxml(root, mm)
        xml.write_text(eaxml, encoding="utf-8")
        malformed.write_text(eaxml[: len(eaxml) // 2], encoding="utf-8")
        common = ["--metamodel", METAMODEL]
        runs = {
            "gen-grammar": ["gen-grammar", *common],
            "adapt": ["adapt", *common, "--config", CONFIG],
            "to-text": ["to-text", xml, *common, "--config", CONFIG],
            "to-text malformed": ["to-text", malformed, *common, "--config", CONFIG],
        }
        for model, label in ((text, ""), (damaged, " damaged")):
            for command in ("check", "to-xml", "format", "roundtrip-check"):
                runs[command + label] = [command, model, *common, "--config", CONFIG]
            runs["complete" + label] = [
                "complete", model, *common, "--config", CONFIG, "--line", "2", "--col", "1",
            ]
        return {name: cyclic_garbage(argv) for name, argv in runs.items()}

    small = random_model(3, mm, max_elements=10)
    large = random_model(1, mm, max_elements=2000, fan_out=8)
    assert sum(1 for _ in large.iter_preorder()) == 2000
    left_small = commands("small", small)
    left_large = commands("large", large)
    capsys.readouterr()
    for name, count in left_small.items():
        assert abs(left_large[name] - count) <= 40, (name, count, left_large[name])


def test_console_script_is_wired():
    proc = subprocess.run(
        [sys.executable, "-m", "eatxt.cli", "gen-grammar", "--metamodel", str(METAMODEL)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("EAPackage returns EAPackage:")

"""End-to-end runs of the command line front end.

Everything goes through main(argv) so the tests stay fast; one test execs
the installed console script to prove the wiring.
"""

import json
import re
import subprocess
import sys

import pytest

from eatxt.cli import main
from eatxt.grammar import grammar_to_dict
from eatxt.textsyntax import format_model, parse_model

from support import CONFIG, EXTRA, GOLDEN, METAMODEL, MODELS

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


def test_broken_config_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("frobnicate *\n", encoding="utf-8")
    code, _, err = run(
        capsys, "adapt", "--metamodel", METAMODEL, "--config", bad
    )
    assert code == 2
    assert "line 1" in err


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


# --- grammar cache -----------------------------------------------------------


def test_grammar_cache_is_written_then_reused(capsys, tmp_path):
    cache = tmp_path / "grammar.json"
    argv = base_args(WIPER) + ["--grammar-cache", cache]
    code, _, _ = run(capsys, *argv)
    assert code == 0 and cache.exists()
    data = json.loads(cache.read_text(encoding="utf-8"))
    assert "rules" in data

    stamp = cache.stat().st_mtime_ns
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert cache.stat().st_mtime_ns == stamp  # reused, not rewritten


def test_stale_grammar_cache_content_wins(capsys, tmp_path):
    # The cache is trusted blindly once present; a cache for a different
    # grammar changes what parses.
    cache = tmp_path / "grammar.json"
    run(capsys, *base_args(WIPER), "--grammar-cache", cache)
    mangled = json.loads(cache.read_text(encoding="utf-8"))
    data = json.dumps(mangled).replace("isElementary", "isAtomic")
    cache.write_text(data, encoding="utf-8")
    code, out, _ = run(capsys, *base_args(WIPER), "--grammar-cache", cache)
    assert code == 1
    assert "isElementary" in out


def edited_cache(capsys, tmp_path, edit):
    """A grammar cache written by the CLI, then changed by ``edit``."""
    cache = tmp_path / "grammar.json"
    run(capsys, *base_args(WIPER), "--grammar-cache", cache)
    data = json.loads(cache.read_text(encoding="utf-8"))
    edit(data)
    cache.write_text(json.dumps(data), encoding="utf-8")
    return cache


def test_grammar_cache_with_unknown_entry_form_is_usage_error(capsys, tmp_path):
    def bogus(data):
        data["rules"][0]["entries"][0]["form"] = "bogus"

    cache = edited_cache(capsys, tmp_path, bogus)
    code, out, err = run(capsys, *base_args(WIPER), "--grammar-cache", cache)
    assert code == 2 and out == ""
    assert f"error: unusable grammar cache {cache}: " in err
    assert "unknown entry form 'bogus'" in err and "Traceback" not in err


def test_grammar_cache_without_a_class_rule_is_usage_error(capsys, tmp_path):
    def drop_datatype(data):
        data["rules"] = [r for r in data["rules"] if r["class"] != "EADatatype"]

    cache = edited_cache(capsys, tmp_path, drop_datatype)
    code, out, err = run(
        capsys, *complete_args(WIPER, 4, 5), "--grammar-cache", cache
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: unusable grammar cache {cache}: no rule for class EADatatype\n"
    )


def test_grammar_cache_rule_for_an_unknown_class_fails_only_when_used(capsys, tmp_path):
    def add_ghost(data):
        rule = next(r for r in data["rules"] if r["class"] == "EADatatype")
        data["rules"].append(dict(rule, **{"class": "Ghost", "keyword": "Ghost"}))

    cache = edited_cache(capsys, tmp_path, add_ghost)
    assert run(capsys, *base_args(WIPER), "--grammar-cache", cache) == (0, "", "")
    ghost = tmp_path / "ghost.eatxt"
    ghost.write_text("EAPackage P\n{\n    Ghost G\n}\n", encoding="utf-8")
    code, out, err = run(capsys, *base_args(ghost), "--grammar-cache", cache)
    assert (code, out, err) == (2, "", "error: unknown class 'Ghost'\n")


def test_grammar_cache_with_wrapper_flags_still_loads(capsys, tmp_path, mm, g, gen_g):
    # Caches used to store "braces" and "commas" on every wrapped entry;
    # loading ignores them. The generated grammar keeps its wrappers.
    text = tmp_path / "wiper.eatxt"
    root, diags = parse_model(WIPER.read_text(encoding="utf-8"), g, mm)
    assert diags == []
    text.write_text(format_model(root, gen_g), encoding="utf-8")
    data = grammar_to_dict(gen_g)
    wrapped = [
        e for r in data["rules"] for e in r["entries"] if e["form"] == "wrapped"
    ]
    assert wrapped
    for entry in wrapped:
        entry.update(braces=True, commas=True)
    cache = tmp_path / "old.json"
    cache.write_text(json.dumps(data), encoding="utf-8")

    argv = ["format", text, "--metamodel", METAMODEL]
    fresh = run(capsys, *argv)
    assert fresh == (0, text.read_text(encoding="utf-8"), "")
    assert run(capsys, *argv, "--grammar-cache", cache) == fresh
    code, out, _ = run(
        capsys, "check", text, "--metamodel", METAMODEL, "--grammar-cache", cache
    )
    assert (code, out) == (0, "")


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
    import eatxt.textsyntax

    original = eatxt.textsyntax.lex
    calls = []
    indexes = []
    index_init = eatxt.textsyntax.LineIndex.__init__

    def counting_index_init(self, text):
        indexes.append(text)
        index_init(self, text)

    monkeypatch.setattr(eatxt.textsyntax.LineIndex, "__init__", counting_index_init)

    def counting_lex(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    # Patch every module's binding, as a caller importing lex by name sees it.
    for name, module in list(sys.modules.items()):
        if name == "eatxt" or name.startswith("eatxt."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting_lex)
    code, out, _ = run(capsys, *complete_args(WIPER, 17, 13))
    assert code == 0 and out
    assert len(calls) == 1
    assert len(indexes) == 1


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
    ):
        code, _, err = run(capsys, *complete_args(f, line, col))
        assert code == 2, (line, col)
        assert message in err
    for line, col in ((1, 12), (2, 1)):
        code, _, _ = run(capsys, *complete_args(f, line, col))
        assert code == 0, (line, col)


def test_complete_works_on_files_with_errors(capsys):
    code, out, _ = run(capsys, *complete_args(EXTRA / "broken_syntax.eatxt", 2, 2))
    assert code == 0
    assert any(l.startswith("KEYWORD\t") for l in out.splitlines())


def test_deep_nesting_is_a_diagnostic_not_a_crash(capsys, tmp_path):
    depth = 400
    deep = tmp_path / "deep.eatxt"
    deep.write_text(
        "".join(f"EAPackage P{d}\n{{\n" for d in range(depth)) + "}\n" * depth,
        encoding="utf-8",
    )
    code, out, err = run(capsys, *base_args(deep))
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert len(lines) == 1 and DIAG_LINE.match(lines[0])
    assert lines[0].startswith(f"{deep}:")
    assert lines[0].endswith(": error: elements nested too deeply")
    code, out, err = run(capsys, *complete_args(deep, depth + 1, 1))
    assert code in (0, 1)
    assert "Traceback" not in out + err


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


# --- ergonomics --------------------------------------------------------------


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


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


def test_console_script_is_wired():
    proc = subprocess.run(
        [sys.executable, "-m", "eatxt.cli", "gen-grammar", "--metamodel", str(METAMODEL)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("EAPackage returns EAPackage:")

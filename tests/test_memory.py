"""Working sets of the batch commands, traced with tracemalloc, which
counts the same allocations on any host.

A batch command holds at most one model tree, its input text and one copy
of each text it writes; roundtrip-check also keeps its canonical text.
The bounds are in traced bytes per character of the model's canonical
text; to-text reads the EAXML that to-xml writes from the same tree. They
were set 10% above what the commands peak at on the document below (10.1
for check, 10.5 for format, 10.3 for to-text, 13.9 for to-xml and 14.3
for roundtrip-check); before the commands dropped what they no longer
read, roundtrip-check and to-xml peaked at 20.6 and 17.4, before a parse
kept only a window of its tokens, check and format at 12.3, and before
expat was handed the EAXML in slices, to-text at 12.9."""

import contextlib
import io

import pytest

from eatxt.cli import main
from eatxt.textsyntax import format_model

from support import CONFIG, METAMODEL, random_model, traced_peak

BOUNDS = {"check": 11.1, "format": 11.6, "roundtrip-check": 15.7, "to-text": 11.3, "to-xml": 15.3}
TOOL = ["--metamodel", str(METAMODEL), "--config", str(CONFIG)]


@pytest.fixture(scope="module")
def model_files(g, mm, tmp_path_factory):
    """A generated model of 2,000 elements, about 0.25 MB of canonical text,
    and its EAXML."""
    folder = tmp_path_factory.mktemp("memory")
    text, xml = folder / "m.eatxt", folder / "m.eaxml"
    text.write_text(format_model(random_model(1, mm, max_elements=2000, fan_out=8), g),
                    encoding="utf-8")
    assert main(["to-xml", str(text), *TOOL, "-o", str(xml)]) == 0
    return text, xml


@pytest.mark.parametrize("command", sorted(BOUNDS))
def test_batch_commands_peak_within_their_working_set(model_files, command):
    text, xml = model_files
    argv = [command, str(xml if command == "to-text" else text), *TOOL]
    chars = len(text.read_text(encoding="utf-8"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0  # a first run fills the regex caches
        code, peak = traced_peak(main, argv)
    assert code == 0
    assert peak / chars <= BOUNDS[command], f"{peak / chars:.2f} bytes per character"

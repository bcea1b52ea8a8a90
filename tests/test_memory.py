"""Working sets of the batch commands, traced with tracemalloc, which
counts the same allocations on any host.

A batch command holds at most one model tree, its input text and one copy
of each text it writes; roundtrip-check also keeps its canonical text.
The bounds are in traced bytes per character of the model file. They were
set 10% above what the commands peak at on the document below (15.1 for
roundtrip-check, 13.9 for to-xml); before the commands dropped what they
no longer read, they peaked at 20.6 and 17.4."""

import contextlib
import io

import pytest

from eatxt.cli import main
from eatxt.textsyntax import format_model

from support import CONFIG, METAMODEL, random_model, traced_peak

BOUNDS = {"roundtrip-check": 16.6, "to-xml": 15.3}


@pytest.fixture(scope="module")
def model_file(g, mm, tmp_path_factory):
    """A generated model of 2,000 elements, about 0.25 MB of canonical text."""
    path = tmp_path_factory.mktemp("memory") / "m.eatxt"
    path.write_text(format_model(random_model(1, mm, max_elements=2000, fan_out=8), g),
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("command", sorted(BOUNDS))
def test_batch_commands_peak_within_their_working_set(model_file, command):
    argv = [command, str(model_file), "--metamodel", str(METAMODEL), "--config", str(CONFIG)]
    chars = len(model_file.read_text(encoding="utf-8"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0  # a first run fills the regex caches
        code, peak = traced_peak(main, argv)
    assert code == 0
    assert peak / chars <= BOUNDS[command], f"{peak / chars:.2f} bytes per character"

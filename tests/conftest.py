import os
import pathlib

import pytest

from eatxt.grammar import adapt_grammar, generate_grammar, parse_config
from eatxt.metamodel import load_metamodel

from support import CONFIG, METAMODEL


@pytest.fixture(scope="session", autouse=True)
def subprocesses_import_this_checkout():
    """Python processes that tests start import eatxt from ``src/``, as the
    tests do through ``pythonpath`` in pyproject.toml."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", path)
        yield


@pytest.fixture(scope="session")
def mm():
    return load_metamodel(METAMODEL.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def gen_g(mm):
    """The grammar exactly as generated, before any adaptation."""
    return generate_grammar(mm)


@pytest.fixture(scope="session")
def g(mm):
    """The user-facing grammar: generated plus the default config."""
    cfg = parse_config(CONFIG.read_text(encoding="utf-8"))
    adapted, _ = adapt_grammar(generate_grammar(mm), cfg)
    return adapted

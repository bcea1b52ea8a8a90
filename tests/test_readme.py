"""The ``python`` code blocks of README.md run as written.

Each block runs from the repository root, after the blocks before it in
one shared namespace, as a reader typing them in order would run it.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
    re.DOTALL | re.MULTILINE,
)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, monkeypatch):
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    for number, block in enumerate(BLOCKS[: index + 1]):
        exec(compile(block, f"README.md python block {number + 1}", "exec"), namespace)

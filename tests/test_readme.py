"""README.md's Python examples run as written, so a public name that is
renamed or moved out from under them fails the suite."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("k", range(len(BLOCKS)))
def test_readme_python_block_runs(k):
    exec(compile(BLOCKS[k], f"README.md python block {k + 1}", "exec"), {})

"""README.md's examples run as written: each Python block, and each
`$ cyclift ...` console line of its sh blocks, so a public name that is
renamed or moved out from under them, or output that drifts from what the
README shows, fails the suite."""

import re
import shlex
from pathlib import Path

import pytest

from cyclift import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)


def _console_examples() -> list:
    """(argv, lines shown, prefix only) for each `$ cyclift ...` line of the
    sh blocks, in README order. The lines shown run up to the next `$` line
    or the end of the block; a last line `...` (indented or not) makes them
    a prefix."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```$", TEXT, re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.splitlines()
            argv = shlex.split(command)
            if argv[0] != "cyclift":
                continue
            prefix = bool(shown) and shown[-1].strip() == "..."
            examples.append((argv[1:], shown[:-1] if prefix else shown, prefix))
    return examples


EXAMPLES = _console_examples()


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("k", range(len(BLOCKS)))
def test_readme_python_block_runs(k):
    exec(compile(BLOCKS[k], f"README.md python block {k + 1}", "exec"), {})


def test_readme_console_examples_print_what_they_show(capsys, monkeypatch, tmp_path):
    """In one directory, in order (verify reads the file factorize wrote).
    A command that writes --out is compared on stderr, its report."""
    assert EXAMPLES
    monkeypatch.chdir(tmp_path)
    for argv, shown, prefix in EXAMPLES:
        rc = cli.main(argv)
        captured = capsys.readouterr()
        lines = (captured.err if "--out" in argv else captured.out).splitlines()
        if prefix:
            lines = lines[: len(shown)]
        assert (rc, lines) == (0, shown), shlex.join(["cyclift", *argv])

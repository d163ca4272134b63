"""Every ```python block of README.md runs as written, each in a fresh
namespace, so the documented API cannot drift from the code."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
# (first line of the code in README.md, code)
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_block_runs(line, code):
    # padded so that a traceback names the README's own line numbers
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "readme"})

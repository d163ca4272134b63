"""Every ```python block of README.md runs as written, each in a fresh
namespace, so the documented API cannot drift from the code; the shell
transcript and the JSON config are checked against the program too, and
the README names no private name, whose home is the docstrings."""

import json
import re
import shlex
from pathlib import Path

import pytest

from honeycomb434 import cli, crystal

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
MATCHES = list(re.finditer(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S))
# (first line of the code in README.md, code)
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1)) for m in MATCHES]


def block_ids() -> list[str]:
    """Each block's id: the slug of the heading above it and its ordinal
    in that section, so that lines added elsewhere rename no test."""
    ids, counts = [], {}
    for m in MATCHES:
        headings = re.findall(r"^#+ (.*)$", TEXT[: m.start()], flags=re.M)
        slug = re.sub(r"[^a-z0-9]+", "-", headings[-1].lower()).strip("-") if headings else "top"
        counts[slug] = counts.get(slug, 0) + 1
        ids.append(f"{slug}-{counts[slug]}")
    return ids


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS, ids=block_ids())
def test_readme_block_runs(line, code):
    # padded so that a traceback names the README's own line numbers
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "readme"})


def fenced(language: str) -> list[str]:
    """The code of README.md's ```<language> blocks."""
    return re.findall(rf"^```{language}\n(.*?)^```", TEXT, flags=re.M | re.S)


def test_readme_transcript_is_what_the_command_prints(capsys):
    # the one shell block that is a transcript: a `$ ` command line and the
    # stderr it prints; a certification failure exits 3
    (transcript,) = [block for block in fenced("sh") if block.startswith("$ ")]
    command, expected = transcript.split("\n", 1)
    prompt, program, *argv = shlex.split(command)
    assert (prompt, program) == ("$", "honeycomb434")
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", expected)


def test_readme_command_lines_are_read_without_argparse():
    # every honeycomb434 line of the shell blocks is a plain line
    lines = [
        shlex.split(line.removeprefix("$ "), comments=True)
        for block in fenced("sh")
        for line in block.splitlines()
        if line.removeprefix("$ ").startswith("honeycomb434 ")
    ]
    assert lines
    for program, name, *argv in lines:
        assert cli._read_plain(name, argv) is not None, [program, name, *argv]


def test_readme_config_is_the_bundled_reo3_config():
    (block,) = fenced("json")
    data = json.loads(block)
    crystal.validate_config(data)
    assert data == json.loads(crystal._BUNDLED["reo3"].read_text())


def private_names(text: str) -> list[str]:
    """The backticked spans of a text that name an identifier with a
    leading underscore, such as `quotient._reduce` or `_memo`; a dunder
    such as `__init__` is not private."""
    return [span for span in re.findall(r"`([^`\n]+)`", text) if re.search(r"(?<!\w)_[A-Za-z]", span)]


def test_readme_names_no_private_name():
    assert private_names("`quotient._reduce`, `TorusGroup._memo`, `MAX_MODULUS`, `__init__`") == [
        "quotient._reduce",
        "TorusGroup._memo",
    ]
    assert private_names(TEXT) == []

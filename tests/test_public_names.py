"""Every public name has a user: each name in `honeycomb434.__all__` but
`__version__` is used by the package's own code, by a demo or by README.md.
A name that only tests use belongs in the tests, and one nothing uses is
deleted."""

import ast
import re
from pathlib import Path

import honeycomb434

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(honeycomb434.__file__).resolve().parent


def used_names(path: Path) -> set[str]:
    """The names a module's code reads, attributes included, and those it
    imports; a definition or an assignment is not a use."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def readme_names() -> set[str]:
    """The words of README.md's code: its fenced blocks and inline code
    spans, not its prose."""
    text = (ROOT / "README.md").read_text()
    fenced = re.compile(r"^```.*?^```", flags=re.M | re.S)
    code = fenced.findall(text) + re.findall(r"`[^`\n]+`", fenced.sub("", text))
    return set(re.findall(r"\w+", " ".join(code)))


def test_every_public_name_is_used_outside_the_tests():
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    demos = sorted((ROOT / "demos").glob("*.py"))
    used = set().union(*map(used_names, modules + demos)) | readme_names()
    unused = [name for name in honeycomb434.__all__ if name != "__version__" and name not in used]
    assert unused == []

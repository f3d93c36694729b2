"""Every module of the package reads each name it imports.

A stdlib `ast` walk stands in for a linter: an imported name that no
expression of its module loads is dead.  `__init__.py` exists to bind
names for callers, so it is exempt, and so is any import line marked
`# noqa: F401`, the re-exports that other code reads off a module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mmreg"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports on unmarked lines and never loads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in imported if name not in loaded)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\n", ["os"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb\n", ["c"]),
        ("from a import b  # noqa: F401\n", []),
        ("from __future__ import annotations\n", []),
        ("from a import b\ndef f() -> b: ...\n", []),
        ("from a import b\nb = 1\n", ["b"]),
    ],
)
def test_unused_imports_finds_dead_names(source, unused):
    assert unused_imports(source) == unused

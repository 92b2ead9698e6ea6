"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

MODULES = sorted(
    path
    for path in (Path(__file__).parent.parent / "src" / "esfg").glob("*.py")
    if path.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []

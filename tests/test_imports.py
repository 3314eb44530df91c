"""Modules of the package use each other through public names only."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mme"


def private_imports(path):
    """``module: name`` for every private name that ``path`` imports from the package."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level or module.split(".")[0] == "mme":
            out += ["%s: %s" % (path.stem, alias.name)
                    for alias in node.names if alias.name.startswith("_")]
    return out


def test_no_module_imports_a_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    assert [name for path in modules for name in private_imports(path)] == []

"""Modules of the package use each other through public names only, and
every function they define has a caller."""

import ast
from pathlib import Path

import mme

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mme"
# the code whose references keep a function of the package alive
CALLERS = [PACKAGE, ROOT / "scripts", ROOT / "benchmarks"]
# method names that more than one class of the package defines: a reference
# by name cannot tell which class it reaches, so the check below cannot see
# one of them lose its last caller while another keeps its own.  Listing a
# name vouches for nothing: each of its methods needs a caller found by
# other means (a reading of the callers, or a line trace of the suite).
SHARED_METHOD_NAMES = {"_coerce", "as_dict", "degree", "divide_exact", "is_zero", "one", "zero"}


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


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions():
    """(qualified name, name, is a method) of every module-level function and
    every method of a module-level class of the package, dunders excepted."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                out.append(("%s.%s" % (path.stem, node.name), node.name, False))
            elif isinstance(node, ast.ClassDef):
                out += [("%s.%s.%s" % (path.stem, node.name, item.name), item.name, True)
                        for item in node.body if isinstance(item, ast.FunctionDef)]
    return [d for d in out if not is_dunder(d[1])]


def references():
    """(attribute names, other names) referenced anywhere in CALLERS: a method
    is reached only as an attribute, so the builtin ``reversed`` does not
    keep a method ``reversed`` alive."""
    attrs, names = set(), set()
    for path in (p for root in CALLERS for p in sorted(root.rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return attrs, names


def test_every_function_has_a_caller():
    defs = definitions()
    assert len(defs) > 100
    attrs, names = references()
    exported = set(mme.__all__)
    unused = [qualified for qualified, name, method in defs
              if name not in attrs and (method or (name not in names and name not in exported))]
    assert unused == []


def test_shared_method_names_are_listed():
    classes = {}
    for qualified, name, method in definitions():
        if method:
            classes.setdefault(name, []).append(qualified)
    assert {name for name, where in classes.items() if len(where) > 1} == SHARED_METHOD_NAMES

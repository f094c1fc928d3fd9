"""Checks on the package source itself, read as syntax trees."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blockred"


def _referenced_names(node, skip):
    """Names that node uses as a variable or an attribute, leaving out the
    references to `skip` (the function that node defines, if any)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names - {skip}


def test_every_private_function_is_referenced():
    # a module-level _helper that nothing in the package uses outside its own
    # definition is left over from a refactor
    private, referenced = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = node.name
                if own.startswith("_") and not own.endswith("__"):
                    private[own] = path.name
            referenced |= _referenced_names(node, own)
    assert private, "no private functions found: wrong package path?"
    orphans = sorted(f"{module}:{name}" for name, module in private.items()
                     if name not in referenced)
    assert orphans == []


def test_every_import_is_used():
    # a name a module imports and never references is left over from a
    # refactor; __init__.py imports to re-export
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    assert modules, "no modules found: wrong package path?"
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused += [f"{path.name}:{line}:{name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []

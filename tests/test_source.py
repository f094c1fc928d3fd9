"""Checks on the package source itself, read as syntax trees."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blockred"


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced_names(nodes, skip):
    """Names that nodes use as a variable or an attribute, leaving out the
    references to the names in `skip` (the definitions nodes make)."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names - skip


def _definitions(node):
    """(name, nodes) pairs that cover a module-level statement: a function or
    a class with its name, anything else with None.  A class is split into
    its methods, each under its own name, and the rest of the class, so that
    a method that only calls itself counts as unreferenced."""
    if not isinstance(node, _DEFINITIONS):
        return [(None, [node])]
    if not isinstance(node, ast.ClassDef):
        return [(node.name, [node])]
    methods = [sub for sub in node.body if isinstance(sub, _DEFINITIONS[:2])]
    rest = [sub for sub in node.body if sub not in methods]
    return [(node.name, rest + node.bases + node.keywords + node.decorator_list)] + [
        (method.name, [method]) for method in methods]


def test_every_private_function_is_referenced():
    # a module-level _helper function or _Class, or a _method of a
    # module-level class, that nothing in the package uses outside its own
    # definition is left over from a refactor
    private, referenced = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            for name, nodes in _definitions(node):
                if name and name.startswith("_") and not name.endswith("__"):
                    private[name] = path.name
                referenced |= _referenced_names(nodes, {name})
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


def _private_callables(tree):
    """(function, offset) for each module-level private function and each
    method of a module-level class that is private or belongs to a private
    class; offset is 1 for a method that is called without its self."""
    for node in tree.body:
        if isinstance(node, _DEFINITIONS[:2]) and node.name.startswith("_"):
            yield node, 0
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if not isinstance(method, _DEFINITIONS[:2]) or method.name.endswith("__"):
                    continue
                if node.name.startswith("_") or method.name.startswith("_"):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in method.decorator_list)
                    yield method, 0 if static else 1


def _defaulted(function, offset):
    """(position or None, name) of each parameter with a default, the
    position counted among the arguments a call passes."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield i - offset, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _passes(call, position, name):
    """Whether call may pass the parameter: by keyword or position, or
    through a ** or * argument."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or i == position:
            return True
    return False


def test_every_private_parameter_is_passed():
    # a defaulted parameter of a private function or method that no call in
    # the package passes, by keyword or by position, is a knob with one value
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    checked, unused = 0, []
    for path, tree in zip(sorted(PACKAGE.glob("*.py")), trees):
        for function, offset in _private_callables(tree):
            for position, param in _defaulted(function, offset):
                checked += 1
                if not any(_passes(call, position, param)
                           for call in calls.get(function.name, [])):
                    unused.append(f"{path.name}:{function.name}({param})")
    assert checked, "no defaulted private parameters found: wrong package path?"
    assert unused == []

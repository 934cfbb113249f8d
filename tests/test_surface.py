"""Every public top-level function and class of the library is used somewhere.

A name counts as used when it appears as an ``ast.Name`` or ``ast.Attribute``
outside its own ``def`` or ``class``, in a library module other than
``__init__.py``, a demo or the benchmark harness.  Imports, docstrings,
comments and tests do not count, so a function that only tests call fails.
``__init__.py`` (re-exports) and ``cli.py`` (command functions reached through
click's decorators) define nothing checked here.  Every name in the package's
``__all__`` is imported by a demo, the benchmark harness or a test.  Every
private top-level function, class and assigned constant is read in the
library itself, outside its own definition.  Every public method, property
and annotated field of a class is read as an attribute in the library, a
demo or the benchmark harness.  Every ``budget`` default is the one
``errors.DEFAULT_BUDGET``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

from sparsemv import cli, errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sparsemv"


def _trees(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _public_definitions(trees):
    """(path, node) for every public top-level function and class."""
    return [
        (path, node)
        for path, tree in trees.items()
        if path.name not in ("__init__.py", "cli.py")
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _name_uses(tree) -> Counter:
    """How often each name is read as an ast.Name or ast.Attribute in tree."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            uses[node.attr] += 1
    return uses


def test_every_public_definition_is_used():
    library = _trees(sorted(PACKAGE.glob("*.py")))
    users = [tree for path, tree in library.items() if path.name != "__init__.py"]
    users += _trees(sorted((ROOT / "demos").glob("*.py"))).values()
    users += _trees(sorted((ROOT / "perfbench").glob("*.py"))).values()
    uses = sum(map(_name_uses, users), Counter())
    definitions = _public_definitions(library)
    assert len(definitions) > 40  # the walk found the library
    # a definition's own body (recursion, a class's methods) is not a use
    unused = [f"{path.stem}.{node.name}" for path, node in definitions
              if uses[node.name] == _name_uses(node)[node.name]]
    assert unused == []


def test_every_exported_name_is_imported():
    imported = set()
    for folder in ("demos", "perfbench", "tests"):
        for tree in _trees(sorted((ROOT / folder).glob("*.py"))).values():
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(
                        ".")[0] == "sparsemv":
                    imported.update(alias.name for alias in node.names)
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = next(ast.literal_eval(node.value) for node in init.body
                    if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["__all__"])
    assert len(exported) > 20  # the walk found __all__
    assert sorted(set(exported) - imported) == []


def _private_definitions(trees):
    """(path, name, node) for every private top-level function, class and
    assigned name, node its definition."""
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield path, name, node


def test_every_private_definition_is_read_in_the_library():
    # a leftover constant, or an alias kept only for tests, fails
    library = _trees(sorted(PACKAGE.glob("*.py")))
    uses = sum(map(_name_uses, library.values()), Counter())
    definitions = list(_private_definitions(library))
    assert len(definitions) > 40  # the walk found the library
    unread = [f"{path.stem}.{name}" for path, name, node in definitions
              if uses[name] == _name_uses(node)[name]]
    assert unread == []


def _attribute_reads(tree) -> Counter:
    """How often each name is read as an ast.Attribute in tree."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def _class_members(trees):
    """(path, class name, member name, node) for every public method,
    property and classmethod, and every annotated field, of a class outside
    cli.py (whose classes override click's methods)."""
    for path, tree in trees.items():
        if path.name == "cli.py":
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield path, cls.name, name, node


def test_every_public_class_member_is_read():
    # matched by name: a member read only under another class's name (as
    # np.zeros would hide a zeros classmethod) passes unnoticed
    library = _trees(sorted(PACKAGE.glob("*.py")))
    users = list(library.values())
    users += _trees(sorted((ROOT / "demos").glob("*.py"))).values()
    users += _trees(sorted((ROOT / "perfbench").glob("*.py"))).values()
    reads = sum(map(_attribute_reads, users), Counter())
    members = list(_class_members(library))
    assert len(members) > 60  # the walk found the classes
    unread = [f"{path.stem}.{cls}.{name}" for path, cls, name, node in members
              if reads[name] == _attribute_reads(node)[name]]
    assert unread == []


def test_every_budget_defaults_to_the_one_constant():
    # identity, not equality: a literal copy of the value fails
    options = {f"--budget of {name}": param.default
               for name, command in cli.cli.commands.items()
               for param in command.params if param.name == "budget"}
    assert len(options) == 9  # every command that takes --budget
    parameters = {}
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"sparsemv.{path.stem}")
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_")):
                budget = inspect.signature(fn).parameters.get("budget")
                if budget is not None:
                    parameters[f"{module.__name__}.{name}"] = budget.default
    assert len(parameters) > 10  # the walk found the library
    defaults = {**options, **parameters}
    assert [name for name, default in defaults.items()
            if default is not errors.DEFAULT_BUDGET] == []

"""Every public top-level function and class of the library is used somewhere.

A name counts as used when it appears as an ``ast.Name`` or ``ast.Attribute``
outside its own ``def`` or ``class``, in a library module other than
``__init__.py``, a demo or the benchmark harness.  Imports, docstrings,
comments and tests do not count, so a function that only tests call fails.
``__init__.py`` (re-exports) and ``cli.py`` (command functions reached through
click's decorators) define nothing checked here.  Every name in the package's
``__all__`` is imported by a demo, the benchmark harness or a test.  Every
private top-level function, class and assigned constant is read in the
library itself, outside its own definition.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

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

"""Every top-level import in src/osc3 is used by the module that makes it,
every module-level private name is read somewhere in src/osc3, and no module
imports scipy, which only the tests use, as an outside reference.

An import counts as used when it is read anywhere else in the module (type
annotations included) or listed in ``__all__``.  ``from __future__``
imports and import statements carrying ``# noqa`` are exempt.  A private
name (``_name``, not a dunder) defined at module level counts as read when
some module in the package loads it as a name or an attribute.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "osc3")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as f:
        assert unused_imports(f.read()) == []


def test_checker_sees_an_unused_import():
    assert unused_imports("import math\nfrom typing import Sequence\nx: Sequence = 1\n") == ["line 1: math"]
    assert unused_imports("import math  # noqa\n") == []


def _defined_private(tree) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _read_names(tree) -> set:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unread_private_names(sources: dict) -> list:
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = set().union(*(_read_names(tree) for tree in trees.values()))
    return sorted(
        f"{module}: {name}" for module, tree in trees.items() for name in _defined_private(tree) - read
    )


def test_no_unread_private_names():
    sources = {}
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as f:
            sources[module] = f.read()
    assert unread_private_names(sources) == []


def test_checker_sees_an_unread_private_name():
    sources = {
        "a.py": "_used = 1\n_orphan = 2\ndef _helper():\n    return _used\n",
        "b.py": "from a import _helper\n_helper()\n",
    }
    assert unread_private_names(sources) == ["a.py: _orphan"]


def scipy_imports(source: str) -> list:
    """Lines of every import of scipy or a scipy submodule, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


@pytest.mark.parametrize("module", MODULES)
def test_no_scipy_import(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as f:
        assert scipy_imports(f.read()) == []


def test_checker_sees_a_scipy_import():
    source = "import numpy\ndef f():\n    from scipy.special import roots_jacobi\nimport scipy.integrate as si\n"
    assert scipy_imports(source) == ["line 3", "line 4"]
    assert scipy_imports("from .scipy import x\nimport scipyx\n") == []

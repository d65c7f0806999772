"""Every top-level import in src/osc3 is used by the module that makes it,
every module-level private name is read somewhere in src/osc3, no module
imports scipy, which only the tests use, as an outside reference, one
Dormand-Prince tableau serves every state width, every Kamenev series
reaches the quadrature engine through one helper, the minimum function
and the feature windows are read off the model, not passed alongside it,
and a sampled check reads the recorded constants only through ``probe``.

An import counts as used when it is read anywhere else in the module (type
annotations included) or listed in ``__all__``.  ``from __future__``
imports and import statements carrying ``# noqa`` are exempt.  A private
name (``_name``, not a dunder) defined at module level counts as read when
some module in the package loads it as a name or an attribute.
"""

import ast
import os
import re

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


# the fifth error weight of Dormand-Prince 5(4), which only a tableau holds
DOPRI_WEIGHT = re.compile(r"-\s*17253\.0\s*/\s*339200\.0")


def tableau_copies(sources: dict) -> int:
    """How many times the Dormand-Prince error weight occurs in the sources."""
    return sum(len(DOPRI_WEIGHT.findall(src)) for src in sources.values())


def test_one_dormand_prince_tableau():
    sources = {}
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as f:
            sources[module] = f.read()
    assert tableau_copies(sources) == 1


def test_checker_sees_a_second_tableau():
    sources = {"ode.py": "e5 = -17253.0 / 339200.0\n", "riccati.py": "E5 = -17253.0/339200.0\n"}
    assert tableau_copies(sources) == 2


def engine_readers(source: str) -> list:
    """Top-level functions and classes that read ``integrate_adaptive``, as a
    name or an attribute, so a call through an alias counts too."""
    readers = []
    for node in ast.parse(source).body:
        if any(
            (isinstance(sub, ast.Name) and sub.id == "integrate_adaptive" and isinstance(sub.ctx, ast.Load))
            or (isinstance(sub, ast.Attribute) and sub.attr == "integrate_adaptive")
            for sub in ast.walk(node)
        ):
            readers.append(getattr(node, "name", f"line {node.lineno}"))
    return sorted(readers)


def test_kamenev_reaches_the_engine_through_one_helper():
    with open(os.path.join(SRC, "kamenev.py"), encoding="utf-8") as f:
        assert engine_readers(f.read()) == ["_series", "kamenev_transform"]


def test_checker_sees_a_second_engine_caller():
    source = (
        "from .quad import integrate_adaptive\nfrom . import quad\n"
        "def _series(f):\n    return integrate_adaptive(f, 0.0, [1.0])\n"
        "def check(f):\n    run = quad.integrate_adaptive\n    return run(f)\n"
        "class C:\n    def m(self, g):\n        return integrate_adaptive(g)\n"
        "ENGINE = integrate_adaptive\n"
    )
    assert engine_readers(source) == ["C", "_series", "check", "line 11"]


def constants_readers(source: str) -> list:
    """Top-level functions that read a ``.constants`` attribute anywhere but
    in the arguments of a ``probe(...)`` call."""
    readers = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        exempt = set()
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", None)) == "probe":
                for arg in (*call.args, *(kw.value for kw in call.keywords)):
                    exempt.update(id(sub) for sub in ast.walk(arg))
        if any(
            isinstance(sub, ast.Attribute) and sub.attr == "constants" and isinstance(sub.ctx, ast.Load)
            and id(sub) not in exempt
            for sub in ast.walk(node)
        ):
            readers.append(node.name)
    return sorted(readers)


def test_sampled_checks_read_constants_through_probe():
    readers = []
    for module in ("coeffs.py", "kamenev.py", "riccati.py"):
        with open(os.path.join(SRC, module), encoding="utf-8") as f:
            readers.extend(constants_readers(f.read()))
    # the two quadrature shortcuts, which skip engine passes, not samples
    assert sorted(readers) == ["check_33f", "criterion_kamenev"]


def test_checker_sees_a_constants_reader():
    source = (
        "def sampled(model, pts):\n    return probe(fns, pts, model.constants)\n"
        "def keyword(model, pts):\n    return coeffs.probe(fns, pts, constants=[*model.constants])\n"
        "def shortcut(model, pts):\n    if 'p' in model.constants:\n        pts = pts[:1]\n"
        "    return probe(fns, pts)\n"
        "def store(model):\n    model.constants = {}\n"
        "def nested(split):\n    def inner():\n        return split.constants.get('p1')\n    return inner\n"
    )
    assert constants_readers(source) == ["nested", "shortcut"]


# facts the coefficient model carries; only quad, below the model, takes breakpoints
MODEL_FACTS = {"d_fn", "feature_windows", "breakpoints"}


def threaded_parameters(module: str, source: str) -> list:
    """Parameters of any function, lambda or dataclass field named after a
    fact the model carries, except ``breakpoints`` in quad."""
    banned = MODEL_FACTS - {"breakpoints"} if module == "quad.py" else MODEL_FACTS
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if arg]
            owner = getattr(node, "name", "lambda")
        elif isinstance(node, ast.ClassDef):
            names = [f.target.id for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
            owner = node.name
        else:
            continue
        found.extend(f"{module}: {owner}({name})" for name in names if name in banned)
    return found


def test_model_facts_are_not_threaded():
    found = []
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as f:
            found.extend(threaded_parameters(module, f.read()))
    assert found == []


def test_checker_sees_a_threaded_fact():
    source = (
        "def series(model, pts, breakpoints=None):\n    pass\n"
        "class Controls:\n    h_max: float = 0.1\n    feature_windows: list = None\n"
        "def verdict(model, *, d_fn=None):\n    return lambda t, d_fn=d_fn: d_fn(t)\n"
    )
    assert threaded_parameters("kamenev.py", source) == [
        "kamenev.py: series(breakpoints)",
        "kamenev.py: Controls(feature_windows)",
        "kamenev.py: verdict(d_fn)",
        "kamenev.py: lambda(d_fn)",
    ]
    assert threaded_parameters("quad.py", source) == [
        "quad.py: Controls(feature_windows)",
        "quad.py: verdict(d_fn)",
        "quad.py: lambda(d_fn)",
    ]

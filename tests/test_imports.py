"""Every module uses each name it imports, every function, class, method
and module-level constant of the package is named somewhere outside its own
definition, and every defaulted parameter of the package is passed by some
call.
Importing the package does not load scipy.

Stdlib ``ast`` checks, so they need no linter.  ``src/ssms/__init__.py`` is
left out of both: its imports are the package's re-exports.
"""

import ast
import math
import subprocess
import sys
from pathlib import Path

from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]


def modules(folders=("src/ssms", "tests", "demos")):
    for folder in folders:
        for path in sorted((ROOT / folder).glob("*.py")):
            if path.name != "__init__.py":
                yield path


def parse(path):
    return ast.parse(path.read_text(), str(path))


def unused_imports(tree):
    """(line, name) of each imported name that ``tree`` never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in modules()
        for line, name in unused_imports(parse(path))
    ]
    assert found == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nimport re as regex\nfrom a.b import c, d\nd()\n")
    assert unused_imports(tree) == [(1, "os"), (2, "regex"), (3, "c")]


def definitions(tree):
    """(line, name) of each function, class and method of ``tree``, and of
    each name its module-level assignments bind; dunders excepted."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = [(node.lineno, node.name) for node in ast.walk(tree) if isinstance(node, kinds)]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                (name.lineno, name.id)
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            ]
    return [(line, name) for line, name in found if not (name[:2] == name[-2:] == "__")]


def dead_definitions(defining, naming):
    """(label, line, name) of each function, class, method or module-level
    constant, dunders excepted, defined in a tree of the ``{label: tree}``
    map ``defining`` and named in none of the ``naming`` trees.

    A name counts when a tree reads it, imports it or spells it as a whole
    string (a lookup such as ``getattr(cls, "name")``); a definition does
    not name itself, and an assignment, the one that defines a constant
    included, does not name what it binds.
    """
    named = set()
    for tree in naming:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):
                    named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    return sorted(
        (label, line, name)
        for label, tree in defining.items()
        for line, name in definitions(tree)
        if name not in named
    )


def test_every_package_definition_is_named_somewhere():
    defining = {str(path.relative_to(ROOT)): parse(path) for path in modules(("src/ssms",))}
    naming = [parse(path) for path in modules(("src/ssms", "tests", "demos", "bench"))]
    found = [f"{label}:{line}: {name}" for label, line, name in dead_definitions(defining, naming)]
    assert found == []


def test_the_check_sees_a_dead_definition():
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self): pass\n"
        "    def used(self): pass\n"
        "    def dead(self): pass\n"
        "def helper(): pass\n"
        "def looked_up(): pass\n"
        "def unused(): pass\n"
        "class B: pass\n"
        "A().used()\n"
        "helper()\n"
        "NAMES = ('looked_up', 'named in a sentence: unused')\n"
        "LIMIT, USED = 3, 4\n"
        "__version__ = '1'\n"
        "print(NAMES, USED)\n"
    )
    found = dead_definitions({"m": tree}, [tree])
    assert found == [("m", 4, "dead"), ("m", 7, "unused"), ("m", 8, "B"), ("m", 12, "LIMIT")]


def knobs(tree):
    """(line, callee, name, index) of each defaulted parameter of each
    function and method of ``tree``, dunders other than ``__init__``
    excepted.  ``callee`` is the name a call spells: the function's, or the
    class's for ``__init__``.  ``index`` is the parameter's position among
    the arguments a call passes (past ``self`` or ``cls`` on a method), and
    None for a keyword-only one."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    owner = {
        node: cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, kinds)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, kinds):
            continue
        name = node.name
        if name[:2] == name[-2:] == "__" and name != "__init__":
            continue
        decorators = [d.id for d in node.decorator_list if isinstance(d, ast.Name)]
        shift = 1 if node in owner and "staticmethod" not in decorators else 0
        callee = owner[node] if name == "__init__" else name
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        found += [
            (node.lineno, callee, arg.arg, i - shift)
            for i, arg in enumerate(positional)
            if i >= first
        ]
        found += [
            (node.lineno, callee, arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
    return found


def unpassed_knobs(defining, calling):
    """(label, line, callee, name) of each defaulted parameter defined in a
    tree of the ``{label: tree}`` map ``defining`` that no call in the
    ``calling`` trees passes: by keyword, by position past its index, or
    through ``*`` or ``**``.  Calls are matched to definitions by name."""
    keywords = {}  # None stands for a ``**`` argument
    widest = {}  # the most positional arguments, inf through a ``*``
    for tree in calling:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                star = any(isinstance(arg, ast.Starred) for arg in node.args)
                widest[name] = max(widest.get(name, 0), math.inf if star else len(node.args))
                keywords.setdefault(name, set()).update(kw.arg for kw in node.keywords)
    found = []
    for label, tree in defining.items():
        for line, callee, name, index in knobs(tree):
            named = keywords.get(callee, set())
            by_position = index is not None and widest.get(callee, 0) > index
            if not (name in named or None in named or by_position):
                found.append((label, line, callee, name))
    return sorted(found)


def test_every_defaulted_parameter_is_passed_somewhere():
    defining = {str(path.relative_to(ROOT)): parse(path) for path in modules(("src/ssms",))}
    calling = [parse(path) for path in modules(("src/ssms", "tests", "demos", "bench"))]
    found = [
        f"{label}:{line}: {callee}({name}=...)"
        for label, line, callee, name in unpassed_knobs(defining, calling)
    ]
    assert found == []


def test_the_check_sees_an_unpassed_knob():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "class K:\n"
        "    def __init__(self, x=0, y=0): pass\n"
        "    def m(self, z=0): pass\n"
        "    @staticmethod\n"
        "    def s(t=0): pass\n"
        "    def __call__(self, unseen=0): pass\n"
        "def g(u=0): pass\n"
        "def h(v=0, w=0): pass\n"
        "f(0, 1, d=2)\n"
        "K(5).m(**opts)\n"
        "K.s(0)\n"
        "h(*args)\n"
    )
    found = unpassed_knobs({"m": tree}, [tree])
    assert found == [("m", 1, "f", "c"), ("m", 1, "f", "e"), ("m", 3, "K", "y"), ("m", 8, "g", "u")]


def test_importing_the_package_leaves_scipy_unloaded():
    # scipy.stats is most of the import's time and memory; only
    # goodness_of_fit needs it, and imports it when called.
    code = "import sys, ssms; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True
    )
    assert out.stdout.strip() == "[]"

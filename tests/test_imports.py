"""Every module uses each name it imports.

A stdlib ``ast`` check, so it needs no linter.  ``src/ssms/__init__.py`` is
left out: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def modules():
    for folder in ("src/ssms", "tests", "demos"):
        for path in sorted((ROOT / folder).glob("*.py")):
            if path.name != "__init__.py":
                yield path


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
        for line, name in unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nimport re as regex\nfrom a.b import c, d\nd()\n")
    assert unused_imports(tree) == [(1, "os"), (2, "regex"), (3, "c")]

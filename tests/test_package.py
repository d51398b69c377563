"""Static checks over the package sources."""

import ast
from pathlib import Path

import maform

SOURCES = sorted(Path(maform.__file__).parent.glob("*.py"))


def _unused_imports(tree):
    """Names bound by import statements that the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


def test_no_unused_imports():
    found = []
    for path in SOURCES:
        unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        found += [f"{path.name}:{line}: {name}" for name, line in sorted(unused.items())]
    assert SOURCES and not found, found

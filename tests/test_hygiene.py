"""Source hygiene of the package, checked with `ast` alone.

No module may import a name it never uses, and no module may rely on
`assert`, which `python -O` strips.
"""

import ast
from pathlib import Path

import pytest

import blockforge

MODULES = sorted(Path(blockforge.__file__).parent.glob("*.py"))


def _annotation_names(tree):
    """Names inside string annotations, such as a `-> "MatrixGF"` return."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [a.annotation for a in node.args.posonlyargs + node.args.args
                     + node.args.kwonlyargs] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                for sub in ast.walk(ast.parse(note.value, mode="eval")):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_annotation_names(tree))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_package_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    # __init__.py is exempt: its imports are the package's public re-exports.
    assert _unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text())
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)] == []


def test_unused_import_scan_flags_a_dead_import():
    tree = ast.parse("import os\nfrom .x import a, b\ndef f(v: 'a') -> int:\n    return 1\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "b")]

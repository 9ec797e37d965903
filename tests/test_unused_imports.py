"""Every module-level import in ``src/repro`` is read by its module.

An ``ast`` scan, so no linter is needed: a module-level ``import`` or
``from ... import`` binds names, and each must appear as a loaded name
somewhere in the module, in a string annotation, or in ``__all__``.
``__init__.py`` files (which re-export) and import statements whose first
line carries ``# noqa: F401`` (a deliberate re-export) are exempt.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _bound_names(tree, lines):
    """``{name: line}`` for the names the module body's imports bind."""
    bound = {}
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if "noqa: F401" in lines[stmt.lineno - 1]:
            continue
        for alias in stmt.names:
            if alias.name != "*":
                bound[alias.asname or alias.name.split(".")[0]] = stmt.lineno
    return bound


def _annotation_names(annotation):
    """The names a string annotation such as ``"np.ndarray"`` reads."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {sub.id for sub in ast.walk(expression) if isinstance(sub, ast.Name)}
    return names


def _read_names(tree):
    """Every name the module loads, in code or in string annotations, or
    lists in ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            names |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= _annotation_names(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names |= {elt.value for elt in getattr(node.value, "elts", ())
                      if isinstance(elt, ast.Constant)}
    return names


def unused_imports(path):
    """``[(line, name)]`` for the module-level imports ``path`` never reads."""
    text = path.read_text()
    tree = ast.parse(text)
    read = _read_names(tree)
    bound = _bound_names(tree, text.splitlines())
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_every_module_level_import_is_read():
    modules = [path for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"]
    assert len(modules) > 50
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in modules for line, name in unused_imports(path)
    ]
    assert found == []


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from typing import Dict, List\n"
        "from os import path  # noqa: F401  (re-export)\n"
        "__all__ = ['List']\n"
        "def f(x: 'np.ndarray') -> int:\n"
        "    return 1\n"
    )
    assert unused_imports(module) == [(2, "math"), (4, "Dict")]

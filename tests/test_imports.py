"""Every name a module of the fplab package imports is used in that module.

Stdlib ``ast`` only: a name bound by ``import``/``from ... import`` counts as
used when it appears as an identifier anywhere in the module or as a string
in the module's ``__all__`` (re-exports in ``__init__.py``)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fplab"


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_finds_unused_names():
    src = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport numpy as np\n"
        "from typing import Callable, Any\n"
        "from .x import kept\n"
        "__all__ = ['kept']\n"
        "def f(a: Any) -> None:\n    return np.zeros(1)\n"
    )
    assert _unused_imports(ast.parse(src)) == [(3, "os"), (5, "Callable")]


def test_package_has_no_unused_imports():
    files = sorted(SRC.glob("*.py"))
    assert files
    unused = [f"{path.name}:{line} {name}"
              for path in files
              for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert not unused, "unused imports: " + ", ".join(unused)

"""Every name a module of the fplab package imports is used in that module,
and only ``cli.py`` formats or writes files.

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


def _file_output(tree: ast.Module) -> list[tuple[int, str]]:
    """Lines that import json or csv, or call open or savetxt."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hits += [(node.lineno, f"import {a.name}") for a in node.names
                     if a.name.split(".")[0] in ("json", "csv")]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] in ("json", "csv"):
            hits.append((node.lineno, f"from {node.module} import"))
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in ("open", "savetxt"):
                hits.append((node.lineno, f"{name}()"))
    return sorted(hits)


def test_scanner_finds_file_output():
    src = (
        "import json\nimport numpy as np\nfrom csv import writer\n"
        "from .json_like import x\n"
        "def f(p):\n    with open(p) as fh:\n        np.savetxt(fh, x)\n"
    )
    assert _file_output(ast.parse(src)) == [
        (1, "import json"), (3, "from csv import"), (6, "open()"), (7, "savetxt()")]


def test_only_cli_writes_files():
    writers = [f"{path.name}:{line} {what}"
               for path in sorted(SRC.glob("*.py")) if path.name != "cli.py"
               for line, what in _file_output(ast.parse(path.read_text()))]
    assert not writers, "file output outside cli.py: " + ", ".join(writers)

"""Every name a module of the fplab package imports is used in that module,
only ``cli.py`` formats or writes files, and a run loads no more of SciPy
than ``scipy.linalg`` does.

The source checks use stdlib ``ast`` only: a name bound by
``import``/``from ... import`` counts as used when it appears as an
identifier anywhere in the module or as a string in the module's ``__all__``
(re-exports in ``__init__.py``)."""

import ast
import os
import subprocess
import sys
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


def _scipy_packages_loaded(code: str) -> set[str]:
    """The scipy.<name> packages in sys.modules after code runs in a fresh
    interpreter."""
    code += ("\nimport sys\n"
             "print(sorted({'.'.join(m.split('.')[:2]) for m in sys.modules"
             " if m.startswith('scipy.')}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return set(ast.literal_eval(out.stdout.strip().splitlines()[-1]))


def test_run_loads_no_more_scipy_than_linalg(tmp_path):
    # the CLI end to end, and both Dirichlet-form paths (the Toeplitz one runs
    # on np.fft, not scipy.signal)
    run = ("from fplab.cli import main\n"
           f"assert main(['steady', '--n', '65', '--outdir', {str(tmp_path)!r}]) == 0\n"
           "from fplab.grids import gaussian_density, make_grid\n"
           "from fplab.inequalities import dirichlet_form_block\n"
           "from fplab.kernels import gaussian_reference_kernel\n"
           "g = make_grid(12.0, 257)\n"
           "f = gaussian_density(g, 1.0, 0.3)\n"
           "dirichlet_form_block(f.values[:, None], g, gaussian_reference_kernel(), 0.5)\n")
    floor = _scipy_packages_loaded("import numpy, scipy.linalg")
    assert "scipy.linalg" in floor
    assert _scipy_packages_loaded(run) == floor

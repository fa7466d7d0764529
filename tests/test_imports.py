"""Every name a module of the fplab package imports is used in that module,
every defaulted parameter of a package function is passed by some call,
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

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fplab"


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


def _calls(tree: ast.Module) -> list[tuple[str, int, bool, set[str], str | None, str | None]]:
    """(callee name, explicit positional count, whether a ``*`` sequence is
    unpacked, keyword names, what a ``**`` mapping passes (None if there is
    none, "forward" for the enclosing function's own ``**`` parameter, else
    "any"), the enclosing function's name) for every call of a name or an
    attribute."""
    found = []

    def visit(node: ast.AST, owner: str | None, kwarg: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner, kwarg = node.name, node.args.kwarg and node.args.kwarg.arg
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            keywords, mapping = set(), None
            for kw in node.keywords:
                if kw.arg is not None:
                    keywords.add(kw.arg)
                else:
                    mapping = ("forward" if isinstance(kw.value, ast.Name)
                               and kw.value.id == kwarg else "any")
            starred = [isinstance(a, ast.Starred) for a in node.args]
            if name:
                found.append((name, starred.count(False), any(starred), keywords, mapping,
                              owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, kwarg)

    visit(tree, None, None)
    return found


def _defaults(tree: ast.Module) -> list[tuple[str, set[str], int, list[tuple[str, int | None]]]]:
    """(name, named parameters, required positional count, defaulted
    parameters with their positional index or None if keyword-only) of
    every function that is not a dunder; a method's self does not count."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    out = []
    for f in ast.walk(tree):
        if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) or f.name.startswith("__"):
            continue
        a = f.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
        pos = (a.posonlyargs + a.args)[int(id(f) in methods and not static):]
        required = len(pos) - len(a.defaults)
        defaulted = [(p.arg, i) for i, p in enumerate(pos) if i >= required]
        defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        out.append((f.name, {p.arg for p in pos + a.kwonlyargs}, required, defaulted))
    return out


def _unpassed_defaults(package: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """"file:function(parameter)" for every defaulted parameter of a function
    in ``package`` (file name -> tree) that no call in ``callers`` passes, by
    position or by keyword.  Calls are matched by the bare name.  A call that
    hands on its function's own ``**`` parameter passes the keywords that
    the calls of that function pass beyond its named parameters; any other
    ``**`` mapping passes every parameter, and a ``*`` sequence the required
    positional ones."""
    funcs = [(path, *fn) for path, tree in package.items() for fn in _defaults(tree)]
    calls = [c for tree in callers for c in _calls(tree)]
    named: dict[str, set[str]] = {}
    for _, name, params, _, _ in funcs:
        named.setdefault(name, set()).update(params)
    # the keywords that reach each function's ``**`` parameter, to a fixed point
    extra: dict[str, set[str]] = {}
    while True:
        before = sum(map(len, extra.values()))
        for name, _, _, keywords, mapping, owner in calls:
            passed = keywords | (extra.get(owner, set()) if mapping == "forward" else set())
            extra.setdefault(name, set()).update(passed - named.get(name, set()))
        if sum(map(len, extra.values())) == before:
            break
    missing = []
    for path, name, _, required, defaulted in funcs:
        sites = [c for c in calls if c[0] == name]
        for param, index in defaulted:
            if not any((index is not None and index < (max(n, required) if star else n))
                       or param in kw or mapping == "any"
                       or (mapping == "forward" and param in extra.get(owner, set()))
                       for _, n, star, kw, mapping, owner in sites):
                missing.append(f"{path}:{name}({param})")
    return sorted(missing)


def test_every_defaulted_parameter_is_passed_somewhere():
    # the scanner on a known case first
    toy = (
        "def f(a, b=1, *, c=2, d=3):\n    pass\n"
        "def g(x, y=0, **options):\n    return f(x, **options)\n"
        "def h(z=0):\n    pass\n"
        "class C:\n    def m(self, u, v=0):\n        pass\n"
        "    def __eq__(self, other=None):\n        pass\n"
    )
    calls = "g(1, c=5)\nC().m(1, 2)\nf(*args)\nh(**config)\n"
    found = _unpassed_defaults({"p.py": ast.parse(toy)}, [ast.parse(toy), ast.parse(calls)])
    # g hands c on to f; m's v is its second positional after self; f(*args)
    # passes only a; an unknown mapping passes z; dunders are exempt
    assert found == ["p.py:f(b)", "p.py:f(d)", "p.py:g(y)"]
    # a parameter that every caller leaves at its default is a constant
    package = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    callers = list(package.values()) + [ast.parse(path.read_text())
                                        for folder in ("perfbench", "tests")
                                        for path in sorted((ROOT / folder).glob("*.py"))]
    unpassed = _unpassed_defaults(package, callers)
    assert not unpassed, "defaulted parameters no call passes: " + ", ".join(unpassed)


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

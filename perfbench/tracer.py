"""Outside-in tracing of fplab: wraps the package's public functions and the
dense LAPACK entry points it calls, without touching the package source.

Every fplab module is imported, each public function defined in it is
replaced by a recording wrapper, and every fplab module namespace that bound
the original by name (``from .grids import weighted_norm``) is rebound to the
wrapper.  The scipy.linalg / numpy.linalg routines are patched on their
modules, which fplab reaches through attribute lookups (``sla.expm``).
Matrix products (``@``) cannot be wrapped and land in the caller's self time.

Spans (name, start, end, parent, run id) are kept in memory and aggregated
when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

import numpy as np

# routine name -> list of (module, attribute) patched under that name
LAPACK_ROUTINES = {
    "eigvals": [("scipy.linalg", "eigvals")],
    "expm": [("scipy.linalg", "expm")],
    "lu_factor": [("scipy.linalg", "lu_factor")],
    "lu_solve": [("scipy.linalg", "lu_solve")],
    "solve": [("numpy.linalg", "solve"), ("scipy.linalg", "solve")],
    "cond": [("numpy.linalg", "cond")],
}
# routines whose cost is reported as the computed sum of n^3 over calls
N3_ROUTINES = ("eigvals", "expm", "lu_factor", "solve", "cond")
# functions whose calls on already-seen arguments are counted as repeats
REPEAT_TRACKED = frozenset({"operators.assemble", "spectra.eigen_spectrum",
                            "semigroup.steady_state"})


def _fingerprint(obj, depth: int = 0):
    """Hashable summary of an argument, used only to detect repeated calls.
    Arrays contribute their shape, dtype and a strided sample of their bytes."""
    if depth > 4:
        return type(obj).__name__
    if isinstance(obj, np.ndarray):
        flat = obj.ravel()
        return ("ndarray", obj.shape, obj.dtype.str, flat[:: max(1, flat.size // 4096)].tobytes())
    if isinstance(obj, (int, float, complex, str, bool, type(None))):
        return obj
    if isinstance(obj, (list, tuple)):
        return tuple(_fingerprint(v, depth + 1) for v in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, _fingerprint(v, depth + 1)) for k, v in obj.items()))
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields is not None:
        return (type(obj).__name__,) + tuple(
            _fingerprint(getattr(obj, f), depth + 1) for f in fields)
    return (type(obj).__name__, id(obj))


class Tracer:
    """Records one span per wrapped call.  ``install`` patches the modules;
    ``uninstall`` restores every original binding."""

    def __init__(self, run_id: int = 0) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.n3: dict[str, float] = defaultdict(float)
        self.repeats: dict[str, int] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._run_id = run_id
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def span(self, name: str, fn, args=(), kwargs=None):
        kwargs = kwargs or {}
        if name in REPEAT_TRACKED:
            key = _fingerprint((args, kwargs))
            if key in self._seen[name]:
                self.repeats[name] += 1
            else:
                self._seen[name].add(key)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self._run_id))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._run_id)

    def _wrap(self, name: str, fn, n3: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if n3 and args and hasattr(args[0], "shape") and len(args[0].shape) == 2:
                tracer.n3[name] += float(args[0].shape[0]) ** 3
            return tracer.span(name, fn, args, kwargs)

        return wrapper

    def _setattr(self, obj, attr: str, value) -> None:
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    # -- installation -------------------------------------------------------

    def install(self, package: str = "fplab") -> None:
        pkg = importlib.import_module(package)
        modules = [pkg] + [importlib.import_module(f"{package}.{m.name}")
                           for m in pkgutil.iter_modules(pkg.__path__)]
        wrapped: dict[int, object] = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if id(fn) in wrapped and inspect.isfunction(fn):
                    self._setattr(mod, attr, wrapped[id(fn)])
        for routine, targets in LAPACK_ROUTINES.items():
            for modname, attr in targets:
                mod = importlib.import_module(modname)
                self._setattr(mod, attr, self._wrap(f"lapack.{routine}", getattr(mod, attr),
                                                    n3=routine in N3_ROUTINES))

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls and self seconds, plus the time under top-level spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        top_level = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[i]
            if parent == -1:
                top_level += end - start
        for name, row in out.items():
            if name in REPEAT_TRACKED:
                row["repeats"] = self.repeats.get(name, 0)
            if name in self.n3:
                row["n3"] = self.n3[name]
        return {"functions": out, "top_level_s": top_level}

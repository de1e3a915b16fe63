"""Per-layer tracing from outside the program.

Tracer.install() wraps the public functions and methods of the nine
lightlike_lab layers, then rebinds every module-level name and every
module-level dict value that held an original.  Rebinding matters:
classifier, geometry, submanifold and runner import rref, solve,
coords_in_basis and rank by name, and runner calls the point checks
through the POINT_CHECK_FUNCTIONS table, so patching only the defining
module would count nothing.

Each wrapped call is a span.  A span's inclusive time is counted once
per outermost call of that function; its self time (duration minus the
spans it caused) is credited to the layer that defines the function.
For rref, solve and the nonexistence audit the tracer also keeps the
set of distinct arguments, which shows repeated work.
"""

from __future__ import annotations

import functools
import inspect
import random
import sys
import time
from collections import Counter, defaultdict
from enum import Enum
from typing import Dict, List

LAYERS = (
    "scenes",
    "submanifold",
    "geometry",
    "classifier",
    "linalg",
    "polynomials",
    "scalars",
    "ambient",
    "runner",
)

# Operator methods that count as a layer's work even though they are dunders.
_OPERATORS = {
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
    "__pow__",
}

# Spans whose distinct argument sets are recorded.
_KEYED = {"linalg.rref", "linalg.solve", "classifier.check_single_null_obstruction"}


def _freeze(x):
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    if isinstance(x, random.Random):
        return x.getstate()
    return x


def _public(name: str) -> bool:
    return not name.startswith("_") or name in _OPERATORS


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.distinct: Dict[str, set] = {name: set() for name in _KEYED}
        self._stack: List[float] = []
        self._depth: Counter = Counter()
        self._undo: List = []

    # ---- wrapping ----

    def _wrap(self, fn, name: str, layer: str):
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        stack, depth = self._stack, self._depth
        seen = self.distinct.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if seen is not None:
                seen.add(_freeze((args, tuple(sorted(kwargs.items())))))
            depth[name] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_time[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[name] += 1
                depth[name] -= 1
                if not depth[name]:
                    inclusive[name] += elapsed

        return span

    def _targets(self, module, layer: str):
        """(owner, attribute, original, wrapper) for everything the layer defines."""
        out = []
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                if not attr.startswith("_"):
                    out.append((module, attr, obj, self._wrap(obj, f"{layer}.{attr}", layer)))
            elif (
                inspect.isclass(obj)
                and obj.__module__ == module.__name__
                and not issubclass(obj, (Enum, BaseException))
            ):
                wrapped = {}
                for mname, member in list(vars(obj).items()):
                    if not _public(mname):
                        continue
                    kind = None
                    fn = member
                    if isinstance(member, (classmethod, staticmethod)):
                        kind, fn = type(member), member.__func__
                    if not inspect.isfunction(fn):
                        continue
                    if id(fn) not in wrapped:
                        wrapped[id(fn)] = self._wrap(fn, f"{layer}.{fn.__qualname__}", layer)
                    new = wrapped[id(fn)] if kind is None else kind(wrapped[id(fn)])
                    out.append((obj, mname, member, new))
        return out

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        import importlib

        replace: Dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"lightlike_lab.{layer}")
            for owner, attr, original, new in self._targets(module, layer):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, new)
                if inspect.isfunction(original):
                    replace[id(original)] = new
        # rebind imported names and table entries in every package module
        for modname, module in list(sys.modules.items()):
            if modname != "lightlike_lab" and not modname.startswith("lightlike_lab."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replace:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, replace[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replace:
                            self._undo.append((obj, key, value))
                            obj[key] = replace[id(value)]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo = []

    # ---- results ----

    def export(self) -> Dict:
        """Plain-JSON state, so fresh interpreters can report to the parent."""
        return {
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "self_time": dict(self.self_time),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }


def merge(states: List[Dict]) -> Dict:
    """Sum exported states.  Distinct counts add up, which is the right
    measure across fresh interpreters: nothing repeated in one process
    can be reused by the next."""
    out: Dict[str, Dict] = {"calls": {}, "inclusive": {}, "self_time": {}, "distinct": {}}
    for state in states:
        for part, values in state.items():
            for k, v in values.items():
                out[part][k] = out[part].get(k, 0) + v
    return out

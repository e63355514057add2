"""Span tracer for the ``optheory`` package, installed from outside it.

``Tracer(package)`` plans one wrapper per public function of every module
of the package and per public method of every class the package defines.
``install`` binds each wrapper at every module-level name that refers to
the function, not only in the defining module: ``quantum`` calls
``partial_trace`` through its own ``from .linalg import`` binding, and that
binding is wrapped too.  Methods are wrapped on their class.  ``uninstall``
puts the originals back, so untraced and traced rounds run the same code
apart from the wrappers.

A wrapped call records a span (name, start, end, parent span, verdict id)
in flat in-memory arrays, written out once by ``write_spans``.  A span's
self time is its duration minus the durations of its direct wrapped
children; per-name calls, self time and errors (exceptions leaving the
call) are accumulated as calls return and handed out by ``take_round``.
Private functions (leading underscore) are not wrapped, so their time
counts as self time of the public caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from array import array
from time import perf_counter


def _is_function(obj) -> bool:
    # functools.lru_cache wrappers are not plain functions but are called alike.
    return inspect.isfunction(obj) or (callable(obj) and hasattr(obj, "cache_info"))


def span_name(fn) -> str:
    """``<layer>.<qualname>``, the layer being the defining module's last name."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Wraps a package's public callables and aggregates their spans."""

    def __init__(self, package: str | None = None, hooks: dict | None = None):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.errors: list[int] = []
        # name -> hook(tracer, args, kwargs, result, parent_name), run after a call returns.
        self.hooks = dict(hooks or {})
        self.verdict = -1
        self._stack: list[list] = []  # frames [span index, child seconds, name index]
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_verdict = array("q")
        self.counters: dict[str, float] = {}
        self._plan: list[tuple[object, str, object, object]] = []
        if package is not None:
            self._plan_package(package)

    # -- wrapping ---------------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.errors.append(0)
        return self._index[name]

    def wrap(self, fn, name: str | None = None):
        """Return a wrapper of ``fn`` that records one span per call."""
        name = name or span_name(fn)
        idx = self._name_index(name)
        hook = self.hooks.get(name)
        calls, self_s, errors = self.calls, self.self_s, self.errors
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, verdicts = self.span_parent, self.span_verdict

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = len(names)
            names.append(idx)
            parents.append(parent[0] if parent else -1)
            verdicts.append(self.verdict)
            ends.append(0.0)
            frame = [span, 0.0, idx]
            stack.append(frame)
            failed = True
            start = perf_counter()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                stack.pop()
                ends[span] = end
                duration = end - start
                calls[idx] += 1
                self_s[idx] += duration - frame[1]
                if failed:
                    errors[idx] += 1
                if parent is not None:
                    parent[1] += duration
            if hook is not None:
                hook(self, args, kwargs, result, self.names[parent[2]] if parent else "")
            return result

        return traced

    def _plan_package(self, package: str) -> None:
        pkg = importlib.import_module(package)
        modules = [pkg] + [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
            if info.name != "__main__"
        ]
        own = {m.__name__ for m in modules}
        wrappers: dict[int, object] = {}
        classes: set[type] = set()
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) not in own:
                    continue
                if inspect.isclass(obj):
                    if obj not in classes:
                        classes.add(obj)
                        self._plan_class(obj)
                elif _is_function(obj):
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self.wrap(obj)
                    self._plan.append((module, attr, obj, wrappers[id(obj)]))

    def _plan_class(self, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, (staticmethod, classmethod)):
                replacement = type(member)(self.wrap(member.__func__))
            elif inspect.isfunction(member):
                replacement = self.wrap(member)
            else:
                continue
            self._plan.append((cls, attr, member, replacement))

    def install(self) -> None:
        for owner, attr, _, replacement in self._plan:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._plan:
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def take_round(self) -> dict:
        """Per-name calls, self seconds and errors since the last call, then reset."""
        out = {
            "functions": {
                name: {"calls": self.calls[i], "self_s": self.self_s[i], "errors": self.errors[i]}
                for i, name in enumerate(self.names)
            },
            "counters": dict(self.counters),
        }
        for i in range(len(self.names)):
            self.calls[i] = 0
            self.self_s[i] = 0.0
            self.errors[i] = 0
        self.counters.clear()
        return out

    def write_spans(self, path) -> int:
        """Save every span recorded so far as a compressed ``.npz``; return the count."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            verdict=np.frombuffer(self.span_verdict, dtype=np.int64),
        )
        return len(self.span_name)

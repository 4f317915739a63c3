"""Outside-in span tracer for the yprobe layers.

The benchmark records spans from its own files: `Tracer.installed()` swaps
every public function and method of the layer modules, in every namespace
that holds a reference to it (module attributes, module-level dicts such
as the CLI's command table, and the package re-exports), for a wrapper
that records one span per call.  Leaving the block restores the originals,
so untraced runs execute the program exactly as shipped.

A span is (name, start, end, parent, job, error).  Spans live in flat
arrays while the run lasts and are written out once at the end.  A span's
self time is its duration minus the durations of its direct children;
calls within one thread never overlap, so the children's durations are
exactly the part of the interval they cover.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from contextlib import contextmanager
from enum import Enum

import numpy as np

LAYERS = ("cli", "params", "presets", "liouvillian", "linalg", "floquet",
          "dressed", "oracle")

# Non-public methods worth a span: construction and validation of records.
_DUNDERS = ("__init__", "__post_init__")


class Tracer:
    """Collects spans in memory; `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter, counters=None):
        self.clock = clock
        # span name -> f(args, kwargs) -> int, summed per name (e.g. steps)
        self.counters = dict(counters or {})
        self.counts = {name: 0 for name in self.counters}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.error = array("b")
        self.current_job = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.error.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str):
        """Return a wrapper recording one span named `name` per call to fn."""
        nid = self._intern(name)
        counter = self.counters.get(name)

        def traced(*args, **kwargs):
            if counter is not None:
                self.counts[name] += counter(args, kwargs)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.error[idx] = 1
                raise
            finally:
                self._close(idx)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = self._open(self._intern(name))
        try:
            yield
        except BaseException:
            self.error[idx] = 1
            raise
        finally:
            self._close(idx)

    @contextmanager
    def installed(self, package: str = "yprobe", layers=LAYERS):
        """Wrap every public function of the layer modules while the block runs."""
        restore = _install(self, package, layers)
        try:
            yield self
        finally:
            for target, key, original in reversed(restore):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)

    def arrays(self) -> dict:
        """Spans as numpy arrays, with per-span duration and self time."""
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": start,
            "end": end,
            "parent": parent,
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "error": np.frombuffer(self.error, dtype=np.int8).copy(),
            "duration": dur,
            "self": dur - child_time,
        }

    def save(self, path) -> None:
        """Write all spans to a compressed .npz (names in `names`)."""
        data = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **data)


def _public_callables(module):
    """(owner, attribute, original, span name) for each function to wrap."""
    layer = module.__name__.rsplit(".", 1)[-1]
    found = []
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            found.append((module, attr, value, f"{layer}.{attr}"))
        elif inspect.isclass(value) and not issubclass(value, (Enum, BaseException)):
            for name, member in vars(value).items():
                if name.startswith("_") and name not in _DUNDERS:
                    continue
                span = f"{layer}.{value.__name__}.{name}"
                if inspect.isfunction(member):
                    found.append((value, name, member, span))
                elif isinstance(member, property) and member.fget is not None:
                    found.append((value, name, member, span))
                elif isinstance(member, (classmethod, staticmethod)):
                    found.append((value, name, member, span))
    return found


def _install(tracer: Tracer, package: str, layers) -> list:
    modules = [importlib.import_module(f"{package}.{layer}") for layer in layers]
    namespaces = [importlib.import_module(package)] + modules
    restore = []
    wrapped_by_id = {}
    for module in modules:
        for owner, attr, original, span in _public_callables(module):
            if isinstance(original, property):
                replacement = property(tracer.wrap(original.fget, span),
                                       original.fset, original.fdel, original.__doc__)
            elif isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(tracer.wrap(original.__func__, span))
            else:
                replacement = tracer.wrap(original, span)
                wrapped_by_id[id(original)] = (original, replacement)
            restore.append((owner, attr, original))
            setattr(owner, attr, replacement)
    # Rebind every other reference to a wrapped module-level function:
    # `from .x import f` copies and dispatch tables such as cli._COMMANDS.
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            hit = wrapped_by_id.get(id(value))
            if hit is not None and hit[0] is value:
                restore.append((ns, attr, value))
                setattr(ns, attr, hit[1])
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    hit = wrapped_by_id.get(id(item))
                    if hit is not None and hit[0] is item:
                        restore.append((value, key, item))
                        value[key] = hit[1]
    return restore


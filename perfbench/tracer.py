"""Span tracing of isoact's layers from outside the program.

A layer is an isoact module.  ``install`` wraps, in place and reversibly:

- every name that ``isoact.suites`` and ``isoact.cli`` import from another
  isoact module, in those modules' own namespaces (functions directly,
  classes through a proxy that traces construction, the ``mobius`` module
  alias through a proxy that traces its functions, and the track corpus
  factories);
- the public methods of those classes, ``FreeWord.__mul__`` and
  ``FreeWord.__pow__``, and the public methods of the classes whose
  instances the suites call methods on (``MetricTree``, ``EdgeVector``);
- ``fock.exp_matrix`` and ``harmonic.harmonic_decompose`` in their own
  modules, so that the calls made inside fock and harmonic are counted.

Spans are aggregated as they close, because hot primitives such as
``FreeWord.__mul__`` run millions of times per workload.  A span's self
time is its duration minus the time covered by its child spans, so the
self times of all layers add up to the time of the outermost spans.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# Calls back into its caller's trial closures; wrapping it would move suite
# time into the report layer.
UNWRAPPED = {"map_trials"}


class Tracer:
    def __init__(self):
        self.stack = []  # child-time accumulator of each open span
        self.self_s = {}  # layer -> seconds not covered by child spans
        self.stats = {}  # (layer, name) -> [calls, inclusive seconds, calls that raised]

    def wrap(self, layer: str, name: str, fn):
        stack = self.stack
        clock = time.perf_counter
        self_s = self.self_s
        self_s.setdefault(layer, 0.0)
        stat = self.stats.setdefault((layer, name), [0, 0.0, 0])

        @functools.wraps(fn, updated=())
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_s[layer] += elapsed - children[0]
                stat[0] += 1
                stat[1] += elapsed

        return span

    def calls(self, layer: str, name: str = None) -> int:
        """Spans of one name, or of every name in the layer when ``name`` is None."""
        return sum(
            stat[0]
            for (span_layer, span_name), stat in self.stats.items()
            if span_layer == layer and (name is None or span_name == name)
        )

    def inclusive_s(self, layer: str, name: str) -> float:
        return self.stats.get((layer, name), [0, 0.0, 0])[1]

    def raised(self, layer: str, name: str) -> int:
        return self.stats.get((layer, name), [0, 0.0, 0])[2]


def layer_of(obj) -> str:
    return obj.__module__.rsplit(".", 1)[-1]


def _is_isoact(obj) -> bool:
    return (getattr(obj, "__module__", None) or "").startswith("isoact.")


class _ClassProxy:
    """Stands for a class in a caller's namespace; traces construction."""

    def __init__(self, cls, construct):
        self._cls = cls
        self._construct = construct

    def __call__(self, *args, **kwargs):
        return self._construct(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._cls, name)


class _ModuleProxy:
    """Stands for a module alias in a caller's namespace; traces its functions."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer
        self._cache = {}

    def __getattr__(self, name):
        if name not in self._cache:
            value = getattr(self._module, name)
            if isinstance(value, types.FunctionType) and _is_isoact(value):
                value = self._tracer.wrap(layer_of(value), name, value)
            self._cache[name] = value
        return self._cache[name]


def install(tracer: Tracer):
    """Wrap isoact's layer boundaries; return a function that undoes it."""
    suites = sys.modules["isoact.suites"]
    cli = sys.modules["isoact.cli"]
    groups = sys.modules["isoact.groups"]
    rtree = sys.modules["isoact.rtree"]
    fock = sys.modules["isoact.fock"]
    harmonic = sys.modules["isoact.harmonic"]
    undo = []

    def replace(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    wrapped_classes = set()

    def wrap_methods(cls, extra=()):
        if cls in wrapped_classes:
            return
        wrapped_classes.add(cls)
        layer = layer_of(cls)
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(value, types.FunctionType):
                replace(cls, attr, tracer.wrap(layer, name, value))
            elif isinstance(value, (staticmethod, classmethod)):
                replace(cls, attr, type(value)(tracer.wrap(layer, name, value.__func__)))

    wrap_methods(groups.FreeWord, extra=("__mul__", "__pow__"))
    wrap_methods(rtree.MetricTree)
    wrap_methods(rtree.EdgeVector)

    for module in (suites, cli):
        home = module.__name__
        for attr, value in list(vars(module).items()):
            if attr in UNWRAPPED or attr.startswith("_"):
                continue
            if isinstance(value, types.ModuleType):
                if value.__name__.startswith("isoact."):
                    replace(module, attr, _ModuleProxy(value, tracer))
            elif isinstance(value, type):
                if _is_isoact(value) and value.__module__ != home:
                    if issubclass(value, BaseException):
                        continue
                    wrap_methods(value)
                    construct = tracer.wrap(layer_of(value), value.__name__, value)
                    replace(module, attr, _ClassProxy(value, construct))
            elif isinstance(value, types.FunctionType):
                if _is_isoact(value) and value.__module__ != home:
                    replace(module, attr, tracer.wrap(layer_of(value), attr, value))
            elif isinstance(value, dict) and value and all(
                isinstance(v, types.FunctionType) and _is_isoact(v) for v in value.values()
            ):
                factories = {k: tracer.wrap(layer_of(v), f"{attr}[{k}]", v) for k, v in value.items()}
                replace(module, attr, factories)

    replace(fock, "exp_matrix", tracer.wrap("fock", "exp_matrix", fock.exp_matrix))
    replace(
        harmonic,
        "harmonic_decompose",
        tracer.wrap("harmonic", "harmonic_decompose", harmonic.harmonic_decompose),
    )

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore

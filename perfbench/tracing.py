"""In-memory spans around calls into each kslab layer's public functions.

`Tracer.install` replaces every public module-level function of the layer
modules, wherever a kslab module holds a reference to it, by a wrapper that
records a span (name, start, end, parent).  `RecordSampler.__call__` is
wrapped too, since the sampler is called as an instance.  Nothing inside the
program changes: the spans sit at the boundaries the benchmark can see.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "kinetic", "order", "diagnostics", "frequency", "particle")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"kslab.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        kslab_modules = [m for n, m in sys.modules.items()
                         if n == "kslab" or n.startswith("kslab.")]
        for mod in kslab_modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])
        sampler = modules["diagnostics"].RecordSampler
        self._patch(sampler, "__call__",
                    self.wrap("diagnostics.RecordSampler", sampler.__call__))

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans) -> dict:
    """Per span name: call count, total time and self time; per layer: self time."""
    own = self_times(spans)
    by_name: dict[str, dict] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for (name, start, end, _), self_s in zip(spans, own):
        entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += self_s
        layer_self[name.split(".", 1)[0]] += self_s
    return {"by_name": by_name, "layer_self_s": layer_self}


def child_time(spans, parent_name: str, child_name: str) -> float:
    """Total duration of spans named child_name whose parent is named parent_name."""
    return sum(end - start for name, start, end, parent in spans
               if name == child_name and parent >= 0 and spans[parent][0] == parent_name)

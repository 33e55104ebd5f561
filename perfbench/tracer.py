"""Span tracing of the public functions of every fmgeig module.

:func:`install` wraps each function named in a module's ``__all__`` and
patches the wrapper into every ``fmgeig`` module that bound the original
(``eigsolver`` imports ``generalized_eig_dense`` by name, ``multigrid``
imports ``cg_solve``, and so on), so calls between modules are seen.  A
span records a name, a start, an end and its parent span; spans stay in
memory until the run writes them out.  Self time is a span's duration
minus the durations of its child spans (calls are single-threaded and
nested, so children never overlap).  A tracer made with a set of names
wraps only those; the study workload uses one to time and capture its
phase boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("mesh", "fem", "multigrid", "linalg", "eigsolver", "harness", "cli")


class Tracer:
    """In-memory span recorder with a few count hooks.

    ``names`` (``"<layer>.<function>"``) limits the wrapped functions; by
    default every public function of every layer is wrapped.  The last
    result of each wrapped name is kept in ``results`` until :meth:`reset`.
    """

    def __init__(self, names=None):
        self.names = None if names is None else frozenset(names)
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.results: dict = {}
        self.level_marks: list[list[float]] = []  # per full_multigrid call
        self.wrapped: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        hook = _RESULT_HOOKS.get(name)
        signature = inspect.signature(fn)
        on_level = name == "eigsolver.full_multigrid" and "on_level" in signature.parameters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_level:
                args, kwargs = self._mark_levels(signature, args, kwargs)
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            self.results[name] = out
            if hook is not None:
                hook(self.counts, out)
            return out

        return traced

    def _mark_levels(self, signature, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        inner = bound.arguments.get("on_level")
        marks = [time.perf_counter()]
        self.level_marks.append(marks)

        def on_level(approx):
            marks.append(time.perf_counter())
            if inner is not None:
                inner(approx)

        bound.arguments["on_level"] = on_level
        return bound.args, bound.kwargs

    def install(self) -> None:
        """Wrap the traced functions in every module that bound them."""
        package = [m for n, m in list(sys.modules.items()) if n == "fmgeig" or n.startswith("fmgeig.")]
        for layer in LAYERS:
            module = importlib.import_module("fmgeig." + layer)
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn):
                    continue
                name = "%s.%s" % (layer, attr)
                if self.names is not None and name not in self.names:
                    continue
                wrapper = self.wrap(name, fn)
                self.wrapped.append(name)
                for holder in package:
                    for key in [k for k, v in vars(holder).items() if v is fn]:
                        self._patches.append((holder, key, fn))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.results.clear()
        self.level_marks.clear()

    def summary(self) -> dict:
        """Inclusive time and calls (outermost calls only) and self time per name."""
        child_time = [0.0] * len(self.spans)
        outermost = [True] * len(self.spans)
        for index, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
            ancestor = parent
            while ancestor >= 0:
                if self.spans[ancestor][0] == name:
                    outermost[index] = False
                    break
                ancestor = self.spans[ancestor][3]
        out: dict = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
            entry["self_s"] += (end - start) - child_time[index]
            if outermost[index]:
                entry["s"] += end - start
                entry["calls"] += 1
        return out

    def level_times(self) -> list[float]:
        """Wall time of each FMG level of the last full_multigrid call:
        level 0 from the call's start, level k since level k-1 was accepted."""
        if not self.level_marks:
            return []
        marks = self.level_marks[-1]
        return [b - a for a, b in zip(marks[:-1], marks[1:])]


def _add_iterations(key):
    def hook(counts, out):
        if isinstance(out, tuple) and len(out) > 1 and isinstance(out[1], int):
            counts[key] += out[1]

    return hook


_RESULT_HOOKS = {
    "linalg.cg_solve": _add_iterations("linalg.cg_iters"),
    "linalg.pcg_solve": _add_iterations("linalg.pcg_iters"),
}

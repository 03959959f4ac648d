"""Outside-in tracer: wraps public functions of a package by name.

A traced name is ``"<module>.<function>"`` relative to the package, for
example ``"sparse_coding.omp_encode"``. Installing the tracer replaces the
function in every loaded module of the package that binds it, so calls made
through ``from .x import f`` aliases are traced too. A name whose module or
function does not exist is reported in ``absent`` instead of raising, so the
benchmark keeps working when a later refactor folds or deletes a function.

Each call becomes a span (name, parent span, start, end) in compact
arrays, kept in memory and written by ``write_spans`` when the run ends. All
spans of one tracer share its ``run_id``. Spans are grouped under phases
(``with tracer.phase("command"):``) so set-up and the measured command can be
aggregated separately. Per name and phase the tracer keeps ``calls``,
``total_s`` and ``self_s`` (duration minus the time of direct child spans).

Hooks receive the bound call arguments and the result and add to named
counters of the current phase; they run after the span has closed, so their
cost is not charged to the traced function.
"""

import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self, package: str, names, run_id: str, hooks=None):
        self.package = package
        self.names = list(names)
        self.run_id = run_id
        self.hooks = dict(hooks or {})
        self.absent: list[str] = []
        self.counters: dict[tuple, float] = defaultdict(float)
        self.stats: dict[tuple, list] = {}
        self.phases: list[str] = []
        self._span_name = array("H")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[list] = []  # [span index, child seconds, name index]
        self._phase = "none"
        self._patched: list[tuple] = []

    def install(self) -> "Tracer":
        for name_id, name in enumerate(self.names):
            module_name, _, attr = name.rpartition(".")
            try:
                module = importlib.import_module(f"{self.package}.{module_name}")
            except ImportError:
                self._mark_absent(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self._mark_absent(name)
                continue
            wrapper = self._wrap(name_id, name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == self.package or mod_name.startswith(self.package + ".")
                ):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        return self

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    @contextmanager
    def phase(self, label: str):
        """Group the spans opened inside under ``label``."""
        previous = self._phase
        self._phase = label
        if label not in self.phases:
            self.phases.append(label)
        try:
            yield
        finally:
            self._phase = previous

    def _wrap(self, name_id, name, original):
        hook = self.hooks.get(name)
        signature = inspect.signature(original) if hook else None
        clock = time.perf_counter
        stack = self._stack
        names, parents = self._span_name, self._span_parent
        starts, ends = self._span_start, self._span_end

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            frame = [index, 0.0, name_id]
            stack.append(frame)
            start = clock()
            starts.append(start)
            ends.append(start)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                ends[index] = end
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self._record(name, duration, duration - frame[1])
            if hook is not None:
                self._run_hook(name, hook, signature, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    def _record(self, name, duration, self_time):
        key = (self._phase, name)
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_time

    def _run_hook(self, name, hook, signature, args, kwargs, result):
        try:
            bound = signature.bind(*args, **kwargs).arguments
            hook(self, bound, result)
        except (TypeError, AttributeError, KeyError, IndexError, ValueError):
            # the function's signature or return type changed under a
            # refactor: report its derived counters as absent, keep tracing
            self._mark_absent(f"{name}:hook")

    def _mark_absent(self, label: str) -> None:
        if label not in self.absent:
            self.absent.append(label)

    def enclosing(self, name: str) -> int:
        """Span index of the innermost open span of ``name``, or -1."""
        if name not in self.names:
            return -1
        name_id = self.names.index(name)
        for index, _, open_id in reversed(self._stack):
            if open_id == name_id:
                return index
        return -1

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[(self._phase, key)] += amount

    def counter(self, phase: str, key: str) -> float:
        return self.counters.get((phase, key), 0.0)

    def layer(self, phase: str, name: str) -> dict:
        """calls / total_s / self_s of one name in one phase (zeros if unseen)."""
        calls, total, self_time = self.stats.get((phase, name), (0, 0.0, 0.0))
        return {"calls": calls, "total_s": total, "self_s": self_time}

    def summary(self) -> dict:
        return {
            "run_id": self.run_id,
            "absent": list(self.absent),
            "phases": {
                phase: {
                    "layers": {
                        name: self.layer(phase, name)
                        for name in self.names
                        if (phase, name) in self.stats
                    },
                    "counters": {
                        key: value
                        for (counted_in, key), value in sorted(self.counters.items())
                        if counted_in == phase
                    },
                }
                for phase in self.phases
            },
            "spans": len(self._span_start),
        }

    def spans(self) -> dict:
        """Copies of the span arrays: name index, parent span (-1: none), start, end."""
        return {
            "name": np.frombuffer(self._span_name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self._span_parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self._span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._span_end, dtype=np.float64).copy(),
        }

    def callers(self) -> dict:
        """For each traced name, the names seen as the parent of one of its spans."""
        spans = self.spans()
        child = spans["parent"] >= 0
        pairs = zip(spans["name"][child].tolist(),
                    spans["name"][spans["parent"][child]].tolist())
        out = defaultdict(set)
        for name_id, parent_id in set(pairs):
            out[self.names[name_id]].add(self.names[parent_id])
        return dict(out)

    def write_spans(self, path) -> None:
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 **self.spans())

"""Spans and counters recorded from outside the program.

A Tracer replaces chosen module-level functions with timing wrappers for
the length of a ``with`` block. Each call records one span (name, start,
end, parent span, operation id) in memory; an optional ``count`` hook sees
the call's bound arguments and return value and adds to named counters.
Every module attribute bound to the same function object is wrapped, so a
driver that imported the function under its own name (``from .percolation
import integrated_rc``) is traced too. On exit every name is restored.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    name is the span name (``"percolation.integrated_rc"``); label, when
    given, maps the bound arguments to a span name suffix so that one
    function can report variants apart; count(counters, args, result) adds
    work counters computed from the arguments and the return value.
    """

    module: str
    attr: str
    name: str
    label: Callable | None = None
    count: Callable | None = None


PACKAGE = "rcgibbs"


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self):
        for t in self.targets:
            try:
                mod = importlib.import_module(t.module)
                fn = getattr(mod, t.attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{t.module}.{t.attr}")
                continue
            wrapper = self._wrap(t, fn)
            for holder, attr in self._bindings(fn):
                self._patched.append((holder, attr, fn))
                setattr(holder, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patched:
            holder, attr, fn = self._patched.pop()
            setattr(holder, attr, fn)
        return False

    def _bindings(self, fn):
        """(module, attribute) pairs of the package that are bound to fn."""
        found = []
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            found.extend((mod, k) for k, v in vars(mod).items() if v is fn)
        return found

    def _wrap(self, target: Target, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        sig = inspect.signature(fn) if (target.label or target.count) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                name = target.name
                if sig is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    if target.label:
                        name = f"{name}.{target.label(bound.arguments)}"
                spans[idx] = (name, t0, t1, parent, self.op)
            if target.count:
                target.count(self.counters, bound.arguments, result)
            return result

        return wrapper

    def self_times(self) -> dict:
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (t1 - t0), own + (t1 - t0 - child[i]))
        return out

    def top_level_time(self, op: int) -> float:
        """Seconds covered by the outermost spans of one operation."""
        return sum(t1 - t0 for _, t0, t1, parent, o in self.spans if parent < 0 and o == op)


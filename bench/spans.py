"""Span tracing of sarlrs calls from outside the package.

`Tracer.patch` replaces a public function with a recording wrapper in every
sarlrs module namespace that binds it, so calls are seen whichever way the
package reaches them: `cli` through module attributes, `analysis` through
names imported from `simulate`, `decompose` through `rpca` globals.  Spans
are kept in memory; the caller turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

MODULES = ("sarlrs", "sarlrs.scenario", "sarlrs.simulate", "sarlrs.baseband",
           "sarlrs.rpca", "sarlrs.eta", "sarlrs.analysis", "sarlrs.imaging",
           "sarlrs.matrixio", "sarlrs.cli")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the block; yields the Span for info."""
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, perf_counter(), parent=parent)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, measure=None):
        """Recording wrapper; measure(args, kwargs, result) fills span.info."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if measure is not None:
                sp.info.update(measure(args, kwargs, result))
            return result
        return traced

    def patch(self, qualname: str, measure=None) -> None:
        """Wrap `module.func` (module relative to sarlrs) wherever it is bound."""
        mod_name, func_name = qualname.rsplit(".", 1)
        original = getattr(importlib.import_module(f"sarlrs.{mod_name}"), func_name)
        wrapper = self.wrap(qualname, original, measure)
        for name in MODULES:
            mod = importlib.import_module(name)
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def unpatch(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover.

        Calls are single-threaded, so children never overlap one another and
        the covered time is the sum of their durations.
        """
        out = [sp.duration for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent] -= sp.duration
        return out

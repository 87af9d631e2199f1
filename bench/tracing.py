"""In-memory span tracing by wrapping functions where they are looked up.

A span covers one call of a wrapped function.  Its self time is its
duration minus the durations of the wrapped calls made directly inside it;
the process is single-threaded, so child spans nest strictly.  Spans are
aggregated per unit of work (per name, and per parent -> child edge) and
kept in memory until the run writes them out.

The installer patches module attributes, not function bodies: a name is
wrapped at every module that looks it up at call time.  A site the code no
longer has is reported as absent instead of raising, so the benchmark keeps
working when functions move between modules.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    def add(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s


@dataclass
class UnitTrace:
    """Spans and counts recorded while one unit of work ran."""

    unit: int
    spans: dict[str, SpanStats] = field(default_factory=dict)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class SpanSpec:
    """A traced function: its span name and the attributes it is looked up at.

    `name` may be a callable taking the bound arguments, for spans that split
    one function by an argument.  `hook(tracer, arguments, result)` records
    counts computed from a call's arguments and result; its time is charged
    to no span.
    """

    name: str | Callable[[dict], str]
    sites: tuple[str, ...]
    hook: Callable | None = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.units: list[UnitTrace] = []
        self.hook_errors: dict[str, int] = {}
        self._current: UnitTrace | None = None
        self._frames: list[list] = []  # [span name, child seconds]

    def begin_unit(self, index: int) -> None:
        self._current = UnitTrace(index)

    def end_unit(self) -> UnitTrace:
        unit, self._current = self._current, None
        self._frames.clear()
        self.units.append(unit)
        return unit

    def count(self, key: str, value: float = 1) -> None:
        if self._current is not None:
            self._current.counts[key] = self._current.counts.get(key, 0) + value

    def wrap(self, spec: SpanSpec, fn: Callable) -> Callable:
        signature = None
        if callable(spec.name) or spec.hook is not None:
            signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            unit = self._current
            if unit is None:
                return fn(*args, **kwargs)
            arguments = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            name = spec.name(arguments) if callable(spec.name) else spec.name
            parent = self._frames[-1] if self._frames else None
            frame = [name, 0.0]
            self._frames.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                self._frames.pop()
                stats = unit.spans.setdefault(name, SpanStats())
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                    edge = (parent[0], name)
                    unit.edges[edge] = unit.edges.get(edge, 0) + 1
            if spec.hook is not None:
                hook_start = self.clock()
                try:
                    spec.hook(self, arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    self.hook_errors[name] = self.hook_errors.get(name, 0) + 1
                if parent is not None:
                    parent[1] += self.clock() - hook_start
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> UnitTrace:
        """All recorded units merged into one."""
        merged = UnitTrace(-1)
        for unit in self.units:
            for name, stats in unit.spans.items():
                merged.spans.setdefault(name, SpanStats()).add(stats)
            for edge, calls in unit.edges.items():
                merged.edges[edge] = merged.edges.get(edge, 0) + calls
            for key, value in unit.counts.items():
                merged.counts[key] = merged.counts.get(key, 0) + value
        return merged


def _resolve(site: str):
    """(module, attribute) for a dotted site, or None when it does not exist."""
    module_name, _, attr = site.rpartition(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    if not callable(getattr(module, attr, None)):
        return None
    return module, attr


@contextmanager
def installed(tracer: Tracer, specs):
    """Patch every site of every spec with a tracing wrapper; yield the list
    of absent sites; restore the original attributes on exit."""
    patched = []
    absent = []
    try:
        for spec in specs:
            for site in spec.sites:
                found = _resolve(site)
                if found is None:
                    absent.append(site)
                    continue
                module, attr = found
                original = getattr(module, attr)
                setattr(module, attr, tracer.wrap(spec, original))
                patched.append((module, attr, original))
        yield absent
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)

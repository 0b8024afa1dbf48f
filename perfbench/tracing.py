"""In-memory spans around the public entry points of the ``qks`` library.

The tracer wraps functions and methods from outside the library: it swaps
each target for a wrapper in every ``qks`` module namespace (or on the class)
and puts the originals back on :meth:`Tracer.uninstall`, so an untraced run
executes exactly the library's own code. A span records its name, start,
end, parent and thread, plus counts taken from the call's arguments.

Spans opened on a worker thread with no open span of their own take as
parent the innermost span open on the main thread: ``featurize`` is the only
caller in the library that starts threads, and its row blocks belong to it.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while installed; inert (and unpatched) otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._targets: list[tuple] = []  # (class or None, target, name, counts)
        self._undo: list[tuple[object, str, object]] = []

    # -- registration -------------------------------------------------------

    def wrap_function(self, fn, name: str, counts=None) -> None:
        """Trace ``fn`` wherever a ``qks`` module binds it."""
        self._targets.append((None, fn, name, counts))

    def wrap_method(self, cls, attr: str, name: str, counts=None) -> None:
        """Trace ``cls.attr``; ``counts(args, kwargs)`` adds span counts."""
        self._targets.append((cls, attr, name, counts))

    def install(self) -> None:
        if self.active:
            return
        for owner, target, name, counts in self._targets:
            if owner is None:
                wrapper = self._wrapper(target, name, counts)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "qks" and not mod_name.startswith("qks."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            self._undo.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
            else:
                original = owner.__dict__[target]
                self._undo.append((owner, target, original))
                setattr(owner, target, self._wrapper(original, name, counts))
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self.active = False

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **counts):
        """Record one span around the block; a no-op while not installed."""
        if not self.active:
            yield
            return
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, parent, name, start, end,
                     threading.get_ident(), counts)
            )

    def _wrapper(self, fn, name: str, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = counts(args, kwargs) if counts else {}
            with self.span(name, **extra):
                return fn(*args, **kwargs)

        return traced

    # -- analysis -----------------------------------------------------------

    def since(self, start: float) -> list[Span]:
        """Spans that began at or after ``start`` (a perf_counter value)."""
        return [s for s in self.spans if s.start >= start]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children on other threads can overlap one another, so the covered part
    is the length of the union of their intervals, clipped to the parent.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, total and self seconds, summed counts."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own[s.id]
        for key, value in s.counts.items():
            row[key] = row.get(key, 0) + value
    return table

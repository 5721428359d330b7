"""In-memory spans around the calls the benchmark makes into each layer.

Spans are recorded from the benchmark's side of a module boundary: a
bound method or module function is swapped for a wrapper for the
duration of the traced run and restored afterwards. Nothing inside
``repro`` is changed. Wrapping a name that the program no longer has
raises, so a renamed layer cannot silently read 0.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    """Spans ``(id, name, parent, start, end, attrs)``, counters and
    per-event samples taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.lists: dict[str, list] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def samples(self, name: str, values) -> None:
        self.lists.setdefault(name, []).extend(values)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span ``name`` around every call of ``owner.attr``.

        ``after(tracer, args, kwargs, result)`` runs once the call has
        returned, outside the span, to take counts at the boundary.
        """
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            with self.span(name):
                result = inner(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        # Instance attributes shadow the class method; module attributes
        # are looked up at call time by the module's own functions.
        self._restore.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            if old is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)

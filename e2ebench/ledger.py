"""Layer ledger: spans around the program's layers, recorded from outside.

The benchmark never edits ``src/``.  Instead, for a traced run it replaces
the attributes that name each layer's entry points (module functions and
class methods) with thin wrappers that open and close a span in a
:class:`Ledger`, and puts the originals back afterwards.  A span records
``(name, start, end, parent, request id)``; spans live in memory and are
written out once, at exit.

Serving here is single-threaded (speculative compose, compose pools and
fault injection are off), so spans nest strictly and a layer's self time
is its duration minus the durations of its direct children.

A wrapper whose layer is already the innermost open span calls straight
through: a subclass method that calls ``super()`` or a fused batch of one
that falls back to the single-request path stays one span, one call.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

#: Span fields, as stored and as written to the spans file.
NAME, START, END, PARENT, RID = range(5)

ROOT = "request"


class Ledger:
    """In-memory span store plus the counters the wrappers keep."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.rid: int | None = None
        self.counts: Counter = Counter()
        #: Value lists the wrappers collect (batch sizes, queue waits).
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._plans_seen: dict[tuple[int, int], object] = {}

    # -- spans -----------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.rid])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    @contextmanager
    def request(self, rid: int):
        """Root span of one timed request (one public call, or one burst)."""
        self.rid = rid
        index = self.open(ROOT)
        try:
            yield
        finally:
            self.close(index)
            self.rid = None

    def note_plan(self, fmt, J: int) -> None:
        """Count a distinct ``(plan, J)`` pair the first time it is planned.

        Formats are held by weak reference, so a format that dies and whose
        ``id`` is reused by a new one counts as a new pair."""
        key = (id(fmt), int(J))
        seen = self._plans_seen.get(key)
        if seen is None or seen() is not fmt:
            self.counts["kernels.plan.distinct"] += 1
            self._plans_seen[key] = weakref.ref(fmt)

    # -- derived views -----------------------------------------------------
    def self_times(self) -> list[float]:
        """Per-span duration minus the duration of its direct children."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def inside(self, ancestor: str) -> list[bool]:
        """Per span: does some enclosing span carry the name ``ancestor``?"""
        flags: list[bool] = []
        for s in self.spans:
            p = s[PARENT]
            flags.append(p >= 0 and (self.spans[p][NAME] == ancestor or flags[p]))
        return flags

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart_s\tend_s\tparent\trequest\n")
            for name, start, end, parent, rid in self.spans:
                f.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{rid}\n")


def _span_wrapper(fn, layer: str, ledger: Ledger, after=None):
    def wrapper(*args, **kwargs):
        if ledger.innermost() == layer:
            return fn(*args, **kwargs)
        index = ledger.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            ledger.close(index)
        if after is not None:
            after(args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", layer)
    return wrapper


class Instrumentation:
    """Install span wrappers on a ledger's layers; undo on exit."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls, attr: str, layer: str, after=None) -> None:
        """Wrap ``cls.attr`` (plain, static or class method) defined on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(_span_wrapper(raw.__func__, layer, self.ledger, after))
        elif isinstance(raw, classmethod):
            new = classmethod(_span_wrapper(raw.__func__, layer, self.ledger, after))
        else:
            new = _span_wrapper(raw, layer, self.ledger, after)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, new)

    def function(self, module, attr: str, layer: str) -> None:
        """Wrap a module function everywhere it was imported by name."""
        original = getattr(module, attr)
        new = _span_wrapper(original, layer, self.ledger)
        for name, mod in list(sys.modules.items()):
            if name.startswith("repro") and getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, new)

    def overrides(self, base, attr: str, layer: str, after=None) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass that defines it."""
        todo, seen = [base], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if attr in cls.__dict__ and not getattr(
                cls.__dict__[attr], "__isabstractmethod__", False
            ):
                self.method(cls, attr, layer, after)

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

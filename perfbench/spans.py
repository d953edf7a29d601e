"""In-memory spans recorded around the program's public functions.

A Tracer swaps a wrapper in where callers look a function up (a module
global such as ``moekgc.trainer.corrupt`` or a class attribute such as
``FusionModel.fuse``).  Each call records one span: name, start, end and
the index of the enclosing span.  Counting hooks add tallies without a
span.  Everything stays in memory until the benchmark writes it out, and
``restore`` (or leaving the ``with`` block) puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter


class Span:
    """One finished span, built for analysis after recording."""

    __slots__ = ("name", "start", "end", "parent", "n")

    def __init__(self, name, start, end, parent, n=None):
        self.name, self.start, self.end, self.parent, self.n = name, start, end, parent, n

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        out = {"name": self.name, "start": self.start, "end": self.end, "parent": self.parent}
        if self.n is not None:
            out["n"] = self.n
        return out


class Tracer:
    """Nested spans on one thread, timed with ``perf_counter_ns``.

    Spans are stored column-wise in lists of strings and ints, which the
    garbage collector does not traverse, so a long traced run does not
    slow collections down as it records.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.sizes: dict = {}  # span index -> the count a hook attached
        self.counts: Counter = Counter()
        self.missing: list = []  # wrap points the program no longer has
        self._stack: list = []
        self._patches: list = []

    # -- recording

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else None)
        self.ends.append(None)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int):
        end = self.clock()
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")
        self._stack.pop()
        self.ends[index] = end

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    @property
    def spans(self) -> list:
        return [Span(*row, self.sizes.get(i)) for i, row in
                enumerate(zip(self.names, self.starts, self.ends, self.parents))]

    # -- patching

    def wrap(self, owner, attr: str, name: str, enter=None, note=None):
        """Record a span named name around every call of owner.attr.

        enter(args, kwargs) runs as the span opens and
        note(args, kwargs, result) once the call has returned; the int
        either returns is kept as the span's count n (an input size).
        """
        original = self._original(owner, attr)
        if original is None:
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            if enter is not None:
                self.sizes[index] = enter(args, kwargs)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if note is not None:
                self.sizes[index] = note(args, kwargs, result)
            return result

        self._patch(owner, attr, original, wrapper)

    def tally(self, owner, attr: str, counter: str):
        """Count calls of owner.attr under counter, without a span."""
        original = self._original(owner, attr)
        if original is None:
            return
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, wrapper)

    def _original(self, owner, attr):
        # a refactored program may drop a wrap point: its layer then reads 0
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return None
        return getattr(owner, attr)

    def _patch(self, owner, attr, original, wrapper):
        # keep the owner's own entry (or its absence) so restore is exact
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr) if had_own else None, had_own))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- output

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_dict(), sort_keys=True) + "\n")


def children(spans) -> list:
    """Child span indices per span index."""
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def self_times(spans) -> list:
    """Per span: its duration minus the part of it its children cover.

    Children may in principle overlap or spill past their parent, so the
    covered part is the union of the child intervals clipped to the
    parent's interval.
    """
    kids = children(spans)
    out = []
    for s, ks in zip(spans, kids):
        covered, reach = 0, s.start
        for k in sorted(ks, key=lambda i: spans[i].start):
            lo = max(spans[k].start, reach)
            hi = min(spans[k].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def ancestor(spans, index: int, name: str):
    """Index of the nearest enclosing span called name, or None."""
    p = spans[index].parent
    while p is not None:
        if spans[p].name == name:
            return p
        p = spans[p].parent
    return None


def descendants(spans, root: int) -> list:
    """Indices of every span below root (recorded after it, so a scan of
    the later spans suffices)."""
    out, inside = [], {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
            out.append(i)
    return out

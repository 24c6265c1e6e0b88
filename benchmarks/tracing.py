"""In-memory span recording around calls into the vbi package.

A span is one call of a wrapped function: ``[name, start, end, parent,
op_id, elems]`` with ``parent`` the index of the enclosing span (-1 at top
level), ``op_id`` the benchmark operation it belongs to (0 = set-up) and
``elems`` the element count the call processed (0 when not defined).  Spans
stay in a list until the run ends; nothing is written while timing.

Wrapping replaces an attribute where the caller looks it up: a module global
such as ``trainer.estimate_elbo`` or a class attribute such as
``DDModel.batch_loglik``.  ``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OP, ELEMS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = 0
        self.active = True
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def begin(self, name: str, elems: int = 0) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id, elems])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][NAME]} closed out of order")

    @contextmanager
    def span(self, name: str, elems: int = 0):
        index = self.begin(name, elems)
        try:
            yield index
        finally:
            self.end(index)

    def wrap(self, owner, attr: str, name, elems=None, after=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is the span name or a function of the call's arguments that
        returns it; ``elems(*args, **kw)`` gives the element count and
        ``after(result, *args, **kw)`` may record counts from the result.
        Absent attributes are skipped, so a later refactor that removes a
        function leaves its metrics at zero instead of breaking the run.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            index = tracer.begin(label, elems(*args, **kwargs) if elems else 0)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    @contextmanager
    def paused(self):
        """Calls made inside run unrecorded (the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every span and count as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "elems"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append(span)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        kids = [(max(c[START], start), min(c[END], end)) for c in children.get(index, ())]
        out.append((end - start) - _covered([k for k in kids if k[1] > k[0]]))
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]

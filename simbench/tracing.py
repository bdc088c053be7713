"""In-memory spans around public calls, installed from outside the program.

A :class:`SpanRecorder` keeps one :class:`Span` per wrapped call (name,
start, end, parent, run id).  The wrappers are swapped in for a public
method or module function and the original is put back afterwards, so
the program under test runs its own, unmodified code: the wrappers only
read the clock and the call's arguments and return value.

Self time is a span's duration minus the durations of its direct
children.  Calls on one thread nest strictly, so the children never
overlap and their sum is exactly the part of the parent they cover.
"""

import functools
import time


class Span:
    """One wrapped call.  ``parent`` is the index of the enclosing span."""

    __slots__ = ("name", "start", "end", "parent", "run_id")

    def __init__(self, name, start, parent, run_id):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run_id = run_id

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run_id": self.run_id}


class SpanRecorder:
    """Collects spans in memory; nothing is written until :meth:`dump`."""

    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent, self.run_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index):
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("span %d closed out of order" % index)
        self._stack.pop()
        self.spans[index].end = self.clock()

    def dump(self):
        """Every span as a plain dict, in opening order."""
        return [span.as_dict() for span in self.spans]


def self_times(spans):
    """``[self seconds]`` per span: its duration minus its children's."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, child_time)]


def self_time_by_name(spans):
    """``{span name: summed self seconds}``."""
    totals = {}
    for span, seconds in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + seconds
    return totals


def has_ancestor(spans, index, name):
    """True if some enclosing span of ``spans[index]`` is called ``name``."""
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def spanned(recorder, name, func, on_return=None):
    """``func`` wrapped in a span; ``on_return(args, kwargs, result)``
    runs after the span closes, so its cost stays out of every span."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.close(index)
        if on_return is not None:
            on_return(args, kwargs, result)
        return result

    return wrapper


def observed(func, on_return):
    """``func`` with ``on_return(args, kwargs, result)`` and no span."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        result = func(*args, **kwargs)
        on_return(args, kwargs, result)
        return result

    return wrapper


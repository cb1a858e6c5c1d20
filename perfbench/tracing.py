"""In-memory spans around the benchmark's calls into the engine's layers.

A span is (id, name, start, end, parent id).  Spans stay in a list while the
workload runs and are written out once, at the end.  ``NULL`` has the same
interface and records nothing; the untraced run uses it, so the end-to-end
numbers carry no tracing cost beyond one method call per boundary.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []          # [id, name, start, end, parent]
        self.notes = {}          # name -> counts recorded at a span boundary
        self._open = []          # ids of the spans that enclose the current call

    def span(self, name):
        return _Span(self, name)

    def note(self, name, count):
        self.notes.setdefault(name, []).append(count)

    def durations(self, name, duration):
        return [duration(s) for s in self.spans if s[1] == name]

    def self_times(self, root_names, duration):
        """Self time per span name below the spans named ``root_names``: each
        span's ``duration(span)`` minus the durations of its children."""
        by_id = {s[0]: s for s in self.spans}
        children = {}
        for s in self.spans:
            if s[4] is not None:
                children[s[4]] = children.get(s[4], 0.0) + duration(s)
        out = {}
        for s in self.spans:
            top = s
            while top[4] is not None:
                top = by_id[top[4]]
            if top[1] in root_names:
                out[s[1]] = out.get(s[1], 0.0) + duration(s) - children.get(s[0], 0.0)
        return out


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.record = [0, name, 0.0, 0.0, None]

    def __enter__(self):
        tr, rec = self.tracer, self.record
        rec[0] = len(tr.spans)
        rec[4] = tr._open[-1] if tr._open else None
        tr.spans.append(rec)
        tr._open.append(rec[0])
        rec[2] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[3] = perf_counter()
        self.tracer._open.pop()
        return False


class _NullTracer:
    spans = ()
    _context = nullcontext()

    def span(self, name):
        return self._context

    def note(self, name, count):
        pass


NULL = _NullTracer()

"""In-memory span recorder for the traced benchmark runs.

A span is one timed call at a layer boundary: its name, start and end on
the monotonic clock (``time.perf_counter``, which is system-wide on Linux,
so spans from the client and from a worker process share one timeline),
the id of the span that was open when it started, and the id of the
request it belongs to.  Each span also notes the process's peak resident
memory when it ended.  Spans are only appended to a list; the client
writes them all out when the run ends.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self._open = []
        self._started = 0

    @contextmanager
    def span(self, name):
        sid = self._started
        self._started += 1
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self.spans.append({
                "id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "request": self.request, "maxrss_kb": rss,
            })

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def take(self):
        """Hand over the finished spans and start a new list."""
        done, self.spans = self.spans, []
        return done


def self_times(spans):
    """Total self time per span name: each span's duration minus the time
    its direct children cover.  Children of one span run one after another
    on one thread, so their durations add up without overlap."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
    return dict(out)

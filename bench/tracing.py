"""In-memory spans recorded by the benchmark around calls into each layer.

A span has a name ``<layer>.<call>``, start and end times in seconds since
the tracer was created, the index of its parent span and a trace id that
groups the spans of one refinement level.  Spans stay in memory and are
written out with the run's results.
"""

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self._t0 = time.perf_counter()
        self._open = []
        self.spans = []

    @contextmanager
    def span(self, name, trace_id):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"id": index, "name": name, "trace": trace_id,
                  "parent": parent, "start": self._now(), "end": None}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = self._now()

    def _now(self):
        return time.perf_counter() - self._t0

    def of_trace(self, trace_id):
        return [s for s in self.spans if s["trace"] == trace_id]


def duration(span):
    return span["end"] - span["start"]


def layer_of(span):
    return span["name"].split(".", 1)[0]


def self_times(spans):
    """Per-layer self time: span durations minus what their children cover.

    Children of one span run one after another, so the covered part of the
    parent's interval is the sum of their durations.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration(s)
    totals = {}
    for s in spans:
        own = duration(s) - child_time.get(s["id"], 0.0)
        totals[layer_of(s)] = totals.get(layer_of(s), 0.0) + own
    return totals

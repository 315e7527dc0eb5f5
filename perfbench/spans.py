"""In-memory spans for the traced benchmark run.

A span records (name, start_ns, end_ns, parent, query) around one call
into a layer of qgramsearch.  The layer is the part of the name before
the first dot.  Nothing is written until the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns


class Spans:
    def __init__(self) -> None:
        self.records: list[list] = []  # [name, start_ns, end_ns, parent, query]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, query: int | None = None):
        parent = self._open[-1] if self._open else None
        if query is None and parent is not None:
            query = self.records[parent][4]
        record = [name, 0, 0, parent, query]
        self._open.append(len(self.records))
        self.records.append(record)
        record[1] = perf_counter_ns()
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._open.pop()

    def durations(self, name: str, parent: str | None = None) -> list[int]:
        """Durations in ns of the spans called ``name`` (under ``parent``)."""
        return [end - start for n, start, end, p, _ in self.records
                if n == name and (parent is None
                                  or (p is not None
                                      and self.records[p][0] == parent))]

    def self_times(self) -> dict[str, list[int]]:
        """Self time in ns of every span, grouped by layer.

        A span's self time is its duration minus that of its children;
        children never overlap, since one thread records them in order.
        """
        child = [0] * len(self.records)
        for name, start, end, parent, _ in self.records:
            if parent is not None:
                child[parent] += end - start
        layers: dict[str, list[int]] = defaultdict(list)
        for (name, start, end, _, _), covered in zip(self.records, child):
            layers[name.split(".", 1)[0]].append(end - start - covered)
        return dict(layers)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, query) in enumerate(self.records):
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "query": query}) + "\n")


class NoSpans:
    """Stand-in used with tracing off: records nothing."""

    _null = nullcontext()

    def span(self, name: str, query: int | None = None):
        return self._null

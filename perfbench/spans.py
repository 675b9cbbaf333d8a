"""In-memory spans around calls into the program, reported per layer.

A span holds its name, start, end, parent span and run id. Spans stay in
memory while the traced run works and are written out as JSON lines when
it ends. A layer's self time is its span durations minus the part covered
by child spans.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans; nesting follows the order in which spans open."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, run: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "run": run,
            "parent": self._open[-1]["id"] if self._open else None,
        }
        self.spans.append(record)
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(spans, keep=lambda span: True) -> dict[str, float]:
    """Self time in seconds per span name, over the spans ``keep`` accepts."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (child_time.get(span["parent"], 0.0)
                                          + span["end"] - span["start"])
    out: dict[str, float] = {}
    for span in spans:
        if keep(span):
            own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            out[span["name"]] = out.get(span["name"], 0.0) + own
    return out

"""In-memory spans around the calls the benchmark makes into bpre.

A span records its name, start, end, parent span and a dict of counts (trials,
sequences, bytes, ...). Spans stay in memory and are written out once, when
the run ends. Self time is a span's duration minus the time its direct
children cover; children never overlap because every call is made from the
benchmark's main thread.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "counts": counts}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Self time of each span, by span id."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in self.spans}

    def write(self, path: Path, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"summary": summary, "spans": self.spans},
                                   indent=1) + "\n", encoding="utf-8")


class NullTracer:
    """Tracing off: spans cost one generator frame and record nothing."""

    @contextmanager
    def span(self, name: str, **counts):
        yield {"counts": counts}

"""Spans recorded by the benchmark around its calls into the library.

A span has a name, start and end (seconds on the `perf_counter` clock), the
id of the span open around it, the id of the op it belongs to, whether it
belongs to a probe, and the exact counts recorded at that boundary.  Spans
stay in memory until the pass ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records spans when enabled; otherwise each span is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op: int | None = None
        self.probe = False
        self._open: list[int] = []

    def span(self, name: str):
        """Context manager yielding a dict for the counts of this span."""
        if not self.enabled:
            return nullcontext({})
        return self._record(name)

    @contextmanager
    def _record(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
            "probe": self.probe,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

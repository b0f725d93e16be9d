"""In-memory span recorder used by the traced benchmark run.

A span is (id, name, start, end, parent id, op id).  Spans are opened by
the benchmark around calls into the package's public functions, kept in a
list and written out once when the run ends.  A span's self time is its
duration minus the durations of its direct children; the benchmark is
single-threaded while tracing, so children never overlap.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn):
        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapped

    def self_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Per-name self seconds and call counts, plus the summed root time."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        calls: dict[str, int] = {}
        root_total = 0.0
        for sid, name, start, end, parent, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[sid]
            calls[name] = calls.get(name, 0) + 1
            if parent is None:
                root_total += end - start
        return totals, calls, root_total

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )

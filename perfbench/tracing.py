"""In-memory span recorder for the traced benchmark run.

Spans are opened by the benchmark around its own calls into the library,
never inside the library.  Each span keeps its name, start and end
(``time.perf_counter`` seconds), the index of the span that was open when it
started, the instance it belongs to, and optional attributes.  Nothing is
written until the run ends.
"""
from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    """Records nested spans; ``instance`` tags every span opened while set."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.instance = None

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, 0.0, 0.0, parent, self.instance, attrs]
        self.spans.append(record)
        self._open.append(sid)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for sid, (name, start, end, _, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[sid]
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "instance", "attrs"],
                    "spans": self.spans,
                },
                fh,
                default=str,
            )


class NullTracer:
    """Same interface as ``Tracer``; records nothing."""

    enabled = False
    instance = None

    def span(self, name: str, **attrs):
        return nullcontext()

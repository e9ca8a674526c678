"""Spans recorded around the benchmark's calls into the library.

Each span holds its name, start, end, parent span and item id; spans stay in
memory and are written out when the run ends.  Calls made once per coalition
(up to 3 x 65535 per item) are folded: one span per (name, parent) carries
the call count and the summed duration, so a traced 16-edge item stores a
handful of spans instead of hundreds of thousands.  A span's self time is its
duration minus the time its child spans cover.

The untraced runs use ``NullTracer``, whose methods only forward the call.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

# span record fields
ID, NAME, START, END, PARENT, ITEM, CALLS, BUSY, CHILD = range(9)


class NullTracer:
    enabled = False

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def fold(name, fn, *args):
        return fn(*args)

    def count(self, name, amount=1) -> None:
        pass

    def next_item(self) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._folded: dict[tuple[str, int | None], int] = {}
        self._item = 0

    def next_item(self) -> None:
        self._item += 1

    def count(self, name, amount=1) -> None:
        self.counts[name] += amount

    def _open(self, name: str, start: float) -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([idx, name, start, start, parent, self._item, 0, 0.0, 0.0])
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        rec = self.spans[idx]
        rec[END] = end
        rec[CALLS] += 1
        rec[BUSY] += end - start
        if rec[PARENT] is not None:
            self.spans[rec[PARENT]][CHILD] += end - start

    def call(self, name, fn, *args, **kwargs):
        """Run fn as one span, nested under the innermost open span."""
        start = perf_counter()
        idx = self._open(name, start)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self._close(idx, start, perf_counter())

    def fold(self, name, fn, *args):
        """Run fn and add it to the folded span for (name, open parent)."""
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            key = (name, self._stack[-1] if self._stack else None)
            idx = self._folded.get(key)
            if idx is None:
                idx = self._folded[key] = self._open(name, start)
            self._close(idx, start, end)

    def totals(self) -> dict[str, dict[str, float]]:
        """calls, busy seconds and self seconds summed per span name."""
        out: dict[str, dict[str, float]] = {}
        for rec in self.spans:
            agg = out.setdefault(rec[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += rec[CALLS]
            agg["busy_s"] += rec[BUSY]
            agg["self_s"] += rec[BUSY] - rec[CHILD]
        return out

    def write(self, path) -> None:
        """One JSON object per span: name, start, end, parent, item, calls,
        busy and self seconds (start/end are perf_counter readings)."""
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps({
                    "id": rec[ID], "name": rec[NAME], "start": rec[START],
                    "end": rec[END], "parent": rec[PARENT], "item": rec[ITEM],
                    "calls": rec[CALLS], "busy_s": rec[BUSY],
                    "self_s": rec[BUSY] - rec[CHILD]}) + "\n")

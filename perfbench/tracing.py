"""Ops, output checks, spans and counts for one benchmark pass.

An op is one public quivergauge call (or a short fixed sequence of them)
followed by a check against an independent oracle.  An exception or a
failed check marks the op failed; the pass carries on with the next op.

With tracing on, spans (name, start, end, parent) are kept in memory
around every call into a layer, and the pass reports the summed duration
per span name.  With tracing off, ``span`` is a shared no-op context.
"""

from __future__ import annotations

import contextlib
import sys
import time
import traceback
from collections import defaultdict

_NO_SPAN = contextlib.nullcontext()


class PassContext:
    def __init__(self, traced: bool):
        self.traced = traced
        self.ops = 0
        self.failed = 0
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._op_name = ""
        self._op_ok = True

    @contextlib.contextmanager
    def op(self, name: str):
        self.ops += 1
        self._op_name, self._op_ok = name, True
        try:
            with self.span("op." + name):
                yield
        except Exception:
            self._op_ok = False
            print(f"op {name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        if not self._op_ok:
            self.failed += 1

    def check(self, ok: bool, detail: str) -> None:
        """Fail the current op unless ``ok``; ``detail`` says what was compared."""
        if not ok:
            self._op_ok = False
            print(f"op {self._op_name} failed its check: {detail}", file=sys.stderr)

    def span(self, name: str):
        return self._span(name) if self.traced else _NO_SPAN

    @contextlib.contextmanager
    def _span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent)
            self._open.pop()

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span timed inline, for calls made per sample."""
        self.spans.append((name, start, end, self._open[-1] if self._open else None))

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def span_totals(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            totals[name] += end - start
        return totals

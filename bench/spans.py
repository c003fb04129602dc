"""In-memory span recorder for the benchmark's traced runs.

The recorder replaces a public function with a wrapper in the namespace where
callers look it up: ``harness`` binds most library functions at import, while
``sync`` looks up the pilot budget and the key codec in its own globals.
Every call through a wrapper becomes one span (name, start, end, parent span,
operation id). An optional hook sees the call's arguments, result or error,
so counts are taken at the same boundary as the times.

Spans stay in memory; ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
import types
from dataclasses import asdict, dataclass
from typing import Callable

# Operation id stamped on spans opened outside any timed operation.
SETUP_OP = -1


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Recorder.spans, -1 at top level
    op: int


# hook(args, kwargs, result, error, span, span_index, parent_name)
Hook = Callable[[tuple, dict, object, BaseException | None, Span, int, str | None], None]


class Recorder:
    """Collects one span per call of a wrapped function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, namespace: object, attr: str, name: str, hook: Hook | None = None) -> None:
        """Replace ``namespace.attr`` by a wrapper that records a span per call."""
        original = getattr(namespace, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = recorder._stack
            parent = recorder.spans[stack[-1]].name if stack else None
            index = recorder._open(name)
            result = error = None
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                recorder._close(index)
                if hook is not None:
                    hook(args, kwargs, result, error, recorder.spans[index], index, parent)

        setattr(namespace, attr, traced)
        self._patched.append((namespace, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back."""
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def has_children(self, index: int) -> bool:
        """True when a span was opened inside span ``index`` (valid once it closed)."""
        return index + 1 < len(self.spans) and self.spans[index + 1].parent == index

    def self_times(self) -> dict[str, float]:
        """Seconds per span name inside timed operations, minus the time
        covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span.op == SETUP_OP:
                continue
            own = span.end - span.start - child_time[index]
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def op_span_count(self) -> int:
        return sum(1 for span in self.spans if span.op != SETUP_OP)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), separators=(",", ":")) + "\n")


def span_cost(calls: int = 20_000) -> float:
    """Seconds one wrapped call adds over a plain call, measured here."""
    namespace = types.SimpleNamespace(noop=lambda: None)
    plain = namespace.noop
    started = time.perf_counter()
    for _ in range(calls):
        plain()
    bare = time.perf_counter() - started
    recorder = Recorder()
    recorder.wrap(namespace, "noop", "calibration")
    traced = namespace.noop
    started = time.perf_counter()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter() - started
    return max(0.0, (wrapped - bare) / calls)

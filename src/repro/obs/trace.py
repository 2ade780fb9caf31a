"""Structured round tracing: spans, traces, and the process tracer.

A :class:`RoundTrace` records one aggregation round as a tree of
timestamped :class:`Span`\\ s — the phase vocabulary from the paper's
timing-diagram breakdown (``offline_refill``, ``collect``,
``mask_encode``, ``shard_scatter``, ``shard_compute[i]``,
``shard_gather``, ``reconstruct``) plus whatever a transport adds.
Traces are stitched *across processes*: the coordinator opens the trace
and propagates its ``trace_id`` over the wire (a trailing-optional
field on ``ShardRoundRequest``, which carries rounds and drains
alike), and remote shard workers report their
compute and queue-wait timings back inside ``ShardRoundResult``, which
the transports absorb as spans tagged with the worker's pid/host.

Instrumentation points use the module-level :func:`span` context
manager, which resolves the current trace through a thread-local.  When
no trace is active — tracing disabled, or code running on a worker or
refiller thread — :func:`span` returns a shared no-op context, so the
cost of an instrumented phase is one thread-local read.  Nothing here
does per-element work; spans are strictly per-phase.

The :class:`Tracer` owns a bounded ring of recent traces (served by the
control plane's ``GET /cohorts/{id}/traces`` and ``GET /traces/{id}``),
feeds per-phase latency histograms into ``ServiceMetrics``, optionally
appends one JSON line per span close to an event log, and flags slow
rounds whose critical-path phase exceeds a configurable multiple of
its trailing median.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import statistics
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

__all__ = [
    "PHASES",
    "RoundTrace",
    "Span",
    "Tracer",
    "current_trace",
    "phase_name",
    "span",
]

logger = logging.getLogger("repro.obs")

#: Canonical phase vocabulary, in critical-path order.  Indexed spans
#: (``shard_compute[3]``) normalize to their base name for histograms.
PHASES = (
    "offline_refill",
    "collect",
    "mask_encode",
    "shard_scatter",
    "shard_compute",
    "shard_gather",
    "reconstruct",
)

def phase_name(name: str) -> str:
    """Histogram label for a span name: ``shard_compute[3]`` -> ``shard_compute``."""
    return name.split("[", 1)[0]


class Span:
    """One timestamped phase: a name, a wall-clock window, tags, children."""

    __slots__ = ("name", "start", "end", "tags", "children")

    def __init__(
        self,
        name: str,
        start: float,
        end: Optional[float] = None,
        tags: Optional[Dict[str, str]] = None,
        children: Optional[List["Span"]] = None,
    ):
        self.name = name
        self.start = start
        self.end = end
        self.tags = tags if tags is not None else {}
        self.children = children if children is not None else []

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else max(0.0, self.end - self.start)

    def close(self, end: Optional[float] = None) -> None:
        if self.end is None:
            self.end = time.time() if end is None else end

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start_unix": self.start,
            "duration_seconds": self.duration,
            "tags": dict(self.tags),
            "children": [c.to_json() for c in self.children],
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "Span":
        start = float(data["start_unix"])
        return cls(
            name=str(data["name"]),
            start=start,
            end=start + float(data.get("duration_seconds", 0.0)),
            tags={str(k): str(v) for k, v in dict(data.get("tags") or {}).items()},
            children=[cls.from_json(c) for c in data.get("children") or []],
        )

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration * 1e3:.2f}ms, tags={self.tags})"


class RoundTrace:
    """One round's stitched cross-process timeline.

    The root span covers the whole round; phase spans hang off it.  The
    ``_stack`` tracks nesting for :func:`span` so an ``offline_refill``
    opened inside a round parents the ``mask_encode`` it triggers.
    """

    __slots__ = (
        "trace_id",
        "cohort_id",
        "round_index",
        "root",
        "slow",
        "slow_phase",
        "_stack",
    )

    def __init__(self, trace_id: int, cohort_id: int, round_index: int):
        self.trace_id = trace_id
        self.cohort_id = cohort_id
        self.round_index = round_index
        self.root = Span("round", start=time.time())
        self.slow = False
        self.slow_phase: Optional[str] = None
        self._stack: List[Span] = []

    @property
    def duration(self) -> float:
        return self.root.duration

    def add_span(self, span_: Span) -> None:
        """Attach an externally built span (e.g. a worker-reported one)."""
        self.root.children.append(span_)

    def phase_durations(self) -> Dict[str, float]:
        """Total seconds per base phase name, over top-level spans."""
        totals: Dict[str, float] = {}
        for s in self.root.children:
            base = phase_name(s.name)
            totals[base] = totals.get(base, 0.0) + s.duration
        return totals

    def to_json(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "cohort_id": self.cohort_id,
            "round_index": self.round_index,
            "slow": self.slow,
            "slow_phase": self.slow_phase,
            "root": self.root.to_json(),
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "RoundTrace":
        trace = cls(
            int(data["trace_id"]),
            int(data["cohort_id"]),
            int(data["round_index"]),
        )
        trace.root = Span.from_json(data["root"])
        trace.slow = bool(data.get("slow", False))
        raw_phase = data.get("slow_phase")
        trace.slow_phase = None if raw_phase is None else str(raw_phase)
        return trace

    def summary(self) -> Dict[str, object]:
        """Compact listing row for ``GET /cohorts/{id}/traces``."""
        return {
            "trace_id": self.trace_id,
            "cohort_id": self.cohort_id,
            "round_index": self.round_index,
            "start_unix": self.root.start,
            "duration_seconds": self.duration,
            "spans": sum(1 for _ in self.root.walk()) - 1,
            "slow": self.slow,
            "slow_phase": self.slow_phase,
        }

    def __repr__(self) -> str:
        return (
            f"RoundTrace(id={self.trace_id}, cohort={self.cohort_id}, "
            f"round={self.round_index}, spans={len(self.root.children)})"
        )


# ----------------------------------------------------------------------
# Thread-local trace context + the span() instrumentation primitive.

_active = threading.local()


def current_trace() -> Optional[RoundTrace]:
    """The trace active on this thread, or None."""
    return getattr(_active, "trace", None)


def _activate(trace: Optional[RoundTrace]) -> None:
    _active.trace = trace


class _NullSpanContext:
    """Shared no-op context: the entire cost of tracing-when-disabled."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpanContext()


class _SpanContext:
    __slots__ = ("_trace", "_span")

    def __init__(self, trace: RoundTrace, name: str, tags: Dict[str, str]):
        self._trace = trace
        self._span = Span(name, start=time.time(), tags=tags)

    def __enter__(self) -> Span:
        trace = self._trace
        parent = trace._stack[-1] if trace._stack else trace.root
        parent.children.append(self._span)
        trace._stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb):
        self._span.close()
        if exc_type is not None:
            self._span.tags.setdefault("error", exc_type.__name__)
        stack = self._trace._stack
        if stack and stack[-1] is self._span:
            stack.pop()
        return False


def span(name: str, **tags: str):
    """Open a phase span on the current thread's trace.

    No-op (returns a shared null context yielding ``None``) when no
    trace is active, so instrumented code paths stay allocation-free
    with tracing disabled.
    """
    trace = current_trace()
    if trace is None:
        return _NULL_SPAN
    return _SpanContext(trace, name, tags)


# ----------------------------------------------------------------------


class Tracer:
    """Owns trace lifecycle, retention, metrics export, and slow detection.

    Thread-safe: rounds may finish on several cohort threads while the
    control plane reads ``recent``/``get`` from scrape threads.
    """

    #: Completed traces retained for ``recent``/``get``.
    CAPACITY = 256
    #: A round is slow when its critical-path phase exceeds SLOW_FACTOR x
    #: the trailing median of that phase over the cohort's last
    #: SLOW_WINDOW rounds, once SLOW_MIN_SAMPLES of them exist.
    SLOW_FACTOR = 5.0
    SLOW_WINDOW = 64
    SLOW_MIN_SAMPLES = 5

    def __init__(self, enabled: bool = True, metrics=None):
        self.enabled = enabled
        self.metrics = metrics
        self.slow_rounds = 0
        self._lock = threading.Lock()
        self._ring: Deque[RoundTrace] = deque()
        self._by_id: Dict[int, RoundTrace] = {}
        # pid-salted so ids from coordinator restarts don't collide in logs
        self._ids = itertools.count(1)
        self._id_base = (os.getpid() & 0x3FFFFF) << 32
        self._phase_windows: Dict[Tuple[int, str], Deque[float]] = {}
        self._event_lock = threading.Lock()
        self._event_file = None

    # -- lifecycle -----------------------------------------------------
    def start_round(
        self, cohort_id: int, round_index: int
    ) -> Optional[RoundTrace]:
        """Open a trace and make it this thread's active trace.

        Returns None (and activates nothing) when tracing is disabled —
        callers hold the result and pass it back to :meth:`finish`.
        """
        if not self.enabled:
            return None
        trace = RoundTrace(
            self._id_base | next(self._ids), cohort_id, round_index
        )
        _activate(trace)
        return trace

    def finish(self, trace: Optional[RoundTrace], error: Optional[BaseException] = None) -> None:
        """Close, retain, export, and deactivate a trace from start_round."""
        if trace is None:
            return
        now = time.time()
        for open_span in reversed(trace._stack):
            open_span.close(now)
        trace._stack.clear()
        trace.root.close(now)
        if error is not None:
            trace.root.tags.setdefault("error", type(error).__name__)
        if current_trace() is trace:
            _activate(None)
        self._detect_slow(trace)
        with self._lock:
            while len(self._ring) >= self.CAPACITY:
                evicted = self._ring.popleft()
                self._by_id.pop(evicted.trace_id, None)
            self._ring.append(trace)
            self._by_id[trace.trace_id] = trace
        if self.metrics is not None:
            for top in trace.root.children:
                self.metrics.record_phase(phase_name(top.name), top.duration)
        self._log_events(trace)

    # -- retrieval -----------------------------------------------------
    @property
    def retained(self) -> int:
        """Completed traces currently held in the ring."""
        with self._lock:
            return len(self._ring)

    def get(self, trace_id: int) -> Optional[RoundTrace]:
        with self._lock:
            return self._by_id.get(trace_id)

    def recent(
        self, cohort_id: Optional[int] = None, limit: int = 20
    ) -> List[RoundTrace]:
        """Most-recent-first finished traces, optionally for one cohort."""
        out: List[RoundTrace] = []
        with self._lock:
            for trace in reversed(self._ring):
                if cohort_id is not None and trace.cohort_id != cohort_id:
                    continue
                out.append(trace)
                if len(out) >= limit:
                    break
        return out

    # -- slow-round detection ------------------------------------------
    def _detect_slow(self, trace: RoundTrace) -> None:
        """Flag the round if its critical-path phase blows past its
        trailing median; then fold this round into the windows."""
        tops = trace.root.children
        if not tops:
            return
        critical = max(tops, key=lambda s: s.duration)
        base = phase_name(critical.name)
        with self._lock:
            window = self._phase_windows.get((trace.cohort_id, base))
            if window is not None and len(window) >= self.SLOW_MIN_SAMPLES:
                median = statistics.median(window)
                if median > 0 and critical.duration > self.SLOW_FACTOR * median:
                    trace.slow = True
                    trace.slow_phase = base
                    self.slow_rounds += 1
            for top in tops:
                key = (trace.cohort_id, phase_name(top.name))
                window = self._phase_windows.get(key)
                if window is None:
                    window = deque(maxlen=self.SLOW_WINDOW)
                    self._phase_windows[key] = window
                window.append(top.duration)
        if trace.slow:
            logger.warning(
                "slow round: cohort %d round %d trace %d — %s took %.4fs "
                "(> %.1fx trailing median)",
                trace.cohort_id,
                trace.round_index,
                trace.trace_id,
                base,
                critical.duration,
                self.SLOW_FACTOR,
            )

    # -- structured event log ------------------------------------------
    def set_event_log(self, path: Optional[str]) -> None:
        """Route one JSON line per span close to ``path`` (append mode);
        None closes the log."""
        with self._event_lock:
            if self._event_file is not None:
                self._event_file.close()
                self._event_file = None
            if path:
                self._event_file = open(path, "a", encoding="utf-8")

    def close(self) -> None:
        self.set_event_log(None)

    def _log_events(self, trace: RoundTrace) -> None:
        if self._event_file is None:
            return
        spans = sorted(
            trace.root.walk(), key=lambda s: (s.end or 0.0, s.start)
        )
        lines = []
        for s in spans:
            event = {
                "event": "span",
                "trace_id": trace.trace_id,
                "cohort_id": trace.cohort_id,
                "round_index": trace.round_index,
                "span": s.name,
                "phase": phase_name(s.name),
                "start_unix": s.start,
                "duration_seconds": s.duration,
                "tags": dict(s.tags),
            }
            if s is trace.root:
                event["slow"] = trace.slow
                event["slow_phase"] = trace.slow_phase
            lines.append(json.dumps(event, sort_keys=True))
        with self._event_lock:
            if self._event_file is None:
                return
            self._event_file.write("\n".join(lines) + "\n")
            self._event_file.flush()

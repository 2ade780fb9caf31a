"""Unit tests for the tracing core: spans, traces, the Tracer, rendering.

Pins the observability layer's contracts:

* nesting — :func:`repro.obs.span` parents under the innermost open
  span of the thread's active trace, and closes/pops on exit even when
  the body raises (tagging the error);
* zero cost when disabled — with no active trace, :func:`span` returns
  one shared no-op context (no allocation per instrumented phase);
* the Tracer's bounded ring (eviction drops both the ring entry and the
  by-id index), slow-round detection against the trailing per-phase
  median, per-phase histogram export into :class:`ServiceMetrics`, and
  the structured JSON event log;
* JSON round-trips (``to_json``/``from_json``) and the ASCII renderer.
"""

import json
import threading
import time

import pytest

from repro.obs import (
    PHASES,
    RoundTrace,
    Span,
    Tracer,
    current_trace,
    phase_name,
    render_trace,
    span,
)
from repro.obs.trace import _NULL_SPAN
from repro.service.metrics import ServiceMetrics


def make_trace(tracer, cohort_id=0, round_index=0, phases=()):
    """Finish one trace whose top-level spans have the given durations.

    ``phases`` is a sequence of ``(name, duration_seconds)``; spans get
    synthetic timestamps so tests control the slow detector's inputs.
    """
    trace = tracer.start_round(cohort_id, round_index)
    t0 = trace.root.start
    for name, duration in phases:
        trace.add_span(Span(name, start=t0, end=t0 + duration))
    tracer.finish(trace)
    return trace


class TestSpanContext:
    def test_spans_nest_under_the_innermost_open_span(self):
        tracer = Tracer()
        trace = tracer.start_round(3, 7)
        with span("offline_refill") as outer:
            with span("mask_encode", rounds="4") as inner:
                pass
        tracer.finish(trace)
        assert [s.name for s in trace.root.children] == ["offline_refill"]
        assert outer.children == [inner]
        assert inner.tags == {"rounds": "4"}
        assert inner.end is not None and outer.end >= inner.end

    def test_span_tags_error_class_and_still_pops(self):
        tracer = Tracer()
        trace = tracer.start_round(0, 0)
        with pytest.raises(ValueError):
            with span("collect"):
                raise ValueError("boom")
        # the stack unwound: a new span parents at the root again
        with span("reconstruct"):
            pass
        tracer.finish(trace)
        names = [s.name for s in trace.root.children]
        assert names == ["collect", "reconstruct"]
        assert trace.root.children[0].tags["error"] == "ValueError"

    def test_no_active_trace_returns_the_shared_null_context(self):
        assert current_trace() is None
        assert span("collect") is _NULL_SPAN
        assert span("reconstruct", tag="x") is _NULL_SPAN
        with span("collect") as s:
            assert s is None

    def test_disabled_tracer_opens_no_trace(self):
        tracer = Tracer(enabled=False)
        assert tracer.start_round(0, 0) is None
        assert current_trace() is None
        tracer.finish(None)  # no-op, no error
        assert tracer.recent() == []

    def test_trace_is_thread_local(self):
        tracer = Tracer()
        trace = tracer.start_round(0, 0)
        seen = []
        t = threading.Thread(target=lambda: seen.append(current_trace()))
        t.start()
        t.join()
        assert seen == [None]
        assert current_trace() is trace
        tracer.finish(trace)
        assert current_trace() is None

    def test_finish_closes_spans_left_open(self):
        tracer = Tracer()
        trace = tracer.start_round(0, 0)
        ctx = span("collect")
        ctx.__enter__()  # never exited — e.g. an exception path
        tracer.finish(trace, error=RuntimeError("round failed"))
        assert trace.root.children[0].end is not None
        assert trace.root.end is not None
        assert trace.root.tags["error"] == "RuntimeError"
        assert trace._stack == []


class TestRoundTrace:
    def test_phase_durations_group_indexed_spans(self):
        tracer = Tracer()
        trace = make_trace(
            tracer,
            phases=[
                ("shard_compute[0]", 0.25),
                ("shard_compute[1]", 0.5),
                ("reconstruct", 0.125),
            ],
        )
        durations = trace.phase_durations()
        assert durations["shard_compute"] == pytest.approx(0.75)
        assert durations["reconstruct"] == pytest.approx(0.125)

    def test_phase_name_strips_the_index(self):
        assert phase_name("shard_compute[3]") == "shard_compute"
        assert phase_name("collect") == "collect"
        assert all(phase_name(p) == p for p in PHASES)

    def test_json_round_trip(self):
        tracer = Tracer()
        trace = tracer.start_round(5, 9)
        with span("collect", users="8"):
            with span("mask_encode"):
                pass
        tracer.finish(trace)
        data = json.loads(json.dumps(trace.to_json()))
        back = RoundTrace.from_json(data)
        assert back.trace_id == trace.trace_id
        assert back.cohort_id == 5 and back.round_index == 9
        assert [s.name for s in back.root.walk()] == [
            s.name for s in trace.root.walk()
        ]
        for a, b in zip(back.root.walk(), trace.root.walk()):
            assert a.tags == b.tags
            assert a.duration == pytest.approx(b.duration, abs=1e-9)

    def test_summary_counts_spans_below_the_root(self):
        tracer = Tracer()
        trace = make_trace(
            tracer, cohort_id=2, round_index=4,
            phases=[("collect", 0.001), ("reconstruct", 0.002)],
        )
        summary = trace.summary()
        assert summary["trace_id"] == trace.trace_id
        assert summary["cohort_id"] == 2 and summary["round_index"] == 4
        assert summary["spans"] == 2
        assert summary["slow"] is False and summary["slow_phase"] is None


class TestTracerRing:
    def test_ring_evicts_oldest_and_its_id(self):
        tracer = Tracer(capacity=2)
        first = make_trace(tracer, round_index=0)
        second = make_trace(tracer, round_index=1)
        third = make_trace(tracer, round_index=2)
        assert tracer.retained == 2
        assert tracer.get(first.trace_id) is None
        assert tracer.get(second.trace_id) is second
        assert tracer.get(third.trace_id) is third

    def test_recent_is_newest_first_and_filters_by_cohort(self):
        tracer = Tracer()
        a = make_trace(tracer, cohort_id=0, round_index=0)
        b = make_trace(tracer, cohort_id=1, round_index=0)
        c = make_trace(tracer, cohort_id=0, round_index=1)
        assert tracer.recent() == [c, b, a]
        assert tracer.recent(cohort_id=0) == [c, a]
        assert tracer.recent(cohort_id=0, limit=1) == [c]
        assert tracer.recent(cohort_id=9) == []

    def test_trace_ids_are_unique_and_nonzero(self):
        # zero is the wire's "no trace" sentinel; an id of 0 would make a
        # traced request look untraced.
        tracer = Tracer()
        ids = {make_trace(tracer).trace_id for _ in range(16)}
        assert len(ids) == 16
        assert 0 not in ids

    def test_capacity_and_slow_factor_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)
        with pytest.raises(ValueError):
            Tracer(slow_factor=0.0)


class TestSlowDetection:
    def test_outlier_round_is_flagged_against_trailing_median(self):
        tracer = Tracer(slow_factor=5.0, slow_min_samples=3)
        for r in range(4):
            trace = make_trace(
                tracer, round_index=r, phases=[("shard_compute[0]", 0.01)]
            )
            assert not trace.slow
        slow = make_trace(
            tracer, round_index=4, phases=[("shard_compute[0]", 0.2)]
        )
        assert slow.slow and slow.slow_phase == "shard_compute"
        assert tracer.slow_rounds == 1

    def test_no_flag_before_min_samples(self):
        tracer = Tracer(slow_factor=5.0, slow_min_samples=5)
        for r in range(4):
            duration = 0.01 if r < 3 else 10.0  # huge, but too few samples
            trace = make_trace(
                tracer, round_index=r, phases=[("collect", duration)]
            )
            assert not trace.slow

    def test_windows_are_per_cohort(self):
        tracer = Tracer(slow_factor=5.0, slow_min_samples=3)
        for r in range(4):
            make_trace(tracer, cohort_id=0, round_index=r,
                       phases=[("collect", 0.01)])
        # cohort 1 has no history: its first big round is not slow
        other = make_trace(tracer, cohort_id=1, round_index=0,
                           phases=[("collect", 0.2)])
        assert not other.slow

    def test_slow_round_still_feeds_the_window(self):
        tracer = Tracer(slow_factor=5.0, slow_min_samples=3, slow_window=4)
        for r in range(4):
            make_trace(tracer, round_index=r, phases=[("collect", 0.01)])
        make_trace(tracer, round_index=4, phases=[("collect", 1.0)])
        # after the window fills with 1.0s samples the level shift is the
        # new normal and stops being flagged
        for r in range(5, 9):
            make_trace(tracer, round_index=r, phases=[("collect", 1.0)])
        final = make_trace(tracer, round_index=9, phases=[("collect", 1.0)])
        assert not final.slow


class TestMetricsExport:
    def test_top_level_spans_feed_phase_histograms(self):
        metrics = ServiceMetrics()
        tracer = Tracer(metrics=metrics)
        make_trace(
            tracer,
            phases=[
                ("shard_compute[0]", 0.02),
                ("shard_compute[1]", 0.03),
                ("reconstruct", 0.004),
            ],
        )
        phases = metrics.snapshot()["phases"]
        assert phases["shard_compute"]["count"] == 2
        assert phases["shard_compute"]["seconds"] == pytest.approx(0.05)
        assert phases["reconstruct"]["count"] == 1
        text = metrics.render_prometheus()
        assert 'repro_phase_latency_seconds_count{phase="shard_compute"} 2' \
            in text


class TestEventLog:
    def test_one_json_line_per_span_root_carries_slow_flag(self, tmp_path):
        path = tmp_path / "events.jsonl"
        tracer = Tracer()
        tracer.set_event_log(str(path))
        trace = tracer.start_round(1, 2)
        with span("collect"):
            with span("mask_encode"):
                pass
        tracer.finish(trace)
        tracer.close()
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert len(events) == 3  # root + 2 spans
        assert {e["span"] for e in events} == {
            "round", "collect", "mask_encode"
        }
        for e in events:
            assert e["event"] == "span"
            assert e["trace_id"] == trace.trace_id
            assert e["cohort_id"] == 1 and e["round_index"] == 2
            assert e["duration_seconds"] >= 0
        root_events = [e for e in events if e["span"] == "round"]
        assert root_events[0]["slow"] is False
        assert root_events[0]["slow_phase"] is None

    def test_log_appends_across_traces_and_closes_idempotently(
        self, tmp_path
    ):
        path = tmp_path / "events.jsonl"
        tracer = Tracer()
        tracer.set_event_log(str(path))
        make_trace(tracer, phases=[("collect", 0.001)])
        make_trace(tracer, phases=[("collect", 0.001)])
        tracer.close()
        tracer.close()  # idempotent
        assert len(path.read_text().splitlines()) == 4
        # with the log closed, finishing more traces is fine and silent
        make_trace(tracer, phases=[("collect", 0.001)])
        assert len(path.read_text().splitlines()) == 4


class TestRender:
    def make_fixed_trace(self):
        trace = RoundTrace(42, 1, 3)
        t0 = trace.root.start
        compute = Span(
            "shard_compute[0]", start=t0 + 0.01, end=t0 + 0.05,
            tags={"pid": "999", "host": "worker-a", "transport": "socket"},
        )
        compute.children.append(
            Span("queue_wait", start=t0 + 0.01, end=t0 + 0.02)
        )
        trace.add_span(Span("collect", start=t0, end=t0 + 0.01))
        trace.add_span(compute)
        trace.root.close(t0 + 0.1)
        return trace

    def test_render_shows_every_span_with_bars_and_tags(self):
        text = render_trace(self.make_fixed_trace(), width=40)
        lines = text.splitlines()
        assert lines[0].startswith("trace 42  cohort 1  round 3")
        assert "total 100.00 ms" in lines[0]
        for name in ("round", "collect", "shard_compute[0]", "queue_wait"):
            assert any(name in line for line in lines[1:]), name
        compute_line = next(l for l in lines if "shard_compute[0]" in l)
        assert "pid=999" in compute_line
        assert "host=worker-a" in compute_line
        assert "#" in compute_line

    def test_render_accepts_the_json_form_identically(self):
        trace = self.make_fixed_trace()
        assert render_trace(trace.to_json()) == render_trace(trace)

    def test_slow_marker_in_header(self):
        trace = self.make_fixed_trace()
        trace.slow = True
        trace.slow_phase = "shard_compute"
        assert "[SLOW: shard_compute]" in render_trace(trace).splitlines()[0]

    def test_zero_duration_trace_renders(self):
        trace = RoundTrace(7, 0, 0)
        trace.root.close(trace.root.start)  # total == 0
        text = render_trace(trace)
        assert "trace 7" in text


def test_finish_records_errors():
    tracer = Tracer()
    trace = tracer.start_round(0, 0)
    tracer.finish(trace, error=RuntimeError("round failed"))
    assert current_trace() is None
    assert trace.root.tags["error"] == "RuntimeError"
    assert tracer.retained == 1


def test_span_timestamps_are_wall_clock():
    # Renderers and cross-process stitching align spans on unix time.
    tracer = Tracer()
    before = time.time()
    trace = tracer.start_round(0, 0)
    tracer.finish(trace)
    assert before - 1 <= trace.root.start <= time.time() + 1

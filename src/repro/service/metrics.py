"""Thread-safe service metrics: pool depth, stalls, throughput.

The service's observability layer.  Producers (cohorts, transports,
the background refiller) record events; consumers (the CLI ``service``
subcommand, the ``/metrics`` endpoint the end-to-end benchmark scrapes,
tests) read immutable snapshots.
Everything is guarded by one lock per cohort — contention is negligible
at round granularity and the snapshot is consistent.

A *stall* is the event the whole service layer exists to eliminate: an
online round that found its session pool empty and had to run the
offline encode inline on the critical path.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Deque, Dict, List, Optional, Tuple

#: Upper bucket bounds (seconds) of the online-round latency histogram,
#: Prometheus-style cumulative.  Spans sub-millisecond inline rounds at
#: toy dims through multi-second sharded rounds at paper-scale models;
#: the implicit final bucket is +Inf.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


def _latency_histogram() -> List[int]:
    return [0] * (len(LATENCY_BUCKETS_S) + 1)  # trailing slot is +Inf


#: Upper bucket bounds (rounds) of the per-drain staleness histogram in
#: buffered-async drains: tau = seal round - download round.  Most
#: deliveries in the paper's regime are fresh (tau <= 2); the tail
#: buckets catch stragglers several drains behind.  Implicit final
#: bucket is +Inf.
STALENESS_BUCKETS: Tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32)


def _staleness_histogram() -> List[int]:
    return [0] * (len(STALENESS_BUCKETS) + 1)  # trailing slot is +Inf


#: Pool-depth samples retained per cohort (the newest ones).
POOL_DEPTH_SAMPLES = 4096


def _fmt(value) -> str:
    """Prometheus sample formatting: integral floats without the dot."""
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _histogram(labels, bounds, buckets, total, count) -> List[Tuple]:
    """The ``(suffix, labels, value)`` samples of one Prometheus
    histogram: cumulative ``_bucket`` counts up to ``+Inf``, then
    ``_sum`` and ``_count``.  ``buckets`` holds per-bucket (not
    cumulative) counts aligned with ``bounds``, overflow last."""
    rows = []
    cumulative = 0
    for bound, n in zip(bounds, buckets):
        cumulative += n
        rows.append(
            ("_bucket", {**labels, "le": _fmt(float(bound))}, cumulative)
        )
    rows.append(
        ("_bucket", {**labels, "le": "+Inf"}, cumulative + buckets[-1])
    )
    rows.append(("_sum", labels, total))
    rows.append(("_count", labels, count))
    return rows


def _record(metrics, **derived) -> Dict:
    """A metrics dataclass as a plain dict — containers copied, so the
    caller never aliases a live series — plus its ``derived`` values."""
    out = {}
    for f in fields(metrics):
        value = getattr(metrics, f.name)
        if isinstance(value, (list, deque)):
            value = list(value)
        elif isinstance(value, dict):
            value = dict(value)
        out[f.name] = value
    out.update(derived)
    return out


@dataclass
class CohortMetrics:
    """Counters and series for one cohort (internal, lock-guarded)."""

    rounds: int = 0
    stalls: int = 0
    online_seconds: float = 0.0
    background_refills: int = 0
    background_rounds_refilled: int = 0
    # Wall-clock (unix) time the cohort last completed a round; 0 until
    # the first round.  Exported as a gauge so dashboards can alert on
    # cohorts that have gone quiet.
    last_round_unix: float = 0.0
    # (monotonic time, pool level) sampled at every round start and after
    # every background refill — the benchmark's pool-depth-over-time
    # series.  A ring: a daemon samples for life and every snapshot()
    # copies the series, so only the newest POOL_DEPTH_SAMPLES are kept.
    pool_depth_series: Deque[Tuple[float, int]] = field(
        default_factory=lambda: deque(maxlen=POOL_DEPTH_SAMPLES)
    )
    # Per-bucket observation counts aligned with LATENCY_BUCKETS_S (last
    # slot is the +Inf overflow); non-cumulative, cumulated at render.
    latency_buckets: List[int] = field(default_factory=_latency_histogram)
    # --- recorded by submissions, drains and membership changes only
    # (all zero on a cohort that only ran rounds, whose Prometheus
    # samples are then suppressed). ---
    # Current buffer occupancy / capacity (gauges, updated per submit).
    buffer_fill: int = 0
    buffer_capacity: int = 0
    # Buffer drains completed (each is also counted in ``rounds``).
    drains: int = 0
    # Per-delivery staleness distribution across all drains, aligned
    # with STALENESS_BUCKETS (+Inf overflow in the last slot).
    staleness_buckets: List[int] = field(
        default_factory=_staleness_histogram
    )
    staleness_sum: int = 0
    staleness_count: int = 0
    # Elastic membership churn ("join" / "leave" counters).
    membership_events: Dict[str, int] = field(default_factory=dict)

    def observe_staleness(self, tau: int) -> None:
        self.staleness_buckets[
            bisect.bisect_left(STALENESS_BUCKETS, tau)
        ] += 1
        self.staleness_sum += tau
        self.staleness_count += 1

    def observe_latency(self, seconds: float) -> None:
        self.latency_buckets[
            bisect.bisect_left(LATENCY_BUCKETS_S, seconds)
        ] += 1

    @property
    def rounds_per_second(self) -> float:
        if self.online_seconds <= 0:
            return 0.0
        return self.rounds / self.online_seconds


@dataclass
class PhaseMetrics:
    """Latency histogram for one trace phase (internal, lock-guarded).

    Fed by the :class:`~repro.obs.Tracer` from each finished round's
    top-level spans, keyed by base phase name (``shard_compute[3]``
    reports as ``shard_compute``).
    """

    count: int = 0
    seconds: float = 0.0
    latency_buckets: List[int] = field(default_factory=_latency_histogram)

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.seconds += seconds
        self.latency_buckets[
            bisect.bisect_left(LATENCY_BUCKETS_S, seconds)
        ] += 1


@dataclass
class TransportMetrics:
    """Per-backend scatter/gather counters (internal, lock-guarded).

    One entry per transport kind (``inline`` / ``process`` /
    ``socket``): logical rounds executed through that backend,
    wall-clock spent in its scatter+gather, wire traffic, and how many
    *shard*-level stalls its round results reported (a shard whose
    worker found an empty pool).
    """

    rounds: int = 0
    round_seconds: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0
    shard_stalls: int = 0
    # Vector payload bytes exchanged through shared memory instead of
    # the socket (``process`` only).  ``bytes_sent`` /
    # ``bytes_received`` count actual wire frames, so while the lane
    # stages they stay near zero and this carries the vector volume.
    shm_bytes: int = 0
    # Rounds on a lane that stages whose rows rode the frame instead:
    # no segment could be reserved, or the rows outgrew their region.
    shm_fallbacks: int = 0
    # Networked backends only: connections re-established (with session
    # re-pin) after a heartbeat timeout or socket error.
    reconnects: int = 0

    @property
    def mean_round_seconds(self) -> float:
        if self.rounds == 0:
            return 0.0
        return self.round_seconds / self.rounds


class ServiceMetrics:
    """Aggregated, thread-safe metrics across all cohorts.

    Every mutation *and* every read of the mutable series/counters
    happens under one lock: producers on the consumer and refiller
    threads call the ``record_*`` methods, readers get consistent copies
    via :meth:`snapshot` / :meth:`pool_depth_series` — internal lists are
    never handed out.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cohorts: Dict[int, CohortMetrics] = {}
        self._transports: Dict[str, TransportMetrics] = {}
        self._phases: Dict[str, PhaseMetrics] = {}
        self._t0 = time.monotonic()

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def _cohort(self, cohort_id: int) -> CohortMetrics:
        return self._cohorts.setdefault(cohort_id, CohortMetrics())

    def record_round(
        self,
        cohort_id: int,
        online_seconds: float,
        stalled: bool,
        pool_level_before: Optional[int] = None,
    ) -> None:
        """Record one completed online round for a cohort."""
        with self._lock:
            m = self._cohort(cohort_id)
            m.rounds += 1
            m.online_seconds += online_seconds
            m.observe_latency(online_seconds)
            m.last_round_unix = time.time()
            if stalled:
                m.stalls += 1
            if pool_level_before is not None:
                m.pool_depth_series.append(
                    (time.monotonic() - self._t0, pool_level_before)
                )

    def record_refill(
        self, cohort_id: int, rounds_added: int, pool_level_after: int
    ) -> None:
        """Record one background refill that topped a cohort's pool up."""
        with self._lock:
            m = self._cohort(cohort_id)
            m.background_refills += 1
            m.background_rounds_refilled += rounds_added
            m.pool_depth_series.append(
                (time.monotonic() - self._t0, pool_level_after)
            )

    def record_submit(
        self, cohort_id: int, buffer_fill: int, buffer_capacity: int
    ) -> None:
        """Record one buffered submission (buffer occupancy gauge)."""
        with self._lock:
            m = self._cohort(cohort_id)
            m.buffer_fill = buffer_fill
            m.buffer_capacity = buffer_capacity

    def record_drain(
        self, cohort_id: int, staleness: List[int]
    ) -> None:
        """Record one buffer drain and its per-delivery staleness."""
        with self._lock:
            m = self._cohort(cohort_id)
            m.drains += 1
            m.buffer_fill = 0
            for tau in staleness:
                m.observe_staleness(int(tau))

    def record_membership(self, cohort_id: int, event: str) -> None:
        """Record one elastic-membership event (``join`` / ``leave``)."""
        with self._lock:
            m = self._cohort(cohort_id)
            m.membership_events[event] = (
                m.membership_events.get(event, 0) + 1
            )

    def record_transport_round(
        self,
        kind: str,
        seconds: float,
        bytes_sent: int = 0,
        bytes_received: int = 0,
        stalled_shards: int = 0,
        shm_bytes: int = 0,
        shm_fallbacks: int = 0,
    ) -> None:
        """Record one logical round's scatter/gather through a backend."""
        with self._lock:
            t = self._transports.setdefault(kind, TransportMetrics())
            t.rounds += 1
            t.round_seconds += seconds
            t.bytes_sent += bytes_sent
            t.bytes_received += bytes_received
            t.shard_stalls += stalled_shards
            t.shm_bytes += shm_bytes
            t.shm_fallbacks += shm_fallbacks

    def record_phase(self, phase: str, seconds: float) -> None:
        """Record one top-level trace span into its phase histogram."""
        with self._lock:
            self._phases.setdefault(phase, PhaseMetrics()).observe(seconds)

    def record_transport_reconnect(self, kind: str) -> None:
        """Record one reconnect (+ session re-pin) of a networked backend."""
        with self._lock:
            t = self._transports.setdefault(kind, TransportMetrics())
            t.reconnects += 1

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def pool_depth_series(self, cohort_id: int) -> List[Tuple[float, int]]:
        """A consistent copy of one cohort's pool-depth series.

        Samplers on other threads (benchmark pollers, dashboards) must go
        through this accessor — the internal list is appended to by both
        the consumer and the refiller thread and is never exposed raw.
        """
        with self._lock:
            m = self._cohorts.get(cohort_id)
            return [] if m is None else list(m.pool_depth_series)

    def snapshot(self) -> Dict:
        """Consistent point-in-time view, JSON-serializable: every field
        of every metrics record plus the values derived from them."""
        with self._lock:
            return {
                "uptime_seconds": time.monotonic() - self._t0,
                "total_rounds": sum(m.rounds for m in self._cohorts.values()),
                "total_stalls": sum(m.stalls for m in self._cohorts.values()),
                "cohorts": {
                    cid: _record(m, rounds_per_second=m.rounds_per_second)
                    for cid, m in sorted(self._cohorts.items())
                },
                "transports": {
                    kind: _record(t, mean_round_seconds=t.mean_round_seconds)
                    for kind, t in sorted(self._transports.items())
                },
                "phases": {
                    name: _record(p)
                    for name, p in sorted(self._phases.items())
                },
            }

    def render_prometheus(self) -> str:
        """Prometheus text-format exposition of every series.

        One consistent scrape: the whole render happens under the
        metrics lock, so a round or refill recorded concurrently either
        lands in every family it touches or in none.  Metric names,
        types, and label keys are pinned by the golden-file test — treat
        them as a public interface (dashboards bind to them).
        """
        with self._lock:
            cohorts = [
                (str(cid), m) for cid, m in sorted(self._cohorts.items())
            ]
            # Buffered-async families render their HELP/TYPE headers
            # unconditionally (the exposition is self-describing) but
            # samples only for cohorts that have buffered state, so a
            # sync-only scrape differs from the pre-buffered format by
            # header lines alone.
            buffered = [
                (cid, m)
                for cid, m in cohorts
                if m.buffer_capacity > 0
                or m.drains > 0
                or m.membership_events
            ]
            transports = sorted(self._transports.items())

            def each(entries, label, attr):
                """One sample per entry: its ``attr``, labelled by key."""
                return [
                    ("", {label: key}, getattr(m, attr))
                    for key, m in entries
                ]

            # (name, type, help, rows); a row is (suffix, labels, value).
            families = [
                ("repro_uptime_seconds", "gauge",
                 "Seconds since the service metrics sink was created.",
                 [("", {}, time.monotonic() - self._t0)]),
                ("repro_rounds_total", "counter",
                 "Completed online aggregation rounds per cohort.",
                 each(cohorts, "cohort", "rounds")),
                ("repro_stalls_total", "counter",
                 "Online rounds that found their offline pool empty.",
                 each(cohorts, "cohort", "stalls")),
                ("repro_online_seconds_total", "counter",
                 "Wall-clock seconds spent in the online round path.",
                 each(cohorts, "cohort", "online_seconds")),
                ("repro_round_latency_seconds", "histogram",
                 "Online round latency distribution per cohort.",
                 [row for cid, m in cohorts for row in _histogram(
                     {"cohort": cid}, LATENCY_BUCKETS_S, m.latency_buckets,
                     m.online_seconds, m.rounds)]),
                ("repro_phase_latency_seconds", "histogram",
                 "Per-phase latency from round traces (top-level spans).",
                 [row for name, p in sorted(self._phases.items())
                  for row in _histogram(
                      {"phase": name}, LATENCY_BUCKETS_S, p.latency_buckets,
                      p.seconds, p.count)]),
                ("repro_last_round_unix_seconds", "gauge",
                 "Unix time each cohort last completed a round.",
                 each(cohorts, "cohort", "last_round_unix")),
                ("repro_pool_depth", "gauge",
                 "Most recently sampled offline pool depth per cohort.",
                 [("", {"cohort": cid}, m.pool_depth_series[-1][1])
                  for cid, m in cohorts if m.pool_depth_series]),
                ("repro_background_refills_total", "counter",
                 "Background pool top-ups per cohort.",
                 each(cohorts, "cohort", "background_refills")),
                ("repro_background_rounds_refilled_total", "counter",
                 "Rounds of offline material delivered by background refills.",
                 each(cohorts, "cohort", "background_rounds_refilled")),
                ("repro_buffer_fill", "gauge",
                 "Current update-buffer occupancy per buffered cohort.",
                 each(buffered, "cohort", "buffer_fill")),
                ("repro_buffer_capacity", "gauge",
                 "Seal threshold K of each buffered cohort's buffer.",
                 each(buffered, "cohort", "buffer_capacity")),
                ("repro_drains_total", "counter",
                 "Completed buffer drains per buffered cohort.",
                 each(buffered, "cohort", "drains")),
                ("repro_drain_staleness", "histogram",
                 "Per-delivery staleness (rounds) across buffer drains.",
                 [row for cid, m in buffered for row in _histogram(
                     {"cohort": cid}, STALENESS_BUCKETS, m.staleness_buckets,
                     m.staleness_sum, m.staleness_count)]),
                ("repro_membership_events_total", "counter",
                 "Elastic membership changes per buffered cohort.",
                 [("", {"cohort": cid, "event": event}, count)
                  for cid, m in buffered
                  for event, count in sorted(m.membership_events.items())]),
                ("repro_transport_rounds_total", "counter",
                 "Logical rounds scatter/gathered per transport backend.",
                 each(transports, "transport", "rounds")),
                ("repro_transport_round_seconds_total", "counter",
                 "Wall-clock seconds in transport scatter/gather.",
                 each(transports, "transport", "round_seconds")),
                ("repro_transport_bytes_sent_total", "counter",
                 "Wire bytes sent per transport backend.",
                 each(transports, "transport", "bytes_sent")),
                ("repro_transport_bytes_received_total", "counter",
                 "Wire bytes received per transport backend.",
                 each(transports, "transport", "bytes_received")),
                ("repro_transport_shm_bytes_total", "counter",
                 "Vector payload bytes exchanged via shared memory.",
                 each(transports, "transport", "shm_bytes")),
                ("repro_transport_shm_fallbacks_total", "counter",
                 "Rounds whose rows rode the frame on a staging lane.",
                 each(transports, "transport", "shm_fallbacks")),
                ("repro_transport_shard_stalls_total", "counter",
                 "Shard-level rounds that found an empty worker pool.",
                 each(transports, "transport", "shard_stalls")),
                ("repro_transport_reconnects_total", "counter",
                 "Connections re-established (with session re-pin).",
                 each(transports, "transport", "reconnects")),
            ]
            lines: List[str] = []
            for name, kind, help_text, rows in families:
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
                for suffix, labels, value in rows:
                    body = ",".join(f'{k}="{v}"' for k, v in labels.items())
                    series = f"{name}{suffix}" + (f"{{{body}}}" if body else "")
                    lines.append(f"{series} {_fmt(value)}")
            return "\n".join(lines) + "\n"

    @property
    def total_rounds(self) -> int:
        with self._lock:
            return sum(m.rounds for m in self._cohorts.values())

    @property
    def total_stalls(self) -> int:
        with self._lock:
            return sum(m.stalls for m in self._cohorts.values())

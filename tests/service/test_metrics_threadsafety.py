"""Regression: every ServiceMetrics read/write is serialized by its lock.

The pool-depth series is appended by two producer threads (the online
consumer recording rounds, the background refiller recording refills)
while consumers snapshot it; a snapshot taken mid-append must never see
a torn series, and no recorded event may be lost.  These tests hammer
the producer/consumer paths from real threads and check the final
counts are exact and every intermediate snapshot internally consistent.
"""

import threading

from repro.service import ServiceMetrics

ROUNDS_PER_THREAD = 400
PRODUCERS = 3


def test_concurrent_rounds_refills_and_snapshots_stay_consistent():
    metrics = ServiceMetrics()
    start = threading.Barrier(PRODUCERS + 2)
    errors = []

    def producer(cohort_id):
        start.wait()
        for i in range(ROUNDS_PER_THREAD):
            metrics.record_round(
                cohort_id, online_seconds=1e-6, stalled=(i % 7 == 0),
                pool_level_before=i % 5,
            )
            metrics.record_refill(cohort_id, rounds_added=1, pool_level_after=4)
            metrics.record_transport_round(
                "process", 1e-6, bytes_sent=10, bytes_received=20,
                stalled_shards=i % 2,
            )

    def sampler():
        start.wait()
        for _ in range(200):
            snap = metrics.snapshot()
            try:
                for cid, m in snap["cohorts"].items():
                    series = m["pool_depth_series"]
                    # one sample per round + one per refill, interleaved;
                    # a torn append would break the pairing invariant.
                    assert len(series) <= 2 * ROUNDS_PER_THREAD
                    assert all(
                        isinstance(t, float) and isinstance(d, int)
                        for t, d in series
                    )
                    times = [t for t, _ in series]
                    assert times == sorted(times)
                    assert m["stalls"] <= m["rounds"]
                    # accessor and snapshot must agree on a consistent copy
                    assert len(metrics.pool_depth_series(cid)) >= 0
                assert snap["total_rounds"] == sum(
                    m["rounds"] for m in snap["cohorts"].values()
                )
            except AssertionError as exc:  # pragma: no cover - failure path
                errors.append(exc)
                raise

    threads = [
        threading.Thread(target=producer, args=(cid,))
        for cid in range(PRODUCERS)
    ] + [threading.Thread(target=sampler), threading.Thread(target=sampler)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors
    snap = metrics.snapshot()
    assert snap["total_rounds"] == PRODUCERS * ROUNDS_PER_THREAD
    expected_stalls = PRODUCERS * len(
        [i for i in range(ROUNDS_PER_THREAD) if i % 7 == 0]
    )
    assert snap["total_stalls"] == expected_stalls
    for cid in range(PRODUCERS):
        m = snap["cohorts"][cid]
        assert m["rounds"] == ROUNDS_PER_THREAD
        assert m["background_refills"] == ROUNDS_PER_THREAD
        assert len(m["pool_depth_series"]) == 2 * ROUNDS_PER_THREAD
        assert m["pool_depth_series"] == metrics.pool_depth_series(cid)
    t = snap["transports"]["process"]
    assert t["rounds"] == PRODUCERS * ROUNDS_PER_THREAD
    assert t["bytes_sent"] == 10 * t["rounds"]
    assert t["bytes_received"] == 20 * t["rounds"]
    assert t["shard_stalls"] == PRODUCERS * ROUNDS_PER_THREAD // 2


def test_snapshot_series_is_a_copy_not_the_internal_list():
    metrics = ServiceMetrics()
    metrics.record_round(0, 1e-6, stalled=False, pool_level_before=3)
    snap = metrics.snapshot()
    snap["cohorts"][0]["pool_depth_series"].append((999.0, 999))
    copy = metrics.pool_depth_series(0)
    copy.append((123.0, 123))
    assert len(metrics.snapshot()["cohorts"][0]["pool_depth_series"]) == 1
    assert metrics.pool_depth_series(99) == []


def test_pool_depth_series_is_a_ring_of_the_newest_samples():
    """A daemon samples for life and every snapshot copies the series:
    past the cap the oldest samples go, the newest stay, and the
    ``repro_pool_depth`` gauge still reports the last one."""
    from repro.service.metrics import POOL_DEPTH_SAMPLES as CAP

    metrics = ServiceMetrics()
    for i in range(CAP + 10):
        metrics.record_round(0, 1e-6, stalled=False, pool_level_before=i)
    series = metrics.pool_depth_series(0)
    assert len(series) == CAP
    assert [level for _, level in series] == list(range(10, CAP + 10))
    assert len(metrics.snapshot()["cohorts"][0]["pool_depth_series"]) == CAP
    assert metrics.snapshot()["cohorts"][0]["rounds"] == CAP + 10
    assert (
        f'repro_pool_depth{{cohort="0"}} {CAP + 9}'
        in metrics.render_prometheus()
    )

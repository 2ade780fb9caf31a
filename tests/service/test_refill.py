"""Background refill pipeline: correctness, triggers, and shutdown.

The contracts under test:

* **Bit-identity** — a background-refilled session produces exactly the
  aggregates a synchronous session (and the one-shot protocol path)
  produces, across mixed worst-case/offline dropout patterns.  The
  aggregate is the exact field sum of the surviving updates no matter
  which masks a refill drew, so this must hold bit-for-bit.
* **Low-water trigger semantics** — ``needs_refill`` fires exactly when
  the pool drains to ``low_water`` (and is below ``pool_size``), never
  on closed or non-pooled sessions, and the refiller tops up to full.
* **Clean shutdown** — ``stop()`` with a refill in flight lets the
  refill complete, delivers its material, and joins the worker.
"""

import threading
import time

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.field import FiniteField
from repro.protocols import LightSecAgg, LSAParams, NaiveAggregation
from repro.service import BackgroundRefiller, ServiceMetrics

N, DIM = 10, 33


@pytest.fixture
def proto(gf):
    params = LSAParams.from_guarantees(N, privacy=2, dropout_tolerance=3)
    return LightSecAgg(gf, params, DIM)


def drain_rounds(session, proto, gf, rounds, seed, refiller=None):
    """Run ``rounds`` mixed-dropout rounds; return the aggregates."""
    rng = np.random.default_rng(seed)
    out = []
    for r in range(rounds):
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        ids = rng.choice(N, size=3, replace=False).tolist()
        split = int(rng.integers(0, 4))
        worst, offline = set(ids[:split]), set(ids[split:])
        result = session.run_round(
            updates, worst, rng, offline_dropouts=offline
        )
        expected = proto.expected_aggregate(updates, result.survivors)
        assert np.array_equal(result.aggregate, expected), r
        out.append((result.survivors, result.aggregate))
        if refiller is not None:
            # Steady state: client think time exceeds refill time.
            refiller.wait_until_idle(timeout=30.0)
    return out


class TestBackgroundBitIdentity:
    def test_background_matches_sync_across_mixed_dropouts(self, gf, proto):
        sync_session = proto.session(pool_size=3, rng=np.random.default_rng(0))
        bg_session = proto.session(
            pool_size=3, low_water=1, rng=np.random.default_rng(1)
        )
        with BackgroundRefiller(poll_interval_s=0.0005) as refiller:
            refiller.register(bg_session)
            refiller.wait_until_idle(timeout=30.0)  # warm the pool
            got = drain_rounds(bg_session, proto, gf, 8, seed=42,
                               refiller=refiller)
        want = drain_rounds(sync_session, proto, gf, 8, seed=42)
        for (s_got, a_got), (s_want, a_want) in zip(got, want):
            assert s_got == s_want
            assert np.array_equal(a_got, a_want)

    def test_background_session_never_misses_at_steady_state(self, gf, proto):
        session = proto.session(
            pool_size=4, low_water=2, rng=np.random.default_rng(2)
        )
        with BackgroundRefiller(poll_interval_s=0.0005) as refiller:
            refiller.register(session)
            refiller.wait_until_idle(timeout=30.0)
            drain_rounds(session, proto, gf, 10, seed=7, refiller=refiller)
        assert session.stats.rounds == 10
        assert session.stats.pool_misses == 0
        assert session.stats.pool_hits == 10

    def test_sync_session_stalls_once_per_pool_cycle(self, gf, proto):
        """The baseline the background pipeline eliminates: >= 1 miss/K."""
        session = proto.session(pool_size=3, rng=np.random.default_rng(3))
        drain_rounds(session, proto, gf, 9, seed=11)
        assert session.stats.pool_misses == 3  # rounds 0, 3, 6


class TestLowWaterSemantics:
    def test_trigger_fires_at_low_water_not_above(self, gf, proto):
        session = proto.session(
            pool_size=4, low_water=2, rng=np.random.default_rng(0)
        )
        assert session.needs_refill  # empty pool is at/below low water
        session.refill()
        assert session.pool_level == 4 and not session.needs_refill
        rng = np.random.default_rng(1)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        session.run_round(updates, set(), rng)
        assert session.pool_level == 3 and not session.needs_refill
        session.run_round(updates, set(), rng)
        assert session.pool_level == 2 and session.needs_refill

    def test_full_pool_never_triggers(self, gf, proto):
        session = proto.session(pool_size=1, rng=np.random.default_rng(0))
        session.refill()
        assert not session.needs_refill

    def test_closed_and_replay_sessions_never_trigger(self, gf, proto):
        closed = proto.session(pool_size=2, low_water=1)
        closed.close()
        assert not closed.needs_refill
        replay = NaiveAggregation(gf, N, DIM).session(pool_size=2, low_water=1)
        assert not replay.supports_pool and not replay.needs_refill

    def test_invalid_low_water_rejected(self, proto):
        with pytest.raises(ProtocolError):
            proto.session(pool_size=2, low_water=2)
        with pytest.raises(ProtocolError):
            proto.session(pool_size=2, low_water=-1)

    def test_refiller_tops_up_to_full_and_records_metrics(self, gf, proto):
        metrics = ServiceMetrics()
        session = proto.session(
            pool_size=4, low_water=1, rng=np.random.default_rng(4)
        )
        with BackgroundRefiller(metrics=metrics) as refiller:
            refiller.register(session, cohort_id=9)
            assert refiller.wait_until_idle(timeout=30.0)
        assert session.pool_level == 4
        assert refiller.refills >= 1
        snap = metrics.snapshot()
        assert snap["cohorts"][9]["background_refills"] >= 1
        assert snap["cohorts"][9]["pool_depth_series"][-1][1] == 4


class TestCleanShutdown:
    def test_stop_with_refill_in_flight_completes_it(self, gf, proto):
        """A refill the worker already started survives stop()."""
        started = threading.Event()
        release = threading.Event()
        session = proto.session(pool_size=3, rng=np.random.default_rng(5))
        inner_refill = session.refill

        def gated_refill(rounds=None):
            started.set()
            assert release.wait(timeout=30.0)
            return inner_refill(rounds)

        session.refill = gated_refill
        refiller = BackgroundRefiller(poll_interval_s=0.0005).start()
        refiller.register(session)
        assert started.wait(timeout=30.0)  # worker is mid-refill
        stopper = threading.Thread(target=refiller.stop)
        stopper.start()
        release.set()  # let the in-flight refill finish
        stopper.join(timeout=30.0)
        assert not stopper.is_alive()
        assert not refiller.running
        # The in-flight refill's material was delivered, not dropped.
        assert session.pool_level == 3

    def test_stop_skips_refills_not_yet_started(self, gf, proto):
        """After stop() no *new* refill begins, even for needy sessions."""
        session = proto.session(pool_size=2, rng=np.random.default_rng(6))
        refiller = BackgroundRefiller(poll_interval_s=0.0005).start()
        refiller.stop()
        refiller.register(session)  # registered after shutdown
        time.sleep(0.01)
        assert session.pool_level == 0

    def test_refiller_survives_session_closed_underneath(self, gf, proto):
        """Closing a session mid-watch must not kill the worker."""
        session = proto.session(pool_size=2, low_water=1)
        session.close()
        with BackgroundRefiller(poll_interval_s=0.0005) as refiller:
            refiller.register(session)
            refiller.notify()
            time.sleep(0.01)
            assert refiller.running

    def test_context_manager_stops_worker(self, gf, proto):
        with BackgroundRefiller() as refiller:
            assert refiller.running
        assert not refiller.running

    def test_start_is_idempotent(self):
        refiller = BackgroundRefiller().start()
        try:
            first = refiller._thread
            assert refiller.start()._thread is first
        finally:
            refiller.stop()

    def test_stop_timeout_keeps_worker_and_blocks_second_start(self, gf,
                                                               proto):
        """Regression: a timed-out stop() must not lie about the worker.

        With an artificially slow refill in flight, stop(timeout) used to
        join-with-timeout and unconditionally clear ``_thread`` — so
        ``running`` reported False while the worker was still alive, and
        a subsequent start() spawned a second worker beside the zombie.
        """
        started = threading.Event()
        release = threading.Event()
        session = proto.session(pool_size=3, rng=np.random.default_rng(7))
        inner_refill = session.refill

        def slow_refill(rounds=None):
            started.set()
            assert release.wait(timeout=30.0)  # artificially slow encode
            return inner_refill(rounds)

        session.refill = slow_refill
        refiller = BackgroundRefiller(poll_interval_s=0.0005).start()
        refiller.register(session)
        assert started.wait(timeout=30.0)  # worker is mid-refill

        assert refiller.stop(timeout=0.05) is False  # join timed out
        assert refiller.running  # the worker is still alive and says so
        zombie = refiller._thread
        assert zombie is not None and zombie.is_alive()
        with pytest.raises(ProtocolError, match="still stopping"):
            refiller.start()  # must NOT spawn a second worker
        worker_threads = [
            t for t in threading.enumerate() if t.name == "offline-refiller"
        ]
        assert worker_threads == [zombie]

        release.set()  # let the slow refill drain
        assert refiller.stop(timeout=30.0) is True
        assert not refiller.running and refiller._thread is None
        assert session.pool_level == 3  # in-flight material still delivered
        # After a *completed* stop, the refiller is restartable as before.
        refiller.start()
        assert refiller.running
        assert refiller.stop() is True


class StubSession:
    """The slice of ``ProtocolSession`` the refiller touches, with a
    refill that raises for its first ``failures`` calls."""

    def __init__(self, failures, exc=RuntimeError("encode blew up")):
        self.failures = failures
        self.exc = exc
        self.calls = 0
        self.pool_level = 0

    @property
    def needs_refill(self):
        return self.pool_level == 0

    def refill(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        self.pool_level = 4
        return 4


class TestRefillFailureKeepsWorkerAlive:
    """A refill that raises something other than a typed close race
    (seen: an ``AssertionError`` out of a kernel) used to unwind the
    service-wide worker: every cohort then refilled inline forever."""

    def test_one_failure_is_recorded_and_retried(self, gf, proto):
        flaky = StubSession(failures=1)
        healthy = proto.session(pool_size=2, rng=np.random.default_rng(8))
        with BackgroundRefiller(poll_interval_s=0.0005) as refiller:
            refiller.register(flaky, cohort_id=0)
            refiller.register(healthy, cohort_id=1)
            assert refiller.wait_until_idle(timeout=30.0)
            assert refiller.running
            # The neighbour was served in the batch that failed.
            assert healthy.pool_level == 2
            assert flaky.calls == 2 and flaky.pool_level == 4
            assert refiller.failures == 1
            assert refiller.last_error == "RuntimeError: encode blew up"
            assert refiller.refills == 2
        assert not refiller.running

    def test_permanent_failure_does_not_spin_or_block_stop(self, gf, proto):
        broken = StubSession(failures=10**9, exc=MemoryError("no arena"))
        healthy = proto.session(pool_size=2, rng=np.random.default_rng(8))
        refiller = BackgroundRefiller(poll_interval_s=0.05).start()
        try:
            refiller.register(broken)
            refiller.register(healthy)
            deadline = time.monotonic() + 30.0
            while healthy.pool_level < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert healthy.pool_level == 2
            time.sleep(0.4)
            for _ in range(200):
                refiller.notify()  # a nudge must not shorten the back-off
            time.sleep(0.1)
            assert refiller.running
            # One attempt per poll interval: ~10 in half a second, where
            # a hot loop makes thousands.
            assert 2 <= broken.calls <= 30
            assert refiller.failures == broken.calls
            assert refiller.last_error == "MemoryError: no arena"
            assert refiller.wait_until_idle(timeout=0.05) is False
        finally:
            stopped = refiller.stop(timeout=30.0)
        assert stopped and not refiller.running

    def test_two_phase_sessions_are_guarded_too(self):
        class TwoPhase(StubSession):
            def refill_begin(self):
                self.calls += 1
                if self.calls <= self.failures:
                    raise self.exc
                return "ticket"

            def refill_join(self, ticket):
                if self.join_error is not None:
                    error, self.join_error = self.join_error, None
                    raise error
                self.pool_level = 4
                return 4

        session = TwoPhase(failures=1, exc=ValueError("bad begin"))
        session.join_error = OSError("bad join")
        with BackgroundRefiller(poll_interval_s=0.0005) as refiller:
            refiller.register(session)
            assert refiller.wait_until_idle(timeout=30.0)
            assert refiller.running
            assert refiller.failures == 2
            assert refiller.last_error == "OSError: bad join"
            assert refiller.refills == 1 and session.pool_level == 4

    def test_service_status_reports_the_failure(self, gf):
        from repro.service import AggregationService, RefillMode, ServiceConfig

        cfg = ServiceConfig(
            num_cohorts=1, num_users=8, model_dim=41, num_shards=2,
            pool_size=2, low_water=1, refill_mode=RefillMode.BACKGROUND,
            dropout_tolerance=2, privacy=2, seed=0,
        )
        with AggregationService(cfg, gf=gf) as svc:
            shard = svc.cohorts[0].session.shard_sessions[0]
            inner_refill, raised = shard.refill, []

            def refill_failing_once(rounds=None):
                if not raised:
                    raised.append(True)
                    raise AssertionError("kernel bound violated")
                return inner_refill(rounds)

            shard.refill = refill_failing_once
            before = svc.status()["refiller"]
            assert before["failures"] == 0 and before["last_error"] is None
            shard._pool.clear()  # low water: the worker's turn
            svc.refiller.notify()
            assert svc.refiller.wait_until_idle(timeout=30.0)
            report = svc.status()["refiller"]
            assert report["running"] is True
            assert report["failures"] == 1
            assert report["last_error"] == "AssertionError: kernel bound violated"
            assert report["refills"] == before["refills"] + 1
            assert shard.pool_level == 2

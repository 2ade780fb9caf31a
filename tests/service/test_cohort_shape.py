"""Every cohort is one shape, and the service keeps one list of them.

What the service builds for a :class:`CohortSpec` is always a
:class:`ShardedSession` over pooled LightSecAgg shards — one shard or
many, inline or behind any frame lane — so nothing above the session
asks what it got.  Pinned here:

* the shape itself, on every lane × shard count, with integer
  pool fields in ``status()`` and an idempotent, leak-free ``close``;
* that the coordinator in front of a one-shard inline cohort changes
  nothing observable: a scripted sequence through the cohort is
  bit-identical to the bare session built from the same
  :class:`ShardSessionSpec`;
* ``run_synthetic``'s sweep over the one registry: closed cohorts are
  skipped, every open one takes a round over its live members, and a
  cohort closed mid-sweep keeps its result without taking the sweep
  down;
* a spec the build rejects *after* its transport exists leaves nothing
  behind (it used to leak the transport's workers).
"""

import glob
import json
import multiprocessing
import threading
import time
import urllib.error
import urllib.request
from dataclasses import asdict

import numpy as np
import pytest

from repro.exceptions import QuantizationError
from repro.service import (
    AggregationService,
    CohortSpec,
    RefillMode,
    RoundPhase,
    ServiceConfig,
    ShardedSession,
    ShardSessionSpec,
    ShardWorkerServer,
    TransportKind,
)
from repro.service.api import ControlPlane, ControlPlaneServer
from repro.wire.shm import SEGMENT_PREFIX

N, DIM = 6, 48
LANES = ("inline", "process", "framed", "socket")


@pytest.fixture
def worker():
    server = ShardWorkerServer().start()
    yield server
    server.stop()


def spec(lane, worker, **overrides):
    fields = dict(
        num_users=N, model_dim=DIM, pool_size=3, low_water=1,
        transport=TransportKind(lane),
        connect=(worker.address,) if lane == "socket" else None,
    )
    fields.update(overrides)
    return CohortSpec(**fields)


def shm_entries():
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


def shard_workers():
    return [
        p.name for p in multiprocessing.active_children()
        if p.name.startswith("shard-worker-")
    ]


def pinned_slots(worker):
    """Shard sessions the worker host holds, over all its connections."""
    with worker._lock:
        return sum(len(c.sessions) for c in worker._connections)


def wait_for(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline and not predicate():
        time.sleep(0.01)
    return predicate()


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("lane", LANES)
def test_every_cohort_is_a_sharded_session(gf, worker, lane_name, lane,
                                           shards):
    lane = lane_name(lane)
    segments_before = shm_entries()
    config = ServiceConfig(refill_mode=RefillMode.BACKGROUND)
    svc = AggregationService(config, gf=gf, build_cohorts=False).start()
    try:
        cohort = svc.add_cohort(spec(lane, worker, num_shards=shards))
        assert type(cohort.session) is ShardedSession
        assert cohort.session.plan.num_shards == shards
        assert cohort.transport is cohort.session.transport
        assert cohort.transport.kind == lane
        status = cohort.status()
        assert type(status["pool_level"]) is int
        assert status["pool_level"] == status["pool_size"] == 3  # warmed
        assert svc.status()["cohorts"] == [status]

        cohort.close()
        cohort.close()
        assert cohort.phase is RoundPhase.CLOSED
        assert cohort.session.closed and cohort.transport.closed
        assert type(cohort.status()["pool_level"]) is int
    finally:
        svc.stop()
    assert shard_workers() == []
    assert shm_entries() == segments_before
    assert wait_for(lambda: worker.connection_count == 0)


class TestOneShardInlineIsTheBareSession:
    """The ``sync_refill_bound`` shape: N=64, d=8192, one inline shard,
    pool 4, sync refill — the one path that used to skip the
    coordinator."""

    USERS, WIDTH, POOL, GUARANTEE = 64, 8192, 4, 8

    def test_scripted_sequence_is_bit_identical(self, gf):
        config = ServiceConfig(
            num_users=self.USERS, model_dim=self.WIDTH, pool_size=self.POOL,
            privacy=self.GUARANTEE, dropout_tolerance=self.GUARANTEE,
            refill_mode=RefillMode.SYNC, seed=5,
        )
        bare = ShardSessionSpec(
            protocol="lightsecagg", num_users=self.USERS,
            shard_dim=self.WIDTH, privacy=self.GUARANTEE,
            dropout_tolerance=self.GUARANTEE, pool_size=self.POOL,
            low_water=0, seed=(5, 0, 0), field_modulus=gf.q,
        ).build(gf)
        rng = np.random.default_rng(17)
        with AggregationService(config, gf=gf) as svc:
            cohort = svc.cohorts[0]
            bare.refill()  # what start() does to the cohort's pool
            levels = []
            # Rounds 1-4 drain the warm pool; round 5 finds it empty and
            # refills on the online path (the forced miss); 6-7 hit again.
            for round_index in range(7):
                updates = {
                    i: gf.random(self.WIDTH, rng) for i in range(self.USERS)
                }
                dropouts = set(
                    rng.choice(
                        self.USERS, size=round_index % (self.GUARANTEE + 1),
                        replace=False,
                    ).tolist()
                )
                got = cohort.run_round(updates, set(dropouts))
                want = bare.run_round(updates, set(dropouts))
                assert got.survivors == want.survivors
                assert np.array_equal(got.aggregate, want.aggregate)
                for phase in (None, "upload", "recovery"):
                    assert got.transcript.elements(
                        phase=phase
                    ) == want.transcript.elements(phase=phase)
                assert cohort.session.pool_level == bare.pool_level
                levels.append(cohort.status()["pool_level"])
            assert levels == [3, 2, 1, 0, 3, 2, 1]
            got_stats = asdict(cohort.session.stats)
            want_stats = asdict(bare.stats)
            for stats in (got_stats, want_stats):
                stats.pop("refill_seconds")  # wall clock
            assert got_stats == want_stats
            assert cohort.stalls == bare.stats.pool_misses == 1
            # The coordinator's own footprint, now that this shape has
            # one: its rounds are counted on the inline lane.
            inline = svc.metrics.snapshot()["transports"]["inline"]
            assert inline["rounds"] == 7 and inline["shard_stalls"] == 1
            trace = svc.traces(limit=1)[0]
            assert trace.root.tags["transport"] == "inline"
            assert {"shard_compute[0]", "reconstruct"} <= {
                child.name for child in trace.root.children
            }


class TestSweepsOverTheOneRegistry:
    def test_closed_cohorts_are_skipped_and_every_open_one_swept(
        self, gf, worker
    ):
        svc = AggregationService(
            ServiceConfig(), gf=gf, build_cohorts=False
        ).start()
        try:
            a = svc.add_cohort(spec("inline", worker))
            closed = svc.add_cohort(spec("inline", worker))
            churned = svc.add_cohort(spec("inline", worker, buffer_size=4))
            closed.close()
            churned.join_member()
            churned.leave_member(0)
            sweeps = svc.run_synthetic(rounds=2)
            assert [sorted(sweep) for sweep in sweeps] == [[0, 2], [0, 2]]
            assert (a.rounds, closed.rounds, churned.rounds) == (2, 0, 2)
            # the churned cohort's round covers its live members
            members = list(range(1, N + 1))
            assert churned.engine.members() == members
            for sweep in sweeps:
                assert set(sweep[2].survivors) <= set(members)
            assert [c["cohort_id"] for c in svc.status()["cohorts"]] == [
                0, 1, 2,
            ]
        finally:
            svc.stop()

    def test_close_mid_sweep_keeps_result_and_neighbours(self, gf, worker):
        """A cohort removed while its sweep round is in flight: the round
        completes (close/round race contract) and the sweep goes on to
        the neighbours instead of dying."""
        svc = AggregationService(
            ServiceConfig(), gf=gf, build_cohorts=False
        ).start()
        try:
            a = svc.add_cohort(spec("inline", worker))
            b = svc.add_cohort(spec("inline", worker))
            started, release = threading.Event(), threading.Event()
            original = a.session.run_round

            def gated(*args, **kwargs):
                result = original(*args, **kwargs)
                started.set()  # done in the session, not yet in the cohort
                assert release.wait(timeout=30)
                return result

            a.session.run_round = gated
            sweeps = []
            sweeper = threading.Thread(
                target=lambda: sweeps.extend(svc.run_synthetic(rounds=2))
            )
            sweeper.start()
            assert started.wait(timeout=30)
            svc.remove_cohort(a.cohort_id)
            assert a.phase is RoundPhase.CLOSED
            release.set()
            sweeper.join(timeout=30)
            assert not sweeper.is_alive()
            # a's in-flight round kept its result; b's ran too, and the
            # second sweep no longer lists a.
            assert [sorted(sweep) for sweep in sweeps] == [[0, 1], [1]]
            assert [c.cohort_id for c in svc.cohorts] == [b.cohort_id]
        finally:
            svc.stop()


class TestRejectedBuildLeavesNothingBehind:
    """``quant_clip=1e6`` passes the spec's own range checks and is
    refused by the engine's quantization budget, which runs after the
    transport was built and registered: the failed build releases
    both."""

    @staticmethod
    def rejected(lane, worker):
        return spec(
            lane, worker, num_shards=2, model_dim=64,
            quant_clip=1e6,
        )

    @pytest.mark.parametrize("lane", ["process", "framed", "socket"])
    @pytest.mark.parametrize(
        "refill_mode", [RefillMode.SYNC, RefillMode.BACKGROUND]
    )
    def test_no_worker_segment_slot_or_watch_entry(
        self, gf, worker, lane_name, lane, refill_mode
    ):
        lane = lane_name(lane)
        segments_before = shm_entries()
        svc = AggregationService(
            ServiceConfig(refill_mode=refill_mode), gf=gf,
            build_cohorts=False,
        ).start()
        try:
            keeper = svc.add_cohort(spec(lane, worker))
            connections = worker.connection_count
            slots = pinned_slots(worker)
            workers = sorted(shard_workers())
            segments = shm_entries()
            with pytest.raises(QuantizationError):
                svc.add_cohort(self.rejected(lane, worker))
            assert svc.cohorts == [keeper]
            assert sorted(shard_workers()) == workers
            assert shm_entries() == segments
            assert worker.connection_count == connections
            assert wait_for(lambda: pinned_slots(worker) == slots)
            if svc.refiller is not None:
                assert {
                    cohort_id for _, cohort_id, _ in svc.refiller._sessions
                } == {keeper.cohort_id}
        finally:
            svc.stop()
        assert shard_workers() == []
        assert shm_entries() == segments_before
        assert wait_for(lambda: worker.connection_count == 0)

    def test_over_http_it_is_a_400_and_the_daemon_drains_clean(
        self, gf, worker
    ):
        service = AggregationService(
            ServiceConfig(), gf=gf, build_cohorts=False
        ).start()
        control = ControlPlane(service)
        with ControlPlaneServer(control) as server:
            body = self.rejected("process", worker).describe()
            request = urllib.request.Request(
                f"http://{server.address}/cohorts",
                data=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(request, timeout=30)
            assert exc.value.code == 400
            error = json.loads(exc.value.read())["error"]
            assert error["type"] == "invalid-spec"
            assert service.cohorts == [] and shard_workers() == []
            summary = control.drain()
        assert summary["drained"] and summary["cohorts_closed"] == 0
        assert shard_workers() == []

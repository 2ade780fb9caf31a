"""Shard transports: inline/process parity, worker lifecycle, refill overlap.

The acceptance criterion pinned here: rounds driven through
``ProcessPoolTransport`` (sessions in worker processes, spoken to in wire
frames) are bit-identical to ``InlineTransport`` (direct calls) across
mixed dropout patterns — same aggregates, survivors, transcripts, and
pool dynamics — and workers shut down cleanly with a refill in flight.
"""

import contextlib
import glob
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.exceptions import DropoutError, ProtocolError, TransportError
from repro.field import DEFAULT_PRIME, FiniteField
from repro.service import (
    AggregationService,
    BackgroundRefiller,
    InlineTransport,
    ProcessPoolTransport,
    RefillMode,
    ServiceConfig,
    ServiceMetrics,
    ShardPlan,
    ShardSessionSpec,
    ShardWorkerServer,
    ShardedSession,
    TransportKind,
    build_transport,
)
from repro.service.socket_transport import _SocketClient

N, DIM, SHARDS = 8, 37, 3


def make_specs(shards=SHARDS, dim=DIM, pool_size=3, low_water=1,
               protocol="lightsecagg", seed=0):
    plan = ShardPlan(dim, shards)
    return plan, [
        ShardSessionSpec(
            protocol=protocol,
            num_users=N,
            shard_dim=plan.widths[s],
            privacy=2,
            dropout_tolerance=2,
            pool_size=pool_size,
            low_water=low_water,
            seed=(seed, 0, s),
        )
        for s in range(shards)
    ]


def mixed_dropout_rounds(gf, rounds=6, seed=11):
    """A deterministic stream of (updates, dropouts)."""
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        dropouts = set(
            rng.choice(N, size=int(rng.integers(0, 3)), replace=False).tolist()
        )
        yield updates, dropouts


@pytest.fixture
def process_session():
    plan, specs = make_specs()
    transport = ProcessPoolTransport(specs)
    session = ShardedSession(plan, transport=transport)
    yield session, transport
    transport.close()


class TestProcessInlineBitIdentity:
    def test_rounds_bit_identical_across_mixed_dropouts(self, gf,
                                                        process_session):
        """Aggregate, survivors, transcript, and pool dynamics all match."""
        process, _ = process_session
        plan, specs = make_specs()
        inline = ShardedSession(
            plan, transport=InlineTransport.from_specs(specs, gf=gf)
        )
        for updates, dropouts in mixed_dropout_rounds(gf):
            got = process.run_round(updates, set(dropouts))
            want = inline.run_round(updates, set(dropouts))
            assert got.survivors == want.survivors
            assert np.array_equal(got.aggregate, want.aggregate)
            assert len(got.transcript) == len(want.transcript)
            for phase in ("offline", "upload", "recovery"):
                assert got.transcript.elements(
                    phase=phase
                ) == want.transcript.elements(phase=phase)
            assert got.metrics.server_decode_ops == want.metrics.server_decode_ops
            assert got.metrics.extra == want.metrics.extra
        for counter in ("rounds", "refills", "pool_hits", "pool_misses",
                        "precomputed_rounds"):
            assert getattr(process.stats, counter) == getattr(
                inline.stats, counter
            ), counter  # refill_seconds is wall-clock, not a count
        assert process.pool_level == inline.pool_level
        inline.close()

    def test_fewer_workers_than_shards_same_results(self, gf):
        plan, specs = make_specs()
        transport = ProcessPoolTransport(specs, num_workers=2)
        assert transport.num_workers == 2
        multi = ShardedSession(plan, transport=transport)
        inline = ShardedSession(
            plan, transport=InlineTransport.from_specs(specs, gf=gf)
        )
        try:
            for updates, dropouts in mixed_dropout_rounds(gf, rounds=3):
                got = multi.run_round(updates, set(dropouts))
                want = inline.run_round(updates, set(dropouts))
                assert got.survivors == want.survivors
                assert np.array_equal(got.aggregate, want.aggregate)
        finally:
            transport.close()
            inline.close()

    def test_service_level_parity_all_backends(self, gf):
        """The full service stack: inline/process x sync/background."""
        outputs = {}
        for kind in (TransportKind.INLINE, TransportKind.PROCESS):
            for mode in (RefillMode.SYNC, RefillMode.BACKGROUND):
                cfg = ServiceConfig(
                    num_cohorts=1,
                    num_users=N,
                    model_dim=DIM,
                    num_shards=2,
                    pool_size=3,
                    low_water=0 if mode is RefillMode.SYNC else 1,
                    refill_mode=mode,
                    dropout_tolerance=2,
                    privacy=2,
                    transport=kind,
                    seed=5,
                )
                with AggregationService(cfg, gf=gf) as svc:
                    outputs[(kind, mode)] = svc.run_synthetic(
                        rounds=4,
                        dropout_rate=0.2,
                        rng=np.random.default_rng(9),
                    )
        base = outputs[(TransportKind.INLINE, RefillMode.SYNC)]
        for key, results in outputs.items():
            for sweep, base_sweep in zip(results, base):
                assert sweep[0].survivors == base_sweep[0].survivors, key
                assert np.array_equal(
                    sweep[0].aggregate, base_sweep[0].aggregate
                ), key


class TestProcessWorkerLifecycle:
    def test_clean_shutdown_with_refill_in_flight(self):
        """Close lands while a worker is mid-refill: the refill completes,
        every worker acknowledges shutdown and exits with code 0."""
        plan, specs = make_specs(pool_size=6)
        transport = ProcessPoolTransport(specs)
        handles = transport.shard_handles
        tickets = [h.refill_begin() for h in handles]  # refills in flight
        transport.close()
        assert transport.closed
        for client in transport._clients:
            assert not client.process.is_alive()
            assert client.process.exitcode == 0
        # The begun refills were joined by nobody; the workers still
        # completed them before acknowledging shutdown (exitcode 0 above
        # proves the serve loop exited through the Shutdown branch).
        assert len(tickets) == len(handles)

    def test_refill_join_after_close_raises_protocol_error(self):
        plan, specs = make_specs(shards=1)
        transport = ProcessPoolTransport(specs)
        transport.close()
        with pytest.raises(ProtocolError, match="closed"):
            transport.shard_handles[0].refill()
        with pytest.raises(ProtocolError, match="closed"):
            ShardedSession(plan, transport=transport).run_round({}, set())

    def test_close_is_idempotent(self):
        _, specs = make_specs(shards=1)
        transport = ProcessPoolTransport(specs)
        transport.close()
        transport.close()
        assert transport.workers_alive == 0

    def test_multi_shard_worker_with_frames_larger_than_pipe_buffer(self, gf):
        """Deadlock regression: scattering several shard requests to ONE
        worker, each frame far larger than the OS pipe buffer (~64KB).
        Without an always-draining receiver on the coordinator side, the
        worker blocks flushing shard 0's result while the coordinator
        blocks writing shard 1's request, and the round never completes."""
        dim = 2**17  # ~1MB of update payload per shard request
        plan = ShardPlan(dim, 2)
        specs = [
            ShardSessionSpec(
                protocol="lightsecagg", num_users=N, shard_dim=plan.widths[s],
                privacy=2, dropout_tolerance=2, pool_size=1, low_water=0,
                seed=(0, 0, s),
            )
            for s in range(2)
        ]
        transport = ProcessPoolTransport(specs, num_workers=1)
        session = ShardedSession(plan, transport=transport)
        try:
            rng = np.random.default_rng(0)
            updates = {i: gf.random(dim, rng) for i in range(N)}
            result = session.run_round(updates, {1})
            from repro.protocols import NaiveAggregation

            expected = NaiveAggregation(gf, N, dim).expected_aggregate(
                updates, result.survivors
            )
            assert np.array_equal(result.aggregate, expected)
        finally:
            transport.close()

    def test_round_error_propagates_and_worker_stays_usable(self, gf):
        plan, specs = make_specs(shards=2)
        transport = ProcessPoolTransport(specs)
        session = ShardedSession(plan, transport=transport)
        try:
            rng = np.random.default_rng(0)
            updates = {i: gf.random(DIM, rng) for i in range(N)}
            # Dropping all but one user leaves survivors < U: the worker's
            # DropoutError crosses the wire and re-raises as itself.
            with pytest.raises(DropoutError, match="survivors"):
                session.run_round(updates, set(range(N - 1)))
            # Both pipes were drained; the next (valid) round still works.
            result = session.run_round(updates, {1})
            assert result.survivors == [i for i in range(N) if i != 1]
        finally:
            transport.close()


class TestProcessHandleSurface:
    def test_cached_pool_state_tracks_rounds_and_refills(self, gf,
                                                         process_session):
        session, transport = process_session
        handle = transport.shard_handles[0]
        assert handle.pool_level == 0
        assert handle.needs_refill  # empty pool, low_water 1
        session.refill()
        assert handle.pool_level == 3
        assert not handle.needs_refill
        rng = np.random.default_rng(1)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        session.run_round(updates, set())
        session.run_round(updates, set())
        assert handle.pool_level == 1  # refreshed by round-result frames
        assert handle.needs_refill
        assert handle.stats.pool_hits == 2

    def test_background_refiller_drives_process_handles(self, gf,
                                                        process_session):
        """The refiller's scatter/gather path keeps worker pools topped."""
        session, transport = process_session
        session.refill()
        refiller = BackgroundRefiller()
        for handle in transport.shard_handles:
            refiller.register(handle, cohort_id=0)
        with refiller:
            rng = np.random.default_rng(2)
            updates = {i: gf.random(DIM, rng) for i in range(N)}
            for _ in range(4):
                session.run_round(updates, set())
                refiller.notify()
                assert refiller.wait_until_idle(timeout=10.0)
            assert session.pool_level >= 2  # topped back above low water
        assert refiller.refills > 0


class TestTransportConstruction:
    def test_build_transport_dispatch_and_unknown_kind(self, gf):
        _, specs = make_specs(shards=1)
        inline = build_transport("inline", specs, gf=gf)
        assert isinstance(inline, InlineTransport) and inline.kind == "inline"
        inline.close()
        with pytest.raises(ProtocolError, match="unknown transport"):
            build_transport("carrier-pigeon", specs)

    def test_spec_build_matches_direct_construction(self, gf):
        _, specs = make_specs(shards=1)
        built = specs[0].build(gf)
        assert built.pool_size == specs[0].pool_size
        assert built.low_water == specs[0].low_water
        assert built.protocol.model_dim == specs[0].shard_dim
        assert built.gf is gf
        default_field = specs[0].build()
        assert default_field.gf.q == DEFAULT_PRIME

    def test_transport_shard_count_must_match_plan(self):
        plan, specs = make_specs(shards=2)
        inline = InlineTransport.from_specs(specs)
        with pytest.raises(ProtocolError, match="transport drives"):
            ShardedSession(ShardPlan(DIM, 3), transport=inline)
        inline.close()

    def test_invalid_worker_count_rejected(self):
        _, specs = make_specs(shards=1)
        with pytest.raises(ProtocolError, match=">= 1 worker"):
            ProcessPoolTransport(specs, num_workers=0)


# ----------------------------------------------------------------------
# every lane through one function: conformance, validation, worker loss
# ----------------------------------------------------------------------
LANES = ("inline", "process", "shm", "socket")
REMOTE_LANES = LANES[1:]


@contextlib.contextmanager
def open_lane(lane, specs, gf, workers=None):
    """Build ``specs`` on ``lane`` (socket: in-process worker hosts, one
    per worker); yields ``(transport, servers)`` and closes both."""
    servers = [
        ShardWorkerServer().start()
        for _ in range((workers or 1) if lane == "socket" else 0)
    ]
    transport = None
    try:
        transport = build_transport(
            lane, specs, gf=gf,
            num_workers=workers if lane in ("process", "shm") else None,
            connect=[s.address for s in servers] or None,
        )
        yield transport, servers
    finally:
        if transport is not None:
            transport.close()
        for server in servers:
            server.stop()


def stats_counters(handle):
    stats = handle.stats  # refill_seconds is wall-clock, not a count
    return (stats.rounds, stats.refills, stats.pool_hits, stats.pool_misses,
            stats.precomputed_rounds)


def run_script(lane, gf):
    """The scripted sequence every lane must serve identically: round
    with dropouts -> below-U round (typed error) -> round -> two-phase
    refill -> close.  Returns what a caller can observe."""
    plan, specs = make_specs(shards=2)
    rng = np.random.default_rng(21)
    updates = {i: gf.random(DIM, rng) for i in range(N)}
    with open_lane(lane, specs, gf) as (transport, _):
        session = ShardedSession(plan, transport=transport)
        first = session.run_round(updates, {1, 4})
        with pytest.raises(DropoutError, match="survivors"):
            session.run_round(updates, set(range(N - 1)))
        second = session.run_round(updates, {2})  # usable after the error
        added = []
        for handle in transport.shard_handles:
            if hasattr(handle, "refill_begin"):
                added.append(handle.refill_join(handle.refill_begin()))
            else:
                added.append(handle.refill())
        observed = {
            "aggregates": [first.aggregate, second.aggregate],
            "survivors": [first.survivors, second.survivors],
            "refilled": added,
            "pool_levels": [h.pool_level for h in transport.shard_handles],
            "shard_stats": [
                stats_counters(h) for h in transport.shard_handles
            ],
            "session_stats": stats_counters(session),
        }
    assert transport.closed
    return observed


class TestLaneConformance:
    @pytest.mark.parametrize("lane", REMOTE_LANES)
    def test_scripted_sequence_matches_inline(self, gf, lane):
        want = run_script("inline", gf)
        got = run_script(lane, gf)
        for a, b in zip(got["aggregates"], want["aggregates"]):
            assert np.array_equal(a, b)
        for key in ("survivors", "refilled", "pool_levels", "shard_stats",
                    "session_stats"):
            assert got[key] == want[key], key

    @pytest.mark.parametrize("lane", LANES)
    def test_short_update_list_rejected(self, gf, lane):
        """A per-shard list shorter than the shard count is a caller bug
        on every lane — never a silently narrower round."""
        plan, specs = make_specs(shards=2, protocol="lightsecagg-buffered")
        rng = np.random.default_rng(0)
        updates = {i: gf.random(plan.widths[0], rng) for i in range(N)}
        with open_lane(lane, specs, gf) as (transport, _):
            with pytest.raises(ProtocolError, match="expected 2 shard"):
                transport.aggregate_all(
                    np.ones(N, dtype=np.uint64), [list(updates.values())],
                    set(),
                )
            assert all(stats_counters(h)[0] == 0
                       for h in transport.shard_handles)  # nothing ran


def leftovers(threads_before):
    return {
        "threads": [
            t.name for t in threading.enumerate() if t not in threads_before
        ],
        "children": multiprocessing.active_children(),
        "segments": glob.glob("/dev/shm/repro-shm-*"),
    }


class TestWorkerLossMidOperation:
    @pytest.mark.parametrize("lane", REMOTE_LANES)
    def test_killed_last_worker_strands_no_reply(self, gf, lane):
        """Kill the worker hosting the LAST shard: the next round and the
        next drain fail typed, nothing the healthy shard answered is left
        in its client's response table, and that shard still serves."""
        threads_before = set(threading.enumerate())
        plan, specs = make_specs(shards=2, protocol="lightsecagg-buffered")
        rng = np.random.default_rng(5)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        with open_lane(lane, specs, gf, workers=2) as (transport, servers):
            assert transport.num_workers == 2
            clients = list(transport._clients)
            session = ShardedSession(plan, transport=transport)
            session.run_round(updates, {1})
            if lane == "socket":
                servers[-1].stop()  # abrupt by design: models a kill
            else:
                victim = transport._clients[-1].process
                victim.kill()
                victim.join(timeout=10.0)
                assert not victim.is_alive()

            with pytest.raises(TransportError):
                session.run_round(updates, {1})
            with pytest.raises(TransportError):
                session.drain(
                    np.ones(3, dtype=np.uint64),
                    np.stack([updates[i] for i in range(3)]),
                )
            healthy = transport.shard_handles[0]
            assert healthy.refill(0) == 0  # still serves
            assert healthy.stats.rounds >= 1
            # Every reply the two failed operations drew from shard 0
            # arrives and is routed away; a stranded one never clears.
            survivor = transport._clients[0]
            deadline = time.monotonic() + 10.0
            while survivor._responses or survivor._outstanding:
                assert time.monotonic() < deadline, (
                    survivor._responses, survivor._outstanding
                )
                time.sleep(0.01)
            assert transport.workers_alive == 1
        deadline = time.monotonic() + 10.0
        while any(leftovers(threads_before).values()):
            assert time.monotonic() < deadline, leftovers(threads_before)
            time.sleep(0.02)
        assert all(c._sock is None for c in clients)


def wait_for_no_leftovers(threads_before, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while any(leftovers(threads_before).values()):
        assert time.monotonic() < deadline, leftovers(threads_before)
        time.sleep(0.02)


def wait_until_stopped(pid, timeout_s=10.0):
    """SIGSTOP takes effect asynchronously: until every thread of ``pid``
    reads as stopped in /proc, the worker may still answer a request."""
    def states():
        out = []
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/stat") as fh:
                out.append(fh.read().rsplit(")", 1)[1].split()[0])
        return out

    deadline = time.monotonic() + timeout_s
    while not all(state in ("T", "t") for state in states()):
        assert time.monotonic() < deadline, states()
        time.sleep(0.001)


LOCAL_LANES = ("process", "shm")


class TestLocalWorkerSupervision:
    """Spawned hosts are supervised like TCP ones, and a dead one is
    final: there is no address to redial and no heartbeat to wait for."""

    @pytest.mark.parametrize("lane", LOCAL_LANES)
    def test_frozen_worker_fails_the_round_typed(self, gf, lane,
                                                 monkeypatch):
        """SIGSTOP the worker hosting the last shard: the heartbeat turns
        the silence into a TransportError, and close() still reaps the
        frozen child, its threads and the lane's segment."""
        monkeypatch.setattr(_SocketClient, "HEARTBEAT_INTERVAL_S", 0.1)
        monkeypatch.setattr(_SocketClient, "HEARTBEAT_TIMEOUT_S", 1.0)
        threads_before = set(threading.enumerate())
        plan, specs = make_specs(shards=2)
        rng = np.random.default_rng(7)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        victim = None
        try:
            with open_lane(lane, specs, gf, workers=2) as (transport, _):
                session = ShardedSession(plan, transport=transport)
                session.run_round(updates, {1})
                victim = transport._clients[-1].process
                os.kill(victim.pid, signal.SIGSTOP)
                wait_until_stopped(victim.pid)
                started = time.monotonic()
                with pytest.raises(TransportError):
                    session.run_round(updates, {1})
                assert (time.monotonic() - started
                        < _SocketClient.HEARTBEAT_TIMEOUT_S + 5)
            assert not victim.is_alive()
            wait_for_no_leftovers(threads_before)
        finally:
            if victim is not None and victim.is_alive():
                os.kill(victim.pid, signal.SIGCONT)
                victim.kill()
                victim.join(timeout=10.0)

    @pytest.mark.parametrize("lane", LOCAL_LANES)
    def test_killed_worker_fails_requests_at_once(self, gf, lane):
        """No reconnect is attempted and no heartbeat awaited: every
        request after the kill fails typed, naming the dead worker."""
        plan, specs = make_specs(shards=2)
        rng = np.random.default_rng(8)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        metrics = ServiceMetrics()
        transport = build_transport(
            lane, specs, gf=gf, num_workers=2, metrics=metrics
        )
        try:
            session = ShardedSession(plan, transport=transport)
            session.run_round(updates, {1})
            victim = transport._clients[-1].process
            victim.kill()
            victim.join(timeout=10.0)
            for expected in (victim.name, f"worker process {victim.name}"):
                started = time.monotonic()
                with pytest.raises(TransportError, match=expected):
                    session.run_round(updates, {1})
                assert (time.monotonic() - started
                        < _SocketClient.HEARTBEAT_INTERVAL_S)
            assert metrics.snapshot()["transports"][lane]["reconnects"] == 0
        finally:
            transport.close()

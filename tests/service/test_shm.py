"""The process lane's shared memory: segment hygiene, payload routing,
and the framed fallback.

The lane's contract, pinned here: vector payloads move through a
coordinator-owned ``/dev/shm`` segment while the socketpairs carry only
references, and NO segment outlives the transport — not after N clean
rounds, and not after a worker is killed mid-round.  Where ``/dev/shm``
cannot hold the segment, every request rides the frame instead, bit for
bit the same.  Plus the unit surface of :class:`SegmentArena` /
:class:`ShmRegistry`: pages reserved at creation, the closed namespace,
bounds checks, and idempotent teardown the lane relies on.
"""

import errno
import glob
import multiprocessing
import os
from multiprocessing import resource_tracker, shared_memory

import numpy as np
import pytest

from repro.exceptions import TransportError, WireError
from repro.field import FiniteField
from repro.service import (
    ProcessPoolTransport,
    ServiceMetrics,
    ShardPlan,
    ShardSessionSpec,
    ShardedSession,
    build_transport,
)
from repro.wire.format import ShmArrayRef
from repro.wire.shm import SEGMENT_PREFIX, SegmentArena, ShmRegistry

N, DIM, SHARDS = 8, 37, 2


def make_specs(shards=SHARDS, dim=DIM, seed=9):
    plan = ShardPlan(dim, shards)
    return plan, [
        ShardSessionSpec(
            protocol="lightsecagg",
            num_users=N,
            shard_dim=plan.widths[s],
            privacy=2,
            dropout_tolerance=2,
            pool_size=3,
            low_water=0,
            seed=(seed, 0, s),
        )
        for s in range(shards)
    ]


def dev_shm_entries():
    """``/dev/shm`` files in our namespace, as the OS sees them."""
    return sorted(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


def created_segments():
    """Segments this process created and has not unlinked, by the name
    :class:`SegmentArena` gives them: prefix, then the creator's pid."""
    pattern = f"/dev/shm/{SEGMENT_PREFIX}{os.getpid():x}-*"
    return sorted(os.path.basename(path) for path in glob.glob(pattern))


def drive(gf, kind, metrics=None):
    """Three rounds, a join, then a full-buffer drain on ``kind``.

    Returns the ``(aggregate bytes, survivors)`` of each operation and
    the request ids still awaited or unrouted on any link just before
    close (none, on a healthy transport).
    """
    plan, specs = make_specs()
    transport = build_transport(kind, specs, gf=gf, metrics=metrics)
    session = ShardedSession(plan, transport=transport)
    rng = np.random.default_rng(3)
    try:
        results = [
            session.run_round(
                {i: gf.random(DIM, rng) for i in range(N)}, {r % 3}
            )
            for r in range(3)
        ]
        session.rekey(N + 1)
        results.append(session.drain(
            np.arange(1, N + 2, dtype=np.uint64),
            gf.random((N + 1, DIM), rng), {0},
        ))
        stranded = [
            request_id
            for client in getattr(transport, "_clients", ())
            for request_id in [*client._outstanding, *client._responses]
        ]
    finally:
        transport.close()
    outputs = [(r.aggregate.tobytes(), tuple(r.survivors)) for r in results]
    return outputs, stranded


@pytest.fixture(autouse=True)
def no_preexisting_segments():
    """Every test starts and must end with a clean namespace."""
    assert created_segments() == []
    assert dev_shm_entries() == []
    yield


class TestProcessLaneLeaks:
    def test_n_rounds_then_shutdown_leaves_no_segments(self, gf):
        plan, specs = make_specs()
        transport = build_transport("process", specs, gf=gf)
        session = ShardedSession(plan, transport=transport)
        try:
            assert transport.kind == "process"
            assert len(created_segments()) == 1
            assert len(dev_shm_entries()) == 1
            rng = np.random.default_rng(0)
            for r in range(5):
                updates = {i: gf.random(DIM, rng) for i in range(N)}
                result = session.run_round(updates, {r % N})
                assert result.aggregate.shape == (DIM,)
            # Rounds reuse the regions; no new segments appear.
            assert len(created_segments()) == 1
        finally:
            transport.close()
        assert created_segments() == []
        assert dev_shm_entries() == []

    def test_worker_killed_mid_use_still_no_leak(self, gf):
        """SIGKILL a worker, drive a round into the broken pipe, then
        close: the coordinator owns the segment and unlinks it anyway."""
        plan, specs = make_specs()
        transport = build_transport("process", specs, gf=gf)
        session = ShardedSession(plan, transport=transport)
        try:
            rng = np.random.default_rng(1)
            updates = {i: gf.random(DIM, rng) for i in range(N)}
            session.run_round(updates, set())  # workers attached now
            victim = transport._clients[0].process
            victim.kill()
            victim.join(timeout=10.0)
            assert not victim.is_alive()
            with pytest.raises(TransportError):
                session.run_round(updates, set())
        finally:
            transport.close()
        assert created_segments() == []
        assert dev_shm_entries() == []

    def test_close_is_idempotent_and_del_backstop_safe(self, gf):
        _, specs = make_specs(shards=1)
        transport = build_transport("process", specs, gf=gf)
        transport.close()
        transport.close()
        transport.__del__()
        assert created_segments() == []
        assert dev_shm_entries() == []


class TestProcessLanePayloadRouting:
    def test_pipe_carries_references_shm_carries_elements(self, gf):
        """bytes_sent stays far below the staged matrix volume while
        shm_bytes covers it — the reason the lane stages."""
        plan, specs = make_specs()
        metrics = ServiceMetrics()
        transport = build_transport("process", specs, gf=gf, metrics=metrics)
        session = ShardedSession(plan, transport=transport)
        rounds = 3
        try:
            rng = np.random.default_rng(2)
            for _ in range(rounds):
                updates = {i: gf.random(DIM, rng) for i in range(N)}
                session.run_round(updates, set())
        finally:
            transport.close()
        lane = metrics.snapshot()["transports"]["process"]
        assert lane["rounds"] == rounds
        assert lane["shm_fallbacks"] == 0
        # Per round: N users x DIM field words of 4 bytes staged in, plus
        # the DIM-word aggregate staged back.
        staged_floor = rounds * (N * DIM + DIM) * 4
        assert lane["shm_bytes"] >= staged_floor
        assert lane["bytes_sent"] < staged_floor
        assert lane["bytes_sent"] > 0  # the reference frames themselves

    def test_staged_matches_forced_fallback_and_inline_bit_for_bit(
        self, gf, lane_name
    ):
        """Staged, framed for want of an arena, and inline: the same
        rounds and the same drain after a join, bit for bit."""
        outputs = {
            lane: drive(gf, lane_name(lane))[0]
            for lane in ("inline", "process", "framed")  # framed last:
        }  # resolving it refuses arenas for the rest of the test
        assert outputs["process"] == outputs["inline"]
        assert outputs["framed"] == outputs["inline"]

    def test_aggregate_detached_from_reused_region(self, gf):
        """The returned aggregate must survive the next round overwriting
        the response region it was decoded from.  Driven at the transport
        layer: session-level shard concatenation would copy and mask a
        still-aliased array."""
        _, specs = make_specs(shards=1)
        transport = build_transport("process", specs, gf=gf)
        try:
            rng = np.random.default_rng(4)
            updates = {i: gf.random(DIM, rng) for i in range(N)}
            [first] = transport.aggregate_all(
                np.ones(N, dtype=np.uint64), [list(updates.values())], set()
            )
            kept = first.aggregate.copy()
            assert first.aggregate.flags["OWNDATA"]  # not a segment view
            updates2 = {i: gf.random(DIM, rng) for i in range(N)}
            [second] = transport.aggregate_all(
                np.array([0, 0] + [1] * (N - 2), dtype=np.uint64),
                [list(updates2.values())], {0, 1},
            )
            assert not np.array_equal(second.aggregate, kept)
            np.testing.assert_array_equal(first.aggregate, kept)
        finally:
            transport.close()

    def test_num_workers_fewer_than_shards(self, gf):
        plan, specs = make_specs()
        transport = build_transport("process", specs, gf=gf, num_workers=1)
        session = ShardedSession(plan, transport=transport)
        try:
            assert transport.num_workers == 1
            rng = np.random.default_rng(5)
            updates = {i: gf.random(DIM, rng) for i in range(N)}
            result = session.run_round(updates, {2})
            assert result.aggregate.shape == (DIM,)
        finally:
            transport.close()
        assert created_segments() == []


class TestFramedFallback:
    def test_no_arena_frames_every_round_and_leaves_nothing(
        self, gf, lane_name
    ):
        """Arena creation raising OSError (a /dev/shm too small) is the
        one signal: the lane frames every request, counts each round as
        a fallback, and matches the inline oracle bit for bit."""
        want, _ = drive(gf, "inline")
        metrics = ServiceMetrics()
        got, stranded = drive(gf, lane_name("framed"), metrics)
        assert got == want
        assert stranded == []
        lane = metrics.snapshot()["transports"]["process"]
        assert lane["rounds"] == len(want)
        assert lane["shm_bytes"] == 0
        assert lane["shm_fallbacks"] == lane["rounds"]
        assert lane["bytes_sent"] >= 3 * N * DIM * 4
        assert created_segments() == []
        assert dev_shm_entries() == []
        assert not any(
            p.name.startswith("shard-worker-")
            for p in multiprocessing.active_children()
        )


class TestSegmentArena:
    def test_ndarray_round_trip(self):
        arena = SegmentArena(1024)
        try:
            data = np.arange(16, dtype=np.uint64).reshape(4, 4)
            np.copyto(arena.ndarray(64, (4, 4)), data)
            view = arena.ndarray(64, (4, 4))
            np.testing.assert_array_equal(view, data)
            # The view is live: writes land in the segment.
            view[0, 0] = 7
            assert arena.ndarray(64, (4, 4))[0, 0] == 7
        finally:
            arena.close()

    def test_region_overrun_rejected(self):
        arena = SegmentArena(64)
        try:
            with pytest.raises(TransportError, match="overruns"):
                arena.ndarray(32, (8,))  # needs 64B at offset 32
        finally:
            arena.close()

    def test_pages_are_reserved_at_creation(self):
        """tmpfs allocates on first touch; the arena must not, or a
        /dev/shm too small for it surfaces as SIGBUS at a later write
        instead of OSError here."""
        size = 4 << 20
        arena = SegmentArena(size)
        try:
            st = os.stat(f"/dev/shm/{arena.name}")
            assert st.st_blocks * 512 >= size
        finally:
            arena.close()

    def test_failed_reservation_leaves_no_segment(self, monkeypatch):
        def no_space(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "posix_fallocate", no_space)
        with pytest.raises(OSError) as raised:
            SegmentArena(64)
        assert raised.value.errno == errno.ENOSPC
        assert created_segments() == []
        assert dev_shm_entries() == []

    def test_close_unlinks_and_is_idempotent(self):
        arena = SegmentArena(64)
        name = arena.name
        assert name in created_segments()
        arena.close()
        arena.close()
        assert name not in created_segments()
        assert dev_shm_entries() == []
        with pytest.raises(TransportError, match="closed"):
            arena.buf


class TestShmRegistry:
    def test_fresh_registry_attaches_and_reads_the_arena(self):
        """The attach arm, in-process: no add_local, so the registry maps
        the segment by name like a spawned worker does.  Its close()
        detaches and leaves the segment; the creator's close() unlinks."""
        arena = SegmentArena(128)
        registry = ShmRegistry()
        try:
            data = np.array([2, 7, 1, 8], dtype=np.uint64)
            np.copyto(arena.ndarray(16, data.shape), data)
            ref = ShmArrayRef(arena.name, 16, data.shape, data.dtype.str)
            assert registry.ndarray(ref).tolist() == data.tolist()
            registry.close()
            assert dev_shm_entries() == [f"/dev/shm/{arena.name}"]
            assert arena.ndarray(16, data.shape).tolist() == data.tolist()
        finally:
            registry.close()
            arena.close()
        assert created_segments() == []
        assert dev_shm_entries() == []

    def test_attach_leaves_the_tracker_entry_to_the_creator(
        self, monkeypatch
    ):
        """The creator's unlink is the one unregister.  Spawned hosts
        share the coordinator's resource tracker, whose entry for a name
        is one set member: an attacher's unregister landing after a
        sibling's register raised KeyError inside the tracker."""
        unregistered = []
        real = resource_tracker.unregister

        def record(name, rtype):
            unregistered.append(name)
            real(name, rtype)

        monkeypatch.setattr(resource_tracker, "unregister", record)
        arena = SegmentArena(64)
        registry = ShmRegistry()
        try:
            registry.resolve(arena.name)
            assert unregistered == []
        finally:
            registry.close()
            arena.close()
        assert unregistered == ["/" + arena.name]
        assert dev_shm_entries() == []

    def test_oserror_detaching_an_attachment_is_absorbed(self, monkeypatch):
        def fail(self):
            raise OSError(errno.EIO, "injected")

        arena = SegmentArena(64)
        registry = ShmRegistry()
        try:
            registry.resolve(arena.name)
            with monkeypatch.context() as patch:
                patch.setattr(shared_memory.SharedMemory, "close", fail)
                registry.close()
        finally:
            registry.close()
            arena.close()
        assert created_segments() == []
        assert dev_shm_entries() == []

    def test_refuses_names_outside_the_namespace(self):
        registry = ShmRegistry()
        with pytest.raises(WireError, match="refusing to attach"):
            registry.resolve("psm-arbitrary-system-segment")

    def test_missing_segment_is_a_wire_error(self):
        registry = ShmRegistry()
        with pytest.raises(WireError, match="does not exist"):
            registry.resolve(f"{SEGMENT_PREFIX}never-created")

    def test_local_arena_short_circuits_attachment(self):
        arena = SegmentArena(128)
        registry = ShmRegistry()
        try:
            registry.add_local(arena)
            data = np.array([3, 1, 4], dtype=np.uint64)
            np.copyto(arena.ndarray(0, data.shape), data)
            ref = ShmArrayRef(arena.name, 0, data.shape, data.dtype.str)
            np.testing.assert_array_equal(registry.ndarray(ref), data)
        finally:
            registry.close()
            arena.close()
        assert created_segments() == []

    def test_ref_overrunning_segment_rejected(self):
        arena = SegmentArena(64)
        registry = ShmRegistry()
        try:
            registry.add_local(arena)
            ref = ShmArrayRef(name=arena.name, offset=32, shape=(8,))
            with pytest.raises(WireError, match="overruns"):
                registry.ndarray(ref)
        finally:
            registry.close()
            arena.close()

    def test_registry_close_never_unlinks(self):
        """A registry detaching must not destroy the creator's segment."""
        arena = SegmentArena(256)
        registry = ShmRegistry()
        try:
            registry.add_local(arena)
            registry.resolve(arena.name)
            registry.close()
            assert arena.name in created_segments()
            assert len(dev_shm_entries()) == 1
            # Still usable after the registry detached.
            arena.ndarray(0, (4,))[:] = 5
        finally:
            arena.close()
        assert created_segments() == []

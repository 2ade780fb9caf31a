"""Shared-memory lane lifecycle: segment hygiene and payload routing.

The shm transport's contract, pinned here: vector payloads move through
a coordinator-owned ``/dev/shm`` segment while the pipes carry only
references, and NO segment outlives the transport — not after N clean
rounds, and not after a worker is killed mid-round.  Plus the unit
surface of :class:`SegmentArena` / :class:`ShmRegistry`: the closed
namespace, bounds checks, and idempotent teardown the lane relies on.
"""

import glob

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
from repro.wire.shm import (
    SEGMENT_PREFIX,
    SegmentArena,
    ShmRegistry,
    created_segments,
)

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


@pytest.fixture(autouse=True)
def no_preexisting_segments():
    """Every test starts and must end with a clean namespace."""
    assert created_segments() == []
    assert dev_shm_entries() == []
    yield


class TestShmLaneLeaks:
    def test_n_rounds_then_shutdown_leaves_no_segments(self, gf):
        plan, specs = make_specs()
        transport = build_transport("shm", specs, gf=gf)
        session = ShardedSession(plan, transport=transport)
        try:
            assert transport.kind == "shm"
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
        transport = build_transport("shm", specs, gf=gf)
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
        transport = build_transport("shm", specs, gf=gf)
        transport.close()
        transport.close()
        transport.__del__()
        assert created_segments() == []
        assert dev_shm_entries() == []


class TestShmLanePayloadRouting:
    def test_pipe_carries_references_shm_carries_elements(self, gf):
        """bytes_sent stays far below the staged matrix volume while
        shm_bytes covers it — the lane's whole reason to exist."""
        plan, specs = make_specs()
        metrics = ServiceMetrics()
        transport = build_transport("shm", specs, gf=gf, metrics=metrics)
        session = ShardedSession(plan, transport=transport)
        rounds = 3
        try:
            rng = np.random.default_rng(2)
            for _ in range(rounds):
                updates = {i: gf.random(DIM, rng) for i in range(N)}
                session.run_round(updates, set())
        finally:
            transport.close()
        lane = metrics.snapshot()["transports"]["shm"]
        assert lane["rounds"] == rounds
        # Per round: N users x DIM elements x 8 bytes staged in, plus the
        # DIM-element aggregate staged back.
        staged_floor = rounds * (N * DIM + DIM) * 8
        assert lane["shm_bytes"] >= staged_floor
        assert lane["bytes_sent"] < staged_floor
        assert lane["bytes_sent"] > 0  # the reference frames themselves

    def test_shm_lane_matches_process_lane_bit_for_bit(self, gf):
        outputs = {}
        for kind in ("process", "shm"):
            plan, specs = make_specs()
            transport = build_transport(kind, specs, gf=gf)
            session = ShardedSession(plan, transport=transport)
            try:
                rng = np.random.default_rng(3)
                outs = []
                for r in range(4):
                    updates = {i: gf.random(DIM, rng) for i in range(N)}
                    result = session.run_round(updates, {r % 3})
                    outs.append(
                        (result.aggregate.tobytes(), tuple(result.survivors))
                    )
                outputs[kind] = outs
            finally:
                transport.close()
        assert outputs["shm"] == outputs["process"]

    def test_aggregate_detached_from_reused_region(self, gf):
        """The returned aggregate must survive the next round overwriting
        the response region it was decoded from.  Driven at the transport
        layer: session-level shard concatenation would copy and mask a
        still-aliased array."""
        _, specs = make_specs(shards=1)
        transport = build_transport("shm", specs, gf=gf)
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
        transport = build_transport("shm", specs, gf=gf, num_workers=1)
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

    def test_name_outside_namespace_rejected(self):
        with pytest.raises(TransportError, match="namespace"):
            SegmentArena(64, name="psm-stolen")

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

"""One shard request on every lane: the coordinator's dtype rule, and
drains on the process lane's shared-memory staging.

Rounds and drains reach the shards as the same weighted aggregate, so
what the coordinator hands a transport must already be field words:
``uint64`` passes untouched, other integer dtypes are reduced into the
field, and anything else is refused before any shard is contacted.  A
cast to uint64 would turn -5 into ``2**64 - 5`` and truncate floats —
pinned here on every lane for both operations; the ``framed`` column
is the process lane with no shared-memory arena.

The process lane stages every request whose rows fit the region it
sized for the member count at construction, drains included, and frames
the rest: after a join grows the member set, a full-buffer drain rides
the frame, counts as a fallback, and stays bit-identical to inline.
"""

import contextlib

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.service import (
    ServiceMetrics,
    ShardedSession,
    ShardPlan,
    ShardSessionSpec,
    ShardWorkerServer,
    build_transport,
)

N, DIM, SHARDS = 8, 37, 2
LANES = ("inline", "process", "socket", "framed")


def make_specs():
    plan = ShardPlan(DIM, SHARDS)
    return plan, [
        ShardSessionSpec(
            protocol="lightsecagg", num_users=N, shard_dim=plan.widths[s],
            privacy=2, dropout_tolerance=2, pool_size=2, low_water=0,
            seed=(4, 0, s),
        )
        for s in range(SHARDS)
    ]


@contextlib.contextmanager
def open_session(lane, gf, metrics=None):
    """A :class:`ShardedSession` over ``lane``; closes everything."""
    plan, specs = make_specs()
    servers = [ShardWorkerServer().start()] if lane == "socket" else []
    transport = None
    try:
        transport = build_transport(
            lane, specs, gf=gf, metrics=metrics,
            connect=[s.address for s in servers] or None,
        )
        yield ShardedSession(plan, transport=transport)
    finally:
        if transport is not None:
            transport.close()
        for server in servers:
            server.stop()


def field_sum(gf, weights, rows):
    """``sum_b w_b * rows_b mod q`` in Python integers."""
    return [
        sum(int(w) * int(row[c]) for w, row in zip(weights, rows)) % gf.q
        for c in range(DIM)
    ]


def signed_rows(count, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(-1000, 1000, size=(count, DIM), dtype=np.int64)


class TestCoordinatorDtypeRule:
    @pytest.mark.parametrize("lane", LANES)
    def test_negative_int64_updates_reduce_into_the_field(
        self, gf, lane_name, lane
    ):
        rows = signed_rows(N, seed=1)
        weights = [2, 1, 3]
        with open_session(lane_name(lane), gf) as session:
            result = session.run_round(dict(enumerate(rows)), {1})
            unit = [int(i != 1) for i in range(N)]
            assert result.aggregate.tolist() == field_sum(gf, unit, rows)
            drained = session.drain(weights, rows[:3], {1})
            assert drained.aggregate.tolist() == field_sum(
                gf, weights, rows[:3]
            )

    @pytest.mark.parametrize("lane", LANES)
    def test_float_updates_are_refused_before_any_shard_runs(
        self, gf, lane_name, lane
    ):
        rows = signed_rows(N, seed=2).astype(np.float64) + 0.5
        with open_session(lane_name(lane), gf) as session:
            with pytest.raises(ProtocolError, match="is not an integer"):
                session.run_round(dict(enumerate(rows)), set())
            with pytest.raises(ProtocolError, match="is not an integer"):
                session.drain([1, 2], rows[:2], set())
            assert all(
                h.stats.rounds == h.stats.refills == 0
                for h in session.shard_sessions
            )
            assert session.stats.rounds == 0

    @pytest.mark.parametrize("lane", LANES)
    def test_uint64_above_q_matches_inline(self, gf, lane_name, lane):
        """uint64 is passed through untouched: each shard's session
        reduces the non-canonical words, the same on every lane."""
        rows = np.full((N, DIM), (1 << 64) - 1, dtype=np.uint64)
        with open_session(lane_name(lane), gf) as session:
            result = session.run_round(dict(enumerate(rows)), set())
        assert result.aggregate.tolist() == field_sum(gf, [1] * N, rows)

    @pytest.mark.parametrize("lane", LANES)
    def test_non_canonical_drain_words_match_inline(self, gf, lane_name,
                                                    lane):
        """Words at or above q, some past 2**32, in a weighted drain: the
        out-of-process lanes reduce them before narrowing to the wire's
        4-byte word, so none loses its high bits, framed or staged."""
        words = [gf.q, gf.q + 5, (1 << 32) + 7, (1 << 64) - 1]
        rows = np.resize(np.array(words, dtype=np.uint64), (N, DIM))
        weights = np.arange(1, N + 1, dtype=np.uint64)
        with open_session(lane_name(lane), gf) as session:
            result = session.drain(weights, rows, set())
        assert result.aggregate.tolist() == field_sum(gf, weights, rows)


class TestProcessLaneCarriesDrains:
    def test_drains_are_staged_then_framed_after_a_join(
            self, gf, created_segments):
        rng = np.random.default_rng(3)
        weights = np.arange(1, N + 1, dtype=np.uint64)
        updates = gf.random((N, DIM), rng)
        grown = gf.random((N + 1, DIM), rng)
        grown_weights = np.arange(2, N + 3, dtype=np.uint64)
        metrics = ServiceMetrics()
        before = created_segments()
        with open_session("process", gf, metrics) as process, \
                open_session("inline", gf) as inline:
            def lane():
                return metrics.snapshot()["transports"]["process"]

            got = process.drain(weights, updates, {2})
            want = inline.drain(weights, updates, {2})
            assert np.array_equal(got.aggregate, want.aggregate)
            assert got.survivors == want.survivors
            staged = lane()["shm_bytes"]
            assert staged >= N * DIM * 4  # 4-byte field words
            assert lane()["bytes_sent"] < N * DIM * 4
            assert lane()["shm_fallbacks"] == 0

            # A join grows the member set past the staged region: the
            # full-buffer drain rides the frame, bit-identically.
            process.rekey(N + 1)
            inline.rekey(N + 1)
            sent = lane()["bytes_sent"]
            got = process.drain(grown_weights, grown, {0})
            want = inline.drain(grown_weights, grown, {0})
            assert np.array_equal(got.aggregate, want.aggregate)
            assert got.survivors == want.survivors
            assert got.aggregate.tolist() == field_sum(
                gf, grown_weights, grown
            )
            assert lane()["shm_bytes"] == staged
            assert lane()["bytes_sent"] - sent >= (N + 1) * DIM * 4
            assert lane()["shm_fallbacks"] == 1

            # Rows that fit the region are staged again.
            process.drain(weights[:4], updates[:4], set())
            assert lane()["shm_bytes"] > staged
            assert lane()["shm_fallbacks"] == 1
        assert created_segments() == before

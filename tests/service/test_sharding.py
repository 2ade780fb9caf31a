"""Sharded aggregation: bit-identical reassembly and plan semantics."""

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.field import FiniteField
from repro.protocols import LightSecAgg, LSAParams, NaiveAggregation
from repro.service import InlineTransport, ShardedSession, ShardPlan

N, DIM = 8, 37  # deliberately not divisible by the shard counts below


@pytest.fixture
def params():
    return LSAParams.from_guarantees(N, privacy=2, dropout_tolerance=2)


def make_sharded(gf, params, dim, shards, pool_size=3, low_water=0, seed=0):
    plan = ShardPlan(dim, shards)
    sessions = [
        LightSecAgg(gf, params, plan.widths[s]).session(
            pool_size=pool_size,
            low_water=low_water,
            rng=np.random.default_rng([seed, s]),
        )
        for s in range(shards)
    ]
    return ShardedSession(plan, InlineTransport(sessions))


class TestShardPlan:
    def test_even_and_uneven_splits_cover_the_vector(self):
        for dim, shards in [(37, 4), (40, 4), (5, 5), (7, 1)]:
            plan = ShardPlan(dim, shards)
            assert sum(plan.widths) == dim
            assert max(plan.widths) - min(plan.widths) <= 1
            vec = np.arange(dim, dtype=np.uint64)
            assert np.array_equal(plan.gather(plan.scatter(vec)), vec)

    def test_slices_are_contiguous_and_ordered(self):
        plan = ShardPlan(10, 3)
        covered = []
        for s in range(3):
            sl = plan.slice(s)
            covered.extend(range(sl.start, sl.stop))
        assert covered == list(range(10))

    def test_invalid_plans_rejected(self):
        with pytest.raises(ProtocolError):
            ShardPlan(4, 5)  # more shards than coordinates
        with pytest.raises(ProtocolError):
            ShardPlan(4, 0)
        with pytest.raises(ProtocolError):
            ShardPlan(0, 1)

    def test_scatter_validates_shape(self):
        plan = ShardPlan(6, 2)
        with pytest.raises(ProtocolError):
            plan.scatter(np.zeros(5, dtype=np.uint64))
        with pytest.raises(ProtocolError):
            plan.gather([np.zeros(3, dtype=np.uint64)])


class TestShardedBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    def test_matches_single_shard_session_exactly(self, gf, params, shards):
        """The acceptance criterion: sharded == single-shard, bit for bit."""
        single = LightSecAgg(gf, params, DIM).session(
            pool_size=3, rng=np.random.default_rng(99)
        )
        sharded = make_sharded(gf, params, DIM, shards)
        rng = np.random.default_rng(1)
        for r in range(6):
            updates = {i: gf.random(DIM, rng) for i in range(N)}
            dropouts = set(
                rng.choice(N, size=int(rng.integers(0, 3)),
                           replace=False).tolist()
            )
            got = sharded.run_round(updates, set(dropouts), rng)
            want = single.run_round(updates, set(dropouts), rng)
            assert got.survivors == want.survivors, r
            assert np.array_equal(got.aggregate, want.aggregate), r

    def test_transcript_and_metrics_aggregate_across_shards(self, gf, params):
        sharded = make_sharded(gf, params, DIM, 2)
        single = LightSecAgg(gf, params, DIM).session(
            pool_size=3, rng=np.random.default_rng(0)
        )
        rng = np.random.default_rng(3)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        got = sharded.run_round(updates, set(), rng)
        want = single.run_round(updates, set(), rng)
        # Upload traffic covers the full vector once, across all shards.
        assert got.transcript.elements(phase="upload") == N * DIM
        assert want.transcript.elements(phase="upload") == N * DIM
        assert got.metrics.server_decode_ops > 0

    def test_replay_sessions_are_refused(self, gf):
        """Every shard operation is a weighted drain, which the
        non-pooled replay sessions do not have."""
        plan = ShardPlan(DIM, 2)
        sessions = [
            NaiveAggregation(gf, N, w).session() for w in plan.widths
        ]
        with pytest.raises(ProtocolError, match="has no drain"):
            InlineTransport(sessions)


class TestShardedPoolSurface:
    def test_pool_level_is_min_over_shards(self, gf, params):
        sharded = make_sharded(gf, params, DIM, 2, pool_size=4, low_water=2)
        sharded.shard_sessions[0].refill(4)
        sharded.shard_sessions[1].refill(2)
        assert sharded.pool_level == 2
        assert sharded.needs_refill  # shard 1 drained to its low water of 2

    def test_refill_tops_every_shard(self, gf, params):
        sharded = make_sharded(gf, params, DIM, 3, pool_size=3)
        assert sharded.refill() == 3
        assert all(s.pool_level == 3 for s in sharded.shard_sessions)
        assert sharded.refill() == 0

    def test_close_closes_all_shards(self, gf, params):
        sharded = make_sharded(gf, params, DIM, 2)
        with sharded:
            pass
        assert sharded.closed
        assert all(s.closed for s in sharded.shard_sessions)
        rng = np.random.default_rng(0)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        with pytest.raises(ProtocolError):
            sharded.run_round(updates, set(), rng)

    def test_stats_mirror_logical_rounds(self, gf, params):
        sharded = make_sharded(gf, params, DIM, 2, pool_size=2)
        rng = np.random.default_rng(5)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        for _ in range(4):
            sharded.run_round(updates, set(), rng)
        assert sharded.stats.rounds == 4
        assert sharded.stats.pool_hits + sharded.stats.pool_misses == 4
        # Every shard refilled at rounds 0 and 2 (pool of 2, 4 rounds).
        assert sharded.stats.refills == 4

    def test_mismatched_sessions_rejected(self, gf, params):
        plan = ShardPlan(DIM, 2)
        good = LightSecAgg(gf, params, plan.widths[0]).session()
        bad_dim = LightSecAgg(gf, params, plan.widths[1] + 1).session()
        with pytest.raises(ProtocolError, match="plan expects"):
            ShardedSession(plan, InlineTransport([good, bad_dim]))
        with pytest.raises(ProtocolError, match="transport drives"):
            ShardedSession(plan, InlineTransport([good]))

    def test_mixed_fields_rejected(self, gf, params):
        plan = ShardPlan(DIM, 2)
        other = FiniteField(8191)
        sessions = [
            LightSecAgg(field, params, w).session()
            for field, w in zip((gf, other), plan.widths)
        ]
        with pytest.raises(ProtocolError, match="disagree on the field"):
            InlineTransport(sessions)

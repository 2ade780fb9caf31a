"""A round's aggregate outlives the staged region it was read from.

On the process lane a shard's aggregate comes back through the arena
region its next round overwrites, and decoding hands out ``<u4`` views
instead of widened copies.  The gather's concatenation is the copy that
detaches a round's aggregate; pinned here with two consecutive rounds
of different updates.
"""

import numpy as np

from repro.service import (
    ShardedSession,
    ShardPlan,
    ShardSessionSpec,
    build_transport,
)

N, DIM, SHARDS = 6, 30, 2


def test_first_aggregate_survives_the_second_round(gf):
    plan = ShardPlan(DIM, SHARDS)
    specs = [
        ShardSessionSpec(
            protocol="lightsecagg", num_users=N, shard_dim=plan.widths[s],
            privacy=1, dropout_tolerance=1, pool_size=2, low_water=0,
            seed=(12, 0, s),
        )
        for s in range(SHARDS)
    ]
    transport = build_transport("process", specs, gf=gf)
    try:
        assert transport._arena is not None  # the staged arm is the point
        session = ShardedSession(plan, transport=transport)
        rng = np.random.default_rng(13)
        first_updates = {i: gf.random(DIM, rng) for i in range(N)}
        first = session.run_round(first_updates, set())
        kept = first.aggregate.copy()
        assert first.aggregate.dtype == np.uint64
        arena = np.frombuffer(transport._arena.buf, dtype=np.uint8)
        assert not np.shares_memory(first.aggregate, arena)

        second_updates = {i: gf.random(DIM, rng) for i in range(N)}
        second = session.run_round(second_updates, {0})
        assert not np.array_equal(second.aggregate, kept)
        np.testing.assert_array_equal(first.aggregate, kept)
        np.testing.assert_array_equal(
            kept, gf.sum(np.stack(list(first_updates.values())), axis=0)
        )
        del arena
    finally:
        transport.close()

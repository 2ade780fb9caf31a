"""A synchronous round is the unit-weight drain, on one session class.

Every cohort kind runs ``LightSecAggSession``: the sync engine calls
``run_round``, the buffered engine calls ``drain``.  Both recover the
aggregate mask in one shot from the first ``U`` responders; a round is
the drain whose weights are 1 on the survivors.  Pinned here at the
session (every dropout pattern with at least ``U`` survivors, both
primes), at the sharded coordinator on the inline and socket lanes, and
at the shard spec, whose legacy ``"lightsecagg-buffered"`` spelling
builds the same session from the same stream.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.field import DEFAULT_PRIME, PAPER_PRIME, FiniteField
from repro.protocols import LightSecAgg, LSAParams
from repro.protocols.lightsecagg.session import LightSecAggSession
from repro.service import (
    ShardPlan,
    ShardSessionSpec,
    ShardWorkerServer,
    ShardedSession,
    build_transport,
)

N, DIM = 8, 23  # T=2, D=2 -> U=5
U = 5


def dropout_patterns():
    """Every dropout set that leaves at least ``U`` survivors (93)."""
    for size in range(N - U + 1):
        yield from (set(d) for d in itertools.combinations(range(N), size))


def open_session(gf, seed=3):
    params = LSAParams.from_guarantees(N, privacy=2, dropout_tolerance=2)
    return LightSecAgg(gf, params, DIM).session(
        pool_size=8, rng=np.random.default_rng(seed)
    )


def unit_drain_inputs(updates, dropouts):
    """The drain a round is: one unit-weight row per survivor."""
    survivors = [i for i in sorted(updates) if i not in dropouts]
    return (
        np.ones(len(survivors), dtype=np.uint64),
        np.stack([updates[i] for i in survivors]),
    )


class TestSessionRoundIsUnitDrain:
    @pytest.mark.parametrize("q", [DEFAULT_PRIME, PAPER_PRIME])
    def test_every_dropout_pattern(self, q):
        gf = FiniteField(q)
        rounds, drains = open_session(gf), open_session(gf)
        assert type(rounds) is LightSecAggSession
        rng = np.random.default_rng(9)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        patterns = list(dropout_patterns())
        assert len(patterns) == 93
        for dropouts in patterns:
            got = drains.drain(*unit_drain_inputs(updates, dropouts), dropouts)
            want = rounds.run_round(updates, dropouts)
            assert got.survivors == want.survivors, dropouts
            assert np.array_equal(got.aggregate, want.aggregate), dropouts
            assert np.array_equal(want.aggregate, gf.sum(
                np.stack([updates[i] for i in want.survivors]), axis=0))
        assert rounds.stats.rounds == drains.stats.rounds == len(patterns)


def lane_specs(protocol="lightsecagg", shards=2):
    plan = ShardPlan(DIM, shards)
    return plan, [
        ShardSessionSpec(
            protocol=protocol, num_users=N, shard_dim=plan.widths[s],
            privacy=2, dropout_tolerance=2, pool_size=4, low_water=1,
            seed=(5, 0, s),
        )
        for s in range(shards)
    ]


class TestShardedRoundIsUnitDrain:
    @pytest.mark.parametrize("lane", ["inline", "socket"])
    def test_run_round_matches_drain(self, gf, lane):
        plan, specs = lane_specs()
        rng = np.random.default_rng(13)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        servers = [ShardWorkerServer().start()] if lane == "socket" else []
        transport = build_transport(
            lane, specs, gf=gf,
            connect=[s.address for s in servers] or None,
        )
        try:
            session = ShardedSession(plan, transport=transport)
            for dropouts in (set(), {1}, {0, 7}, {2, 4, 6}):
                want = session.run_round(updates, dropouts)
                got = session.drain(
                    *unit_drain_inputs(updates, dropouts), dropouts
                )
                assert got.survivors == want.survivors, dropouts
                assert np.array_equal(got.aggregate, want.aggregate), dropouts
        finally:
            transport.close()
            for server in servers:
                server.stop()


class TestSpecSpellings:
    def test_both_spellings_build_one_session_and_one_stream(self, gf):
        digests = []
        for protocol in ("lightsecagg", "lightsecagg-buffered"):
            _, (spec, _) = lane_specs(protocol)
            session = spec.build(gf)
            assert type(session) is LightSecAggSession
            try:
                session.refill()
                masks = hashlib.sha256()
                coded = hashlib.sha256()
                for material in session._pool:
                    masks.update(material.masks.tobytes())
                    coded.update(material.coded.tobytes())
                digests.append((masks.hexdigest(), coded.hexdigest()))
            finally:
                session.close()
        assert digests[0] == digests[1]

"""A re-pinned shard session spends fresh masks.

After a reconnect the coordinator replays its ``SessionSetup`` and the
worker rebuilds every session.  Were the rebuilt session seeded as the
first was, its pool would hold the same masks again, and a member's two
uploads under one mask ``z`` hand the server ``x_i - x'_i``.  Pinned
here on the socket lane with an in-process worker host: three rounds,
the host killed and restarted on the same port, three more rounds, and
no mask spent twice on any shard.
"""

import hashlib
import time

import numpy as np

from repro.protocols.lightsecagg.session import LightSecAggSession
from repro.service import (
    ShardedSession,
    ShardPlan,
    ShardSessionSpec,
    ShardWorkerServer,
    SocketTransport,
)
from repro.service.transport import ShardHandle

N, DIM, SHARDS = 6, 30, 2


def wait_for(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline and not predicate():
        time.sleep(0.01)
    return predicate()


def spent_mask_digests(monkeypatch):
    """Record a digest of the masks every round takes from its pool."""
    digests = []
    real = LightSecAggSession._take_material

    def spy(self):
        material = real(self)
        digests.append(hashlib.sha256(material.masks.tobytes()).hexdigest())
        return material

    monkeypatch.setattr(LightSecAggSession, "_take_material", spy)
    return digests


def test_restarted_worker_spends_no_mask_twice(gf, monkeypatch):
    digests = spent_mask_digests(monkeypatch)
    plan = ShardPlan(DIM, SHARDS)
    specs = [
        ShardSessionSpec(
            protocol="lightsecagg", num_users=N, shard_dim=plan.widths[s],
            privacy=1, dropout_tolerance=1, pool_size=2, low_water=0,
            seed=(11, 0, s),
        )
        for s in range(SHARDS)
    ]
    server = ShardWorkerServer().start()
    restarted = None
    transport = SocketTransport(specs, connect=[server.address])
    try:
        session = ShardedSession(plan, transport=transport)
        rng = np.random.default_rng(8)

        def three_rounds():
            for _ in range(3):
                updates = {i: gf.random(DIM, rng) for i in range(N)}
                result = session.run_round(updates, {1})
                survivors = [i for i in range(N) if i != 1]
                assert np.array_equal(
                    result.aggregate,
                    gf.sum(np.stack([updates[i] for i in survivors]), axis=0),
                )

        three_rounds()
        assert len(digests) == 3 * SHARDS
        server.stop()  # the worker is killed
        client = transport._clients[0]
        assert wait_for(lambda: not client.alive)
        restarted = ShardWorkerServer(port=server.port).start()
        three_rounds()  # reconnects, re-pins, rebuilds both sessions
        assert len(digests) == 6 * SHARDS
        assert len(set(digests)) == len(digests)
        # The first build keeps the spec's own seed (what an inline build
        # draws); only rebuilds extend it.
        assert [h.spec.seed for h in transport.shard_handles] == [
            spec.seed for spec in specs
        ]
    finally:
        transport.close()
        server.stop()
        if restarted is not None:
            restarted.stop()


def first_masks(spec):
    session = spec.build()
    try:
        return session._take_material().masks.tobytes()
    finally:
        session.close()


def test_first_build_keeps_the_seed_and_rebuilds_extend_it():
    spec = ShardSessionSpec(
        protocol="lightsecagg", num_users=N, shard_dim=DIM, privacy=1,
        dropout_tolerance=1, pool_size=1, low_water=0, seed=(3, 1, 0),
    )
    handle = ShardHandle(transport=None, shard_id=0, spec=spec)
    builds = [handle.pin_spec() for _ in range(3)]
    assert builds[0] == spec
    assert [b.seed for b in builds[1:]] == [(3, 1, 0, 1), (3, 1, 0, 2)]
    assert len({first_masks(b) for b in builds}) == 3

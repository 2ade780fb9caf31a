"""One field carrier: update words stay ``<u4`` from the edge to the kernel.

Every element is a GF(q) residue below ``2**32``, so an update word is
:data:`~repro.field.FIELD_WORD` on every hop.  Pinned here:

* a decoded request's ``updates`` are ``<u4`` views, not widened
  copies: into the frame for a framed request, into the arena for a
  staged one;
* a ``u32`` HTTP round on the socket and process lanes reaches each
  worker session's ``drain`` with ``<u4`` rows (a spy on
  :meth:`LightSecAggSession.drain` writes what each call received to a
  file, which a forked worker host can do too);
* the coordinator's one narrowing scans no ``<u4`` row;
* on the inline lane the session drains the caller's ``<u4`` rows, and
  the gathered aggregate is ``uint64``.
"""

import json
import multiprocessing

import numpy as np
import pytest

from repro.field import FIELD_WORD
from repro.protocols.lightsecagg.session import LightSecAggSession
from repro.service import (
    AggregationService,
    InlineTransport,
    ServiceConfig,
    ShardedSession,
    ShardPlan,
    ShardSessionSpec,
    ShardWorkerServer,
)
from repro.service.api import ControlPlane, decode_vector, dispatch, encode_vector
from repro.wire import (
    ShardRoundRequest,
    ShmArrayRef,
    decode_message,
    encode_message,
)
from repro.wire.shm import SegmentArena, ShmRegistry

N, DIM = 6, 24


def round_request(updates, **refs):
    return ShardRoundRequest(
        shard_id=0, round_id=1, weights=np.ones(len(updates), np.uint64),
        updates=updates, **refs,
    )


class TestDecodedRequestsAreViews:
    def test_framed_updates_are_u4_views_of_the_frame(self, gf):
        rows = gf.random((N, DIM), np.random.default_rng(1)).astype(FIELD_WORD)
        frame = encode_message(round_request(rows), 7)
        _, back = decode_message(frame)
        assert back.updates.dtype == FIELD_WORD
        assert np.shares_memory(back.updates, np.frombuffer(frame, np.uint8))
        assert np.array_equal(back.updates, rows)

    def test_staged_updates_are_u4_views_of_the_arena(self, gf):
        rows = gf.random((N, DIM), np.random.default_rng(2))
        arena = SegmentArena(rows.size * FIELD_WORD.itemsize)
        registry = ShmRegistry()
        registry.add_local(arena)
        try:
            staged = arena.ndarray(0, rows.shape, FIELD_WORD)
            staged[...] = rows
            ref = ShmArrayRef(
                name=arena.name, offset=0, shape=rows.shape,
                dtype=FIELD_WORD.str,
            )
            frame = encode_message(round_request(staged, updates_ref=ref), 7)
            _, back = decode_message(frame, shm=registry.resolve)
            assert back.updates.dtype == FIELD_WORD
            assert np.shares_memory(back.updates, staged)
            assert np.array_equal(back.updates, rows)
            del back, staged
        finally:
            registry.close()
            arena.close()


def test_coordinator_narrowing_scans_no_u4_row(gf):
    """The coordinator's one narrowing copies a ``<u4`` row as it is;
    only a ``uint64`` row is scanned, and reduced when one of its words
    would lose its high bits."""
    from repro.service.socket_transport import _narrow_into

    class Row(np.ndarray):
        scans = 0

        def max(self, *args, **kwargs):
            Row.scans += 1
            return super().max(*args, **kwargs)

    words = np.array([gf.q, 5, 2**32 - 1], dtype=FIELD_WORD).view(Row)
    wide = np.array([2**32 + 7, gf.q + 1, 3], dtype=np.uint64).view(Row)
    matrix = np.empty((2, 3), dtype=FIELD_WORD)
    _narrow_into(matrix, [words, wide], gf)
    assert Row.scans == 1  # the uint64 row alone
    assert matrix[0].tolist() == [gf.q, 5, 2**32 - 1]
    assert matrix[1].tolist() == [(2**32 + 7) % gf.q, 1, 3]


def drain_spy(monkeypatch, log_path):
    """Wrap ``LightSecAggSession.drain`` to append the dtype of every
    row it receives to ``log_path``; forked hosts inherit the wrapper."""
    real = LightSecAggSession.drain

    def spy(self, weights, updates, recovery_dropouts=None):
        rows = updates if isinstance(updates, np.ndarray) else list(updates)
        with open(log_path, "a") as log:
            for row in rows:
                log.write(f"{np.asarray(row).dtype.str}\n")
        return real(self, weights, updates, recovery_dropouts)

    monkeypatch.setattr(LightSecAggSession, "drain", spy)


@pytest.mark.parametrize("lane", ["socket", "process"])
def test_u32_http_round_reaches_the_worker_as_u4(gf, monkeypatch, tmp_path,
                                                   lane):
    if lane == "process" and multiprocessing.get_start_method() != "fork":
        pytest.skip("the spy reaches worker hosts only through fork")
    log_path = tmp_path / "drain-rows.txt"
    drain_spy(monkeypatch, log_path)
    servers = [ShardWorkerServer().start()] if lane == "socket" else []
    service = AggregationService(
        ServiceConfig(), gf=gf, build_cohorts=False
    ).start()
    control = ControlPlane(service)
    try:
        spec = {
            "num_users": N, "model_dim": DIM, "num_shards": 2,
            "transport": lane, "dropout_tolerance": 1, "privacy": 1,
        }
        if servers:
            spec["connect"] = [servers[0].address]
        assert dispatch(control, "POST", "/cohorts", spec).status == 201
        rng = np.random.default_rng(5)
        updates = {m: gf.random(DIM, rng) for m in range(N)}
        body = {
            "updates": {
                str(m): encode_vector(v, "u32", gf.q)
                for m, v in updates.items()
            },
            "dropouts": [2],
        }
        response = dispatch(control, "POST", "/cohorts/0/rounds", body)
        assert response.status == 200, response.body
        reply = json.loads(response.body)
        survivors = [m for m in range(N) if m != 2]
        expected = gf.sum(np.stack([updates[m] for m in survivors]), axis=0)
        aggregate = decode_vector(reply["aggregate"], "u32", gf.q, DIM, "")
        assert np.array_equal(aggregate, expected)
    finally:
        control.drain()
        for server in servers:
            server.stop()
    seen = log_path.read_text().split()
    assert len(seen) == 2 * N  # two shards, N member rows each
    assert set(seen) == {FIELD_WORD.str}


def test_inline_round_keeps_u4_rows(gf, monkeypatch, tmp_path):
    """The HTTP -> inline lane hands the edge's ``<u4`` views to the
    session as they are: no coordinator copy, no widening."""
    log_path = tmp_path / "drain-rows.txt"
    drain_spy(monkeypatch, log_path)
    plan = ShardPlan(DIM, 2)
    specs = [
        ShardSessionSpec(
            protocol="lightsecagg", num_users=N, shard_dim=plan.widths[s],
            privacy=1, dropout_tolerance=1, pool_size=1, low_water=0,
            seed=(9, 0, s),
        )
        for s in range(2)
    ]
    session = ShardedSession(plan, InlineTransport.from_specs(specs, gf=gf))
    try:
        rows = gf.random((N, DIM), np.random.default_rng(3)).astype(FIELD_WORD)
        result = session.run_round(dict(enumerate(rows)), set())
        assert result.aggregate.dtype == np.uint64
        assert np.array_equal(result.aggregate, gf.sum(rows, axis=0))
    finally:
        session.close()
    assert set(log_path.read_text().split()) == {FIELD_WORD.str}


def test_weighted_drain_of_u4_rows_at_the_paper_prime(gf_paper):
    """The weighted arm adds each ``<u4`` row to its ``<u4`` mask: two
    residues of GF(2**32 - 5) overflow 32 bits, so the add must widen."""
    spec = ShardSessionSpec(
        protocol="lightsecagg", num_users=N, shard_dim=DIM, privacy=1,
        dropout_tolerance=1, pool_size=1, low_water=0, seed=(10, 0, 0),
        field_modulus=gf_paper.q,
    )
    session = spec.build(gf_paper)
    try:
        rows = np.full((N, DIM), gf_paper.q - 1, dtype=FIELD_WORD)
        weights = np.arange(2, N + 2, dtype=np.uint64)
        result = session.drain(weights, rows, set())
        expected = [(int(weights.sum()) * (gf_paper.q - 1)) % gf_paper.q] * DIM
        assert result.aggregate.tolist() == expected
    finally:
        session.close()

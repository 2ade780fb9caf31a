"""SocketTransport: localhost parity, supervision, reconnect/re-pin.

The acceptance criteria pinned here:

* rounds driven through ``SocketTransport`` (sessions behind TCP
  connections to a ``ShardWorkerServer``, spoken to in reassembled wire
  frames) are **bit-identical** to ``InlineTransport`` across mixed
  dropout patterns — at session level and through the full
  ``AggregationService`` stack;
* a worker lost mid-round surfaces as :class:`TransportError` (never a
  hang), and a **killed-then-restarted** worker is re-pinned from its
  specs with the service completing subsequent rounds;
* one connection batches several cohorts' shards (slots), and tearing
  one cohort down leaves its neighbours serving;
* a worker of another wire version is refused at its first frame with a
  typed error, leaving no thread or socket behind.
"""

import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.exceptions import DropoutError, ProtocolError, ReproError, TransportError
from repro.quantization import ModelQuantizer
from repro.service import (
    AggregationService,
    BackgroundRefiller,
    InlineTransport,
    RefillMode,
    ServiceConfig,
    ShardPlan,
    ShardSessionSpec,
    ShardWorkerServer,
    ShardedSession,
    SocketTransport,
    TransportKind,
    WireFormat,
    build_transport,
)
from repro.service import socket_transport
from repro.service.socket_transport import _SocketClient
from repro.service.socket_worker import parse_address
from repro.wire import (
    FrameAssembler,
    PayloadWriter,
    Ping,
    SegmentArena,
    SetupAck,
    ShardRoundRequest,
    ShmArrayRef,
    ShmRegistry,
    decode_message,
    frame_segments,
    recv_frames,
)

N, DIM, SHARDS = 8, 37, 3

@pytest.fixture
def fast_supervision(monkeypatch):
    """Sub-second heartbeats so dead-worker tests resolve quickly."""
    monkeypatch.setattr(_SocketClient, "HEARTBEAT_INTERVAL_S", 0.1)
    monkeypatch.setattr(_SocketClient, "HEARTBEAT_TIMEOUT_S", 2.0)


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


def wait_for(predicate, timeout_s=10.0, interval_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


@pytest.fixture
def server():
    server = ShardWorkerServer().start()
    yield server
    server.stop()


@pytest.fixture
def socket_session(server, fast_supervision):
    plan, specs = make_specs()
    transport = SocketTransport(specs, connect=[server.address])
    session = ShardedSession(plan, transport=transport)
    yield session, transport
    transport.close()


class TestSocketInlineBitIdentity:
    def test_rounds_bit_identical_across_mixed_dropouts(self, gf,
                                                        socket_session):
        """Aggregate, survivors, transcript, and pool dynamics all match."""
        remote, _ = socket_session
        plan, specs = make_specs()
        inline = ShardedSession(
            plan, transport=InlineTransport.from_specs(specs, gf=gf)
        )
        for updates, dropouts in mixed_dropout_rounds(gf):
            got = remote.run_round(updates, set(dropouts))
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
            assert getattr(remote.stats, counter) == getattr(
                inline.stats, counter
            ), counter  # refill_seconds is wall-clock, not a count
        assert remote.pool_level == inline.pool_level
        inline.close()

    def test_shards_round_robin_across_two_workers(self, gf, server,
                                                   fast_supervision):
        """Multiple --connect addresses: same results, work spread out."""
        with ShardWorkerServer() as second:
            plan, specs = make_specs()
            transport = SocketTransport(
                specs, connect=[server.address, second.address]
            )
            assert transport.num_workers == 2
            remote = ShardedSession(plan, transport=transport)
            inline = ShardedSession(
                plan, transport=InlineTransport.from_specs(specs, gf=gf)
            )
            try:
                for updates, dropouts in mixed_dropout_rounds(gf, rounds=3):
                    got = remote.run_round(updates, set(dropouts))
                    want = inline.run_round(updates, set(dropouts))
                    assert got.survivors == want.survivors
                    assert np.array_equal(got.aggregate, want.aggregate)
                assert server.connection_count == 1
                assert second.connection_count == 1
            finally:
                transport.close()
                inline.close()

    def test_service_level_parity_all_backends(self, gf, server):
        """The full service stack: inline/socket x sync/background."""
        outputs = {}
        for kind in (TransportKind.INLINE, TransportKind.SOCKET):
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
                    connect=(
                        (server.address,)
                        if kind is TransportKind.SOCKET
                        else None
                    ),
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


class TestWorkerLossAndRepin:
    def test_lost_worker_mid_stream_raises_transport_error(self, gf, server,
                                                           socket_session):
        session, transport = socket_session
        rng = np.random.default_rng(0)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        session.run_round(updates, {1})
        # Stop the worker BEFORE cutting the link: with the worker still
        # up, the receiver thread can notice the dead socket and
        # ensure_connected() can legitimately repair it before the next
        # round (designed recovery, but a race against this assertion).
        # With the worker gone every path — send on the dead fd, or a
        # reconnect attempt — must surface as TransportError.
        server.stop()
        sock = transport._clients[0]._sock
        if sock is not None:  # the receiver may already have torn it down
            sock.close()  # the link dies under us
        with pytest.raises(TransportError):
            session.run_round(updates, {1})

    def test_killed_then_restarted_worker_is_repinned(self, gf):
        """Acceptance: after the worker host is killed and a new one
        started on the same address, the next request reconnects, replays
        the SessionSetup (rebuilding sessions from their specs), and the
        service completes subsequent rounds."""
        server = ShardWorkerServer().start()
        cfg = ServiceConfig(
            num_cohorts=1, num_users=N, model_dim=DIM, num_shards=2,
            pool_size=3, low_water=1, refill_mode=RefillMode.SYNC,
            dropout_tolerance=2, privacy=2,
            transport=TransportKind.SOCKET, connect=(server.address,),
            seed=3,
        )
        svc = AggregationService(cfg, gf=gf).start()
        try:
            rng = np.random.default_rng(1)
            updates = {i: gf.random(DIM, rng) for i in range(N)}
            svc.run_round(0, updates, {1})

            server.stop()  # the worker is killed
            with pytest.raises((TransportError, ProtocolError)):
                svc.run_round(0, updates, {1})

            restarted = ShardWorkerServer(port=server.port).start()
            try:
                result = svc.run_round(0, updates, {2})
                assert result.survivors == [i for i in range(N) if i != 2]
                expected_cfg_field = svc.status()
                assert expected_cfg_field["transport"]["workers_alive"] == 1
                reconnects = svc.metrics.snapshot()["transports"]["socket"][
                    "reconnects"
                ]
                assert reconnects >= 1
                # And it keeps serving: another full round works too.
                svc.run_round(0, updates, set())
            finally:
                svc.stop()
                restarted.stop()
        finally:
            svc.stop()
            server.stop()

    def test_heartbeat_detects_dead_worker_without_traffic(self, server,
                                                           monkeypatch):
        monkeypatch.setattr(_SocketClient, "HEARTBEAT_INTERVAL_S", 0.05)
        monkeypatch.setattr(_SocketClient, "HEARTBEAT_TIMEOUT_S", 1.0)
        _, specs = make_specs(shards=1)
        transport = SocketTransport(specs, connect=[server.address])
        try:
            client = transport._clients[0]
            assert client.alive
            server.stop()
            # No request is issued; supervision alone must notice.
            assert wait_for(lambda: not client.alive, timeout_s=10.0)
        finally:
            transport.close()

    def test_round_error_propagates_and_connection_stays_usable(self, gf,
                                                                socket_session):
        session, _ = socket_session
        rng = np.random.default_rng(0)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        # Dropping all but one user leaves survivors < U: the worker's
        # DropoutError crosses the wire and re-raises as itself.
        with pytest.raises(DropoutError, match="survivors"):
            session.run_round(updates, set(range(N - 1)))
        result = session.run_round(updates, {1})
        assert result.survivors == [i for i in range(N) if i != 1]


class TestConnectionBatching:
    def test_two_cohorts_share_one_connection(self, gf, server):
        """Both cohorts' shards ride one TCP connection (distinct slots),
        and closing the service releases it via the Shutdown handshake."""
        cfg = ServiceConfig(
            num_cohorts=2, num_users=N, model_dim=DIM, num_shards=2,
            pool_size=3, low_water=1, refill_mode=RefillMode.BACKGROUND,
            dropout_tolerance=2, privacy=2,
            transport=TransportKind.SOCKET, connect=(server.address,),
            seed=5,
        )
        with AggregationService(cfg, gf=gf) as svc:
            svc.run_synthetic(
                rounds=2, dropout_rate=0.1, rng=np.random.default_rng(2)
            )
            assert server.connection_count == 1  # 2 cohorts x 2 shards
        assert wait_for(lambda: server.connection_count == 0)

    def test_teardown_of_one_cohort_leaves_the_other_serving(
            self, gf, server, fast_supervision):
        plan, specs_a = make_specs(seed=0)
        _, specs_b = make_specs(seed=1)
        transport_a = SocketTransport(specs_a, connect=[server.address],
                                      cohort_id=0)
        transport_b = SocketTransport(specs_b, connect=[server.address],
                                      cohort_id=1)
        session_b = ShardedSession(plan, transport=transport_b)
        try:
            assert server.connection_count == 1
            transport_a.close()  # releases cohort A's slots only
            rng = np.random.default_rng(3)
            updates = {i: gf.random(DIM, rng) for i in range(N)}
            result = session_b.run_round(updates, {4})
            assert result.survivors == [i for i in range(N) if i != 4]
            assert server.connection_count == 1  # still shared, still up
        finally:
            transport_b.close()

    def test_background_refiller_drives_socket_handles(self, gf,
                                                       socket_session):
        """The refiller's scatter/gather path keeps remote pools topped."""
        session, transport = socket_session
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


class TestConstructionAndConfig:
    def test_build_transport_dispatch(self, gf, server):
        _, specs = make_specs(shards=1)
        transport = build_transport(
            "socket", specs, gf=gf, connect=[server.address]
        )
        assert isinstance(transport, SocketTransport)
        assert transport.kind == "socket"
        transport.close()

    def test_missing_or_bad_connect_rejected(self, server,
                                             fast_supervision):
        _, specs = make_specs(shards=1)
        with pytest.raises(ProtocolError, match="worker address"):
            build_transport("socket", specs)
        with pytest.raises(TransportError, match="host:port"):
            SocketTransport(specs, connect=["not-an-address"])
        with pytest.raises(TransportError, match="cannot connect"):
            SocketTransport(specs, connect=["127.0.0.1:1"])

    def test_dead_second_address_releases_the_first_connection(
            self, server, fast_supervision):
        """Regression: failing to reach a later --connect address must
        release (not leak) the client already acquired for an earlier
        one — the shared pool would otherwise pin it forever."""
        _, specs = make_specs(shards=2)
        assert wait_for(lambda: server.connection_count == 0)
        with pytest.raises(TransportError, match="cannot connect"):
            SocketTransport(
                specs, connect=[server.address, "127.0.0.1:1"]
            )
        # The good address's pooled client was refcount-released, which
        # closes it with the Shutdown handshake; the worker sees the
        # connection go away.
        assert wait_for(lambda: server.connection_count == 0)
        # And the address is reusable afterwards (no poisoned pool entry).
        transport = SocketTransport(specs, connect=[server.address])
        transport.close()

    def test_service_config_validates_connect(self, server):
        with pytest.raises(ReproError, match="connect"):
            ServiceConfig(transport=TransportKind.SOCKET)
        with pytest.raises(ReproError, match="socket transport"):
            ServiceConfig(connect=("127.0.0.1:7000",))  # inline + connect
        with pytest.raises(ReproError, match="host:port"):
            ServiceConfig(
                transport=TransportKind.SOCKET, connect=("nope",)
            )
        cfg = ServiceConfig(
            transport=TransportKind.SOCKET, connect=(server.address,)
        )
        assert cfg.connect == (server.address,)

    def test_closed_transport_rejects_requests(self, server,
                                               fast_supervision):
        plan, specs = make_specs(shards=1)
        transport = SocketTransport(specs, connect=[server.address])
        transport.close()
        assert transport.closed
        with pytest.raises(ProtocolError, match="closed"):
            transport.shard_handles[0].refill()
        with pytest.raises(ProtocolError, match="closed"):
            ShardedSession(plan, transport=transport).run_round({}, set())
        transport.close()  # idempotent

    def test_socket_transport_validates_wire_format(self, server,
                                                    fast_supervision):
        _, specs = make_specs(shards=1)
        with pytest.raises(ProtocolError, match="wire format"):
            SocketTransport(
                specs, connect=[server.address], wire_format="gzip"
            )


# ----------------------------------------------------------------------
# quantized + packed end-to-end parity
# ----------------------------------------------------------------------
def _quantized_lane(gf, kind, wire_format, connect=None, rounds=4,
                    seed=21):
    """Quantize real updates into GF(q) and run them through one lane.

    The quantizer proves the sum cannot wrap
    (:meth:`~repro.quantization.ModelQuantizer.check_budget`), and every
    lane uses identical rng streams, so quantization produces identical
    field vectors — any divergence in the returned aggregates is the
    wire's fault.  With ``wire_format=PACKED`` every element travels in
    ``ceil(log2(q))`` bits instead of a full word.
    """
    cfg = ServiceConfig(
        num_cohorts=1, num_users=N, model_dim=DIM, num_shards=2,
        pool_size=3, low_water=0, refill_mode=RefillMode.SYNC,
        dropout_tolerance=2, privacy=2,
        transport=kind, wire_format=wire_format,
        connect=connect, seed=7,
        # Byte accounting below compares lanes against each other; keep
        # the 8-byte trace_id tail out of it so the numbers measure the
        # element encoding alone (tracing's own wire claims are pinned
        # in tests/obs/test_trace_wire.py).
        tracing=False,
    )
    outputs = []
    quantizer = ModelQuantizer(gf)
    with AggregationService(cfg, gf=gf) as svc:
        rng = np.random.default_rng(seed)
        for r in range(rounds):
            real_updates = {
                i: rng.standard_normal(DIM) * 0.25 for i in range(N)
            }
            dropouts = set(
                rng.choice(N, size=int(rng.integers(0, 3)),
                           replace=False).tolist()
            )
            bound = max(np.abs(u).max() for u in real_updates.values())
            quantizer.check_budget(N, float(bound))
            field_updates = {
                i: quantizer.quantize(u, rng) for i, u in real_updates.items()
            }
            result = svc.run_round(0, field_updates, dropouts)
            real_agg = quantizer.dequantize(result.aggregate)
            outputs.append(
                (real_agg.tobytes(), result.aggregate.tobytes(),
                 tuple(result.survivors))
            )
        snapshot = svc.metrics.snapshot()["transports"]
    return outputs, snapshot


LANES = [
    pytest.param(TransportKind.INLINE, WireFormat.PACKED, id="inline-packed"),
    pytest.param(TransportKind.PROCESS, WireFormat.RAW, id="process-raw"),
    pytest.param(TransportKind.PROCESS, WireFormat.PACKED,
                 id="process-packed"),
    pytest.param(TransportKind.SOCKET, WireFormat.RAW, id="socket-raw"),
    pytest.param(TransportKind.SOCKET, WireFormat.PACKED,
                 id="socket-packed"),
    pytest.param(TransportKind.SHM, WireFormat.RAW, id="shm"),
]


class TestQuantizedPackedParity:
    """Tentpole acceptance: real model updates quantized into GF(q)
    travel every transport lane — raw, bit-packed, or by shm reference —
    and come back byte-identical to the inline baseline across mixed
    dropout patterns."""

    @pytest.mark.parametrize("kind,wire_format", LANES)
    def test_lane_byte_identical_to_inline_raw(self, gf, server, kind,
                                               wire_format):
        connect = (server.address,) if kind is TransportKind.SOCKET else None
        baseline, _ = _quantized_lane(gf, TransportKind.INLINE,
                                      WireFormat.RAW)
        lane, snapshot = _quantized_lane(gf, kind, wire_format,
                                         connect=connect)
        assert lane == baseline  # real aggregate, field aggregate, survivors
        stats = snapshot[kind.value]
        if kind is TransportKind.SHM:
            # the vector volume rode shared memory, not the pipe
            assert stats["shm_bytes"] > stats["bytes_sent"]
        elif kind is not TransportKind.INLINE:
            assert stats["bytes_sent"] > 0

    def test_packed_lane_sends_fewer_bytes_than_raw(self, gf, server):
        _, raw = _quantized_lane(gf, TransportKind.SOCKET, WireFormat.RAW,
                                 connect=(server.address,))
        _, packed = _quantized_lane(gf, TransportKind.SOCKET,
                                    WireFormat.PACKED,
                                    connect=(server.address,))
        assert packed["socket"]["bytes_sent"] < raw["socket"]["bytes_sent"]
        assert (packed["socket"]["bytes_received"]
                < raw["socket"]["bytes_received"])


def _socket_fds():
    """This process's open socket descriptors (Linux /proc)."""
    fds = set()
    for name in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{name}").startswith("socket:"):
                fds.add(int(name))
        except OSError:
            pass  # closed between listdir and readlink
    return fds


class TestWireVersionGate:
    """The frame header's version byte is the only compatibility gate:
    a peer of another build is refused at its first frame."""

    def test_worker_of_another_wire_version_is_refused(self,
                                                       fast_supervision,
                                                       monkeypatch):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        peer_closed = threading.Event()

        def old_worker():
            # Answer the coordinator's first frame the way a version-1
            # build would: a SetupAck with its trailing word, stamped 1.
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10.0)
                assembler, frames = FrameAssembler(), []
                while not frames:
                    frames = recv_frames(conn, assembler)
                request_id, _ = decode_message(frames[0])
                w = PayloadWriter()
                w.put_array(np.zeros(1, dtype=np.uint32))
                w.put_u32(0x7)
                reply = bytearray(
                    b"".join(frame_segments(SetupAck.TYPE, request_id, w))
                )
                reply[2] = 1
                conn.sendall(reply)
                try:
                    while conn.recv(4096):
                        pass
                    peer_closed.set()  # EOF: the coordinator let go
                except OSError:
                    pass

        thread = threading.Thread(target=old_worker, daemon=True)
        thread.start()
        try:
            sockets_before = _socket_fds()
            _, specs = make_specs(shards=1)
            setup_timeout_s = 5.0
            monkeypatch.setattr(
                _SocketClient, "SETUP_TIMEOUT_S", setup_timeout_s
            )
            t0 = time.monotonic()
            with pytest.raises(TransportError, match="wire version 1"):
                SocketTransport(specs, connect=[f"127.0.0.1:{port}"])
            assert time.monotonic() - t0 < setup_timeout_s
            assert peer_closed.wait(timeout=10.0)

            def link_threads():
                return [
                    t.name for t in threading.enumerate()
                    if t.name.startswith("socket-client-")
                    and t.name.endswith(f":{port}")
                ]

            assert wait_for(lambda: not link_threads()), link_threads()
            assert wait_for(lambda: not (_socket_fds() - sockets_before))
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        finally:
            listener.close()


class TestWorkerHostBoundaries:
    def test_stop_closes_every_hosted_session(self, fast_supervision):
        """stop() tears every connection down exactly once, whichever of
        the server and the connection's own receive thread gets there
        first: the hosted sessions close and the connection is
        forgotten."""
        server = ShardWorkerServer().start()
        _, specs = make_specs()
        transport = SocketTransport(specs, connect=[server.address])
        try:
            [connection] = server._connections
            hosted = list(connection.sessions.values())
            assert len(hosted) == SHARDS
            server.stop()
            assert server.connection_count == 0
            assert all(session.closed for session in hosted)
        finally:
            transport.close()
            server.stop()

    def test_tcp_host_refuses_shared_memory_references(self, server,
                                                      monkeypatch,
                                                      fast_supervision):
        """A TCP-accepted connection has no shm registry: a round request
        referencing a /dev/shm segment attaches nothing and reaches the
        coordinator as a typed TransportError."""
        attached = []
        monkeypatch.setattr(
            ShmRegistry, "resolve", lambda self, name: attached.append(name)
        )
        _, specs = make_specs(shards=1)
        width = specs[0].shard_dim
        transport = SocketTransport(specs, connect=[server.address])
        arena = SegmentArena((N + 1) * width * 8)
        try:
            assert server._connections[0].registry is None
            matrix = arena.ndarray(0, (N, width))
            matrix[:] = 1
            request = ShardRoundRequest(
                shard_id=0, round_id=0, weights=np.ones(N, dtype=np.uint64),
                updates=matrix,
                updates_ref=ShmArrayRef(
                    name=arena.name, offset=0, shape=(N, width)
                ),
                result_ref=ShmArrayRef(
                    name=arena.name, offset=N * width * 8, shape=(width,)
                ),
            )
            request_id, _ = transport._request(0, request)
            with pytest.raises(TransportError):
                transport._await(0, request_id)
            assert attached == []
            assert wait_for(lambda: server.connection_count == 0)
        finally:
            transport.close()
            arena.close()


class TestOneCopyOfEachFact:
    def test_failed_send_leaves_no_outstanding_entry(self, server,
                                                     monkeypatch):
        """A send the socket refuses marks the link broken and takes its
        own outstanding-request entry with it: a pooled client must not
        keep one entry per failed send for its whole life."""
        client = _SocketClient(parse_address(server.address))
        try:
            def reset(sock, segments):
                raise ConnectionResetError("injected")

            monkeypatch.setattr(socket_transport, "send_segments", reset)
            with pytest.raises(TransportError, match="failed to send"):
                client.send(Ping(nonce=1), client.next_id())
            assert not client.alive
            assert client._outstanding == {}
        finally:
            client.close()

    def test_restarted_worker_is_repinned_at_the_rekeyed_geometry(self, gf):
        """After a re-key to 9 members, a worker killed and restarted on
        the same port rebuilds its sessions from the *new* spec: the next
        drain of 9 rows recovers over members 0..8."""
        server = ShardWorkerServer().start()
        plan, specs = make_specs(shards=2)
        transport = SocketTransport(specs, connect=[server.address])
        restarted = None
        try:
            session = ShardedSession(plan, transport=transport)
            session.rekey(N + 1)
            server.stop()
            client = transport._clients[0]
            assert wait_for(lambda: not client.alive)
            restarted = ShardWorkerServer(port=server.port).start()
            rows = gf.random((N + 1, DIM), np.random.default_rng(4))
            result = session.drain(
                np.ones(N + 1, dtype=np.uint64), rows, {0}
            )
            assert result.survivors == list(range(1, N + 1))
            assert np.array_equal(result.aggregate, gf.sum(rows, axis=0))
        finally:
            transport.close()
            server.stop()
            if restarted is not None:
                restarted.stop()

    def test_one_reconnect_counted_once_per_metrics_sink(self, gf):
        """Two cohorts share one connection and one metrics sink: one
        physical reconnect (re-pinning both cohorts' slots) is counted
        exactly once."""
        server = ShardWorkerServer().start()
        cfg = ServiceConfig(
            num_cohorts=2, num_users=N, model_dim=DIM, num_shards=2,
            pool_size=3, low_water=1, refill_mode=RefillMode.SYNC,
            dropout_tolerance=2, privacy=2,
            transport=TransportKind.SOCKET, connect=(server.address,),
            seed=3,
        )
        restarted = None
        svc = AggregationService(cfg, gf=gf).start()
        try:
            assert server.connection_count == 1
            client = svc.get_cohort(0).transport._clients[0]
            assert svc.get_cohort(1).transport._clients[0] is client
            server.stop()
            assert wait_for(lambda: not client.alive)
            restarted = ShardWorkerServer(port=server.port).start()
            rng = np.random.default_rng(6)
            updates = {i: gf.random(DIM, rng) for i in range(N)}
            for cohort_id in (0, 1):
                result = svc.run_round(cohort_id, updates, {3})
                assert result.survivors == [i for i in range(N) if i != 3]
            assert (
                'repro_transport_reconnects_total{transport="socket"} 1\n'
                in svc.metrics.render_prometheus()
            )
        finally:
            svc.stop()
            server.stop()
            if restarted is not None:
                restarted.stop()

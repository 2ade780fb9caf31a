"""Networked shard execution: the ``socket`` transport backend.

:class:`SocketTransport` rides the same
:class:`~repro.service.transport.FrameTransport` scatter-gather as the
process backend, but the shard sessions live behind TCP connections to
one or more ``repro shard-worker`` hosts (see
:mod:`repro.service.socket_worker`), speaking :mod:`repro.wire` frames
reassembled from the byte stream.  Because both backends build sessions
from the same :class:`~repro.service.transport.ShardSessionSpec` seed
paths, socket-backed rounds over localhost are bit-identical to inline
rounds — the acceptance bar the tests pin.

What remoteness adds over the process backend:

* **Connection supervision.**  Each connection runs a heartbeat thread
  (:class:`~repro.wire.Ping` every ``heartbeat_interval_s``, answered
  off the worker's round path); a missed heartbeat or any socket error
  marks the connection *broken*, waking every thread blocked on a
  response with :class:`~repro.exceptions.TransportError` — a lost
  shard mid-round surfaces as a typed error, never a hang.
* **Reconnect with re-pin.**  The client remembers the
  ``SessionSetup`` entries it pinned; the next request after a broken
  connection reconnects and replays them, so a killed-and-restarted
  worker rebuilds identical sessions from the specs and the service
  completes subsequent rounds.  Requests that were in flight across the
  break fail with a stale-generation error rather than waiting for a
  response that died with the old connection.
* **Connection sharing.**  Clients are pooled per address within the
  process, so many cohorts' transports batch their shards over one
  connection per worker host (each cohort holding its own slot ids);
  teardown releases one cohort's slots without touching its
  neighbours'.

Wire accounting is per request, so each transport's metrics reflect its
own traffic even on a shared connection.
"""

from __future__ import annotations

import functools
import itertools
import socket
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ProtocolError, TransportError, WireError
from repro.protocols.base import SessionStats
from repro.service.socket_worker import parse_address
from repro.service.transport import (
    FrameTransport,
    ShardSessionSpec,
    _ResponseMux,
)
from repro.wire import (
    CAP_BUFFERED_DRAINS,
    CAP_PACKED_ARRAYS,
    CAP_ROUND_TRACING,
    ErrorFrame,
    FrameAssembler,
    Ping,
    SessionSetup,
    SessionTeardown,
    SetupAck,
    Shutdown,
    decode_message,
    encode_segments,
    recv_frames,
    send_segments,
)


class _SocketClient(_ResponseMux):
    """One supervised connection to a worker host, shared by transports.

    Response multiplexing is the shared :class:`_ResponseMux` (a draining
    receiver thread routes frames by request id), with two networked
    additions: a *generation* counter that invalidates requests stranded
    by a reconnect, and the heartbeat/re-pin machinery described in the
    module docstring.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        heartbeat_interval_s: float = 2.0,
        heartbeat_timeout_s: float = 10.0,
        connect_timeout_s: float = 10.0,
        setup_timeout_s: float = 60.0,
    ):
        super().__init__()
        self.address = address
        self.peer = f"{address[0]}:{address[1]}"
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.connect_timeout_s = float(connect_timeout_s)
        self.setup_timeout_s = float(setup_timeout_s)
        self.refs = 0  # guarded by the pool's registry lock
        self._slots = itertools.count(0)
        self._inflight: Dict[int, int] = {}  # request id -> generation
        self._generation = 0
        self._closed = False
        self._sock: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._reconnect_lock = threading.Lock()
        self._slot_specs: Dict[int, ShardSessionSpec] = {}
        # Wire-format negotiation state: ``requested_caps`` is the OR of
        # every sharing transport's asks (replayed on re-pin);
        # ``negotiated_caps`` is what the *current* connection's worker
        # acknowledged.  Both guarded by ``_cv``.
        self.requested_caps = 0
        self.negotiated_caps = 0
        self._repin_listeners: List = []
        self._reconnect_sinks: List[Tuple[object, str]] = []
        self._stop_heartbeat = threading.Event()
        self._sock = self._open_socket()
        self._start_receiver()
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            name=f"socket-client-hb-{self.peer}",
            daemon=True,
        )
        self._heartbeat.start()

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    def _open_socket(self) -> socket.socket:
        try:
            sock = socket.create_connection(
                self.address, timeout=self.connect_timeout_s
            )
        except OSError as exc:
            raise TransportError(
                f"cannot connect to shard worker at {self.peer}: {exc}"
            ) from exc
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _start_receiver(self) -> None:
        thread = threading.Thread(
            target=self._recv_loop,
            args=(self._sock, self._generation),
            name=f"socket-client-recv-{self.peer}",
            daemon=True,
        )
        thread.start()

    def _recv_loop(self, sock: socket.socket, generation: int) -> None:
        assembler = FrameAssembler()
        while True:
            try:
                # decode inside the same guard as the read: a frame that
                # passes framing but fails message decode must poison the
                # connection (waiters fail fast), not kill this thread
                # silently and strand them.
                decoded = [
                    (decode_message(frame), len(frame))
                    for frame in recv_frames(sock, assembler)
                ]
            except (EOFError, OSError, WireError) as exc:
                self._mark_broken(exc, generation)
                return
            with self._cv:
                if self._generation != generation:
                    return  # a reconnect superseded this socket
                for (request_id, message), nbytes in decoded:
                    self._store_locked(request_id, message, nbytes)
                self._cv.notify_all()

    def _mark_broken(self, exc: BaseException, generation: int) -> None:
        with self._cv:
            if self._generation != generation or self._broken is not None:
                return
            self._broken = exc
            sock, self._sock = self._sock, None
            self._cv.notify_all()
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    @property
    def alive(self) -> bool:
        with self._cv:
            return self._broken is None and not self._closed

    def ensure_connected(self) -> None:
        """Reconnect and re-pin every hosted slot if the link is broken."""
        with self._reconnect_lock:
            with self._cv:
                if self._closed:
                    raise TransportError("socket client is closed")
                if self._broken is None:
                    return
                entries = sorted(self._slot_specs.items())
            sock = self._open_socket()  # raises TransportError on failure
            with self._cv:
                self._generation += 1
                self._broken = None
                self._sock = sock
                self._responses.clear()
                self._abandoned.clear()  # old-generation frames can't arrive
                self.negotiated_caps = 0  # fresh connection, renegotiate
            self._start_receiver()
            if entries:
                try:
                    self.pin(entries, self.setup_timeout_s)
                except Exception as exc:
                    # A half-pinned connection must not look healthy: no
                    # session is guaranteed to exist behind any slot, so
                    # poison it and let the next request retry the whole
                    # reconnect + re-pin from scratch.
                    with self._cv:
                        generation = self._generation
                    self._mark_broken(
                        TransportError(f"session re-pin failed: {exc}"),
                        generation,
                    )
                    raise
            with self._cv:
                listeners = list(self._repin_listeners)
                sinks = list(self._reconnect_sinks)
        for listener in listeners:
            listener()
        # One physical reconnect = one metric event per distinct sink,
        # however many transports share this connection.
        seen = set()
        for metrics, kind in sinks:
            if id(metrics) not in seen:
                seen.add(id(metrics))
                metrics.record_transport_reconnect(kind)

    def pin(self, entries, timeout: float) -> SetupAck:
        """One ``SessionSetup`` round trip: build ``entries``' sessions on
        the worker and record the capabilities it acknowledges."""
        with self._cv:
            requested = self.requested_caps
        ack = self.request(
            SessionSetup(entries, capabilities=requested), timeout=timeout
        )
        if not isinstance(ack, SetupAck):
            raise TransportError(
                f"session setup answered with {type(ack).__name__}"
            )
        with self._cv:
            self.negotiated_caps = ack.capabilities
        return ack

    def close(self) -> None:
        """Shutdown handshake (best-effort) and release the socket.

        Only the pool calls this, at refcount zero, so no other thread
        is mid-request; the handshake runs *before* ``_closed`` flips so
        send/receive still work for it.
        """
        with self._cv:
            if self._closed:
                return
            broken = self._broken is not None
        self._stop_heartbeat.set()
        if not broken:
            try:
                request_id = self.next_id()
                self.send(Shutdown(), request_id)
                self.receive(request_id, timeout=self.heartbeat_timeout_s)
            except TransportError:
                pass
        with self._cv:
            self._closed = True
            sock, self._sock = self._sock, None
            self._generation += 1  # detach any receiver still attached
            self._cv.notify_all()
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    def allocate_slots(self, count: int) -> List[int]:
        with self._cv:
            return [next(self._slots) for _ in range(count)]

    def request_capability(self, cap: int) -> None:
        """Ask for ``cap`` on every (re)pin from now on."""
        with self._cv:
            self.requested_caps |= int(cap)

    def supports(self, cap: int) -> bool:
        """True iff the current connection's worker acknowledged ``cap``."""
        with self._cv:
            return bool(self.negotiated_caps & cap)

    def send(self, message, request_id: int) -> int:
        segments = encode_segments(message, request_id)
        nbytes = sum(len(s) for s in segments)
        with self._cv:
            if self._closed:
                raise TransportError("socket client is closed")
            sock = self._sock
            generation = self._generation
            if self._broken is not None or sock is None:
                raise TransportError(
                    f"connection to {self.peer} is broken: {self._broken!r}"
                )
            self._inflight[request_id] = generation
        try:
            with self._send_lock:
                send_segments(sock, segments)
        except OSError as exc:
            self._mark_broken(exc, generation)
            raise TransportError(
                f"failed to send {type(message).__name__} to {self.peer}: "
                f"{exc}"
            ) from exc
        return nbytes

    def receive(self, request_id: int, timeout: Optional[float] = None):
        try:
            return super().receive(request_id, timeout=timeout)
        finally:
            # Collected, lost, or timed out: either way nobody retries it.
            with self._cv:
                self._inflight.pop(request_id, None)

    def _lost_locked(self, request_id: int) -> Optional[str]:
        stamped = self._inflight.get(request_id)
        if (
            self._broken is None
            and stamped is not None
            and stamped != self._generation
        ):
            return (
                f"response {request_id} was lost to a reconnect; the "
                f"request must be retried on the new session"
            )
        return super()._lost_locked(request_id)

    def _abandon_locked(self, request_id: int) -> None:
        self._inflight.pop(request_id, None)
        super()._abandon_locked(request_id)

    def request(self, message, timeout: Optional[float] = None):
        """Convenience: send + receive one frame, raising remote errors."""
        request_id = self.next_id()
        self.send(message, request_id)
        response, _ = self.receive(request_id, timeout=timeout)
        if isinstance(response, ErrorFrame):
            response.raise_()
        return response

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        nonce = 0
        while not self._stop_heartbeat.wait(self.heartbeat_interval_s):
            with self._cv:
                if self._closed:
                    return
                if self._broken is not None:
                    continue  # lazily reconnected by the next request
            nonce += 1
            stamped = None
            try:
                request_id = self.next_id()
                self.send(Ping(nonce=nonce), request_id)
                with self._cv:
                    stamped = self._inflight.get(request_id, self._generation)
                self.receive(request_id, timeout=self.heartbeat_timeout_s)
            except TransportError:
                # A timed-out heartbeat is a dead link even though the
                # OS hasn't said so; poison the socket so every waiter
                # fails fast instead of blocking on a black hole.  The
                # generation stamped at send time scopes the poisoning
                # to the connection the ping actually rode: if a
                # reconnect already superseded it (this receive failed
                # with the stale-generation error), _mark_broken is a
                # no-op and the healthy new connection is left alone.
                if stamped is not None:
                    self._mark_broken(
                        TransportError("heartbeat timed out"), stamped
                    )

    def add_repin_listener(self, listener) -> None:
        with self._cv:
            self._repin_listeners.append(listener)

    def remove_repin_listener(self, listener) -> None:
        with self._cv:
            if listener in self._repin_listeners:
                self._repin_listeners.remove(listener)

    def add_reconnect_sink(self, metrics, kind: str) -> None:
        """Count physical reconnects into ``metrics`` (deduped by sink)."""
        with self._cv:
            self._reconnect_sinks.append((metrics, kind))

    def remove_reconnect_sink(self, metrics, kind: str) -> None:
        with self._cv:
            if (metrics, kind) in self._reconnect_sinks:
                self._reconnect_sinks.remove((metrics, kind))


class _ClientPool:
    """Process-wide registry sharing one client per worker address."""

    def __init__(self):
        self._lock = threading.Lock()
        self._clients: Dict[Tuple[str, int], _SocketClient] = {}

    def acquire(self, address: Tuple[str, int], **kwargs) -> _SocketClient:
        # A pooled client is never closed while referenced (release() only
        # closes at refcount zero, removing it here first), so any hit is
        # usable: a *broken* one is revived by ensure_connected on the
        # next request rather than replaced, preserving the sharing.
        with self._lock:
            client = self._clients.get(address)
            if client is not None:
                client.refs += 1
                return client
        # Connect OUTSIDE the registry lock: a 10s connect timeout to a
        # dead address must not freeze every other transport's
        # acquire/release in the process.
        candidate = _SocketClient(address, **kwargs)
        with self._lock:
            client = self._clients.get(address)
            if client is None:
                candidate.refs = 1
                self._clients[address] = candidate
                return candidate
            client.refs += 1
        candidate.close()  # another thread won the connect race
        return client

    def release(self, client: _SocketClient) -> None:
        with self._lock:
            client.refs -= 1
            if client.refs > 0:
                return
            if self._clients.get(client.address) is client:
                del self._clients[client.address]
        client.close()


_POOL = _ClientPool()


class SocketTransport(FrameTransport):
    """Shard sessions pinned behind TCP connections to worker hosts.

    ``connect`` lists worker addresses (``host:port``); shards are
    assigned round-robin across them, and all shards sharing an address
    share one supervised connection (also with other cohorts' transports
    in this process).
    """

    kind = "socket"

    def __init__(
        self,
        specs: Sequence[ShardSessionSpec],
        connect: Sequence[str],
        metrics=None,
        cohort_id: int = 0,
        heartbeat_interval_s: float = 2.0,
        heartbeat_timeout_s: float = 10.0,
        request_timeout_s: Optional[float] = None,
        setup_timeout_s: float = 60.0,
        wire_format: str = "raw",
        tracing: bool = True,
    ):
        super().__init__(specs, metrics, cohort_id, wire_format, tracing)
        if not connect:
            raise ProtocolError(
                "the socket transport needs at least one worker address "
                "(connect=['host:port', ...])"
            )
        self.addresses = [parse_address(a) for a in connect]
        self.request_timeout_s = request_timeout_s

        client_kwargs = dict(
            heartbeat_interval_s=heartbeat_interval_s,
            heartbeat_timeout_s=heartbeat_timeout_s,
            setup_timeout_s=setup_timeout_s,
        )
        # Every container exists before any client is acquired, so the
        # except-path _shutdown can always run — a dead address
        # in the middle of `connect` must release (not leak) the
        # refcounts of clients already acquired.
        self._client_of: List[_SocketClient] = []
        self._clients: List[_SocketClient] = []  # distinct, acquire-counted
        self._slot_of: List[Optional[int]] = [None] * len(self.specs)
        self._listeners: List[Tuple[_SocketClient, object]] = []
        try:
            for shard in range(len(self.specs)):
                address = self.addresses[shard % len(self.addresses)]
                client = next(
                    (c for c in self._clients if c.address == address), None
                )
                if client is None:
                    client = _POOL.acquire(address, **client_kwargs)
                    self._clients.append(client)
                self._client_of.append(client)

            # Pin this transport's shards: one SessionSetup per
            # connection, batching every shard that rides it (other
            # cohorts' transports add their own slots to the same
            # connections independently).
            for client in self._clients:
                shards = [
                    s for s in range(len(self.specs))
                    if self._client_of[s] is client
                ]
                slots = client.allocate_slots(len(shards))
                entries = []
                for shard, slot in zip(shards, slots):
                    self._slot_of[shard] = slot
                    entries.append((slot, self.specs[shard]))
                # Register the slots for re-pin BEFORE the setup round
                # trip: a connection break landing between the ack and a
                # later registration would replay a SessionSetup missing
                # these slots, stranding them forever on a connection
                # that then looks healthy.  (On failure, _shutdown
                # removes them again.)
                with client._cv:
                    client._slot_specs.update(entries)
                if self.wire_format == "packed":
                    client.request_capability(CAP_PACKED_ARRAYS)
                if self.tracing:
                    client.request_capability(CAP_ROUND_TRACING)
                if any(
                    self.specs[s].supports_drains for s in shards
                ):
                    client.request_capability(CAP_BUFFERED_DRAINS)
                client.ensure_connected()  # a pooled client may be broken
                ack = client.pin(entries, setup_timeout_s)
                if set(ack.slots) != set(slots):
                    raise TransportError(
                        f"worker at {client.peer} acknowledged slots "
                        f"{ack.slots}, expected {slots}"
                    )
                listener = functools.partial(self._on_repin, client)
                client.add_repin_listener(listener)
                self._listeners.append((client, listener))
                if self._metrics is not None:
                    client.add_reconnect_sink(self._metrics, self.kind)
        except BaseException:
            self._shutdown()
            raise

    def _on_repin(self, client: _SocketClient) -> None:
        # The worker rebuilt this connection's sessions from their
        # specs: fresh pools, fresh counters.  Reset the local caches
        # to match.  (The reconnect itself is counted once per
        # physical connection by the client's reconnect sinks.)
        for shard, owner in enumerate(self._client_of):
            if owner is client:
                self._handles[shard]._absorb(0, SessionStats(), closed=False)

    # ------------------------------------------------------------------
    # what the shared scatter-gather asks of this lane
    # ------------------------------------------------------------------
    def _address(self, client: _SocketClient, shard_id: int, message) -> None:
        # Route by slot: the wire's shard_id field addresses the slot the
        # worker pinned this shard's session at (connection-unique, so
        # several cohorts can share the connection).
        message.shard_id = self._slot_of[shard_id]
        client.ensure_connected()
        # Packed encoding is only legal on a connection whose worker
        # acknowledged it — checked at send time (after ensure_connected)
        # because a reconnect may have landed this round on an older
        # worker since the request was staged.
        if getattr(message, "packed", False) and not client.supports(
            CAP_PACKED_ARRAYS
        ):
            message.packed = False
        # Same downgrade for tracing: a worker that never acked
        # CAP_ROUND_TRACING gets the pre-tracing frame (trace_id omitted
        # when zero), completes the round normally, and simply reports no
        # worker-side span — mixed versions interoperate.
        if getattr(message, "trace_id", 0) and not client.supports(
            CAP_ROUND_TRACING
        ):
            message.trace_id = 0

    def _client(self, shard_id: int) -> _SocketClient:
        return self._client_of[shard_id]

    def _require_buffered(self, shard_id: int, what: str) -> None:
        client = self._client_of[shard_id]
        client.ensure_connected()
        if not client.supports(CAP_BUFFERED_DRAINS):
            # Unlike packed/tracing there is no raw fallback frame an old
            # worker could serve, so fail loud.
            raise TransportError(
                f"worker at {client.peer} does not support {what} "
                "(CAP_BUFFERED_DRAINS not acknowledged)"
            )

    def _respec(self, shard_id: int, spec: ShardSessionSpec) -> None:
        # The client's re-pin registry is one more stored copy: a
        # reconnect after the re-key must replay a ``SessionSetup``
        # carrying the *new* geometry.
        super()._respec(shard_id, spec)
        client, slot = self._client_of[shard_id], self._slot_of[shard_id]
        with client._cv:
            if slot in client._slot_specs:
                client._slot_specs[slot] = spec

    @property
    def num_workers(self) -> int:
        return len(self._clients)

    @property
    def workers_alive(self) -> int:
        return sum(1 for client in self._clients if client.alive)

    def _shutdown(self) -> None:
        """Release this transport's slots and client references (also the
        constructor's failure path, so it tolerates partial state)."""
        for client, listener in self._listeners:
            client.remove_repin_listener(listener)
            if self._metrics is not None:
                client.remove_reconnect_sink(self._metrics, self.kind)
        self._listeners = []
        for client in self._clients:
            # _client_of may be shorter than specs (failed mid-init) and
            # slots may be unallocated (None): release what exists.
            slots = [
                self._slot_of[s]
                for s in range(len(self._client_of))
                if self._client_of[s] is client
                and self._slot_of[s] is not None
            ]
            if slots and client.alive:
                try:
                    client.request(
                        SessionTeardown(slots),
                        timeout=client.heartbeat_timeout_s,
                    )
                except (TransportError, ProtocolError):
                    pass
            with client._cv:
                for slot in slots:
                    client._slot_specs.pop(slot, None)
            _POOL.release(client)
        self._clients = []
        self._client_of = []

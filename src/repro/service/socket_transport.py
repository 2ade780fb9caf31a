"""The out-of-process lanes: one coordinator for every shard-worker host.

Every lane whose shard sessions live outside the coordinator's process
drives them the same way.  :class:`SocketTransport` pins each shard's
session on a shard-worker host (:mod:`repro.service.socket_worker`) with
a :class:`~repro.wire.SessionSetup`, then scatters one request per shard
and gathers every reply, in :mod:`repro.wire` frames over a stream
socket.  Where the hosts run is the only difference between lanes:

* ``socket`` — standalone ``repro shard-worker`` hosts at TCP
  ``connect`` addresses; the multi-host deployment backend.
* ``process`` — :class:`ProcessPoolTransport` spawns one host per
  worker as a child process over a ``socketpair`` and stages vector
  payloads in a coordinator-owned shared-memory segment, framing them
  only where ``/dev/shm`` cannot hold the segment.

Because every host builds sessions from the same
:class:`~repro.service.transport.ShardSessionSpec` seed paths, rounds
on every lane are bit-identical to inline rounds — the acceptance bar
the tests pin.

What every link gets from its :class:`_SocketClient`:

* **Response multiplexing.**  A draining receiver thread routes every
  reply to the thread awaiting it, by request id, so the online
  consumer and the background refiller share one link.
* **Connection supervision.**  A heartbeat thread pings the host
  (answered off its round path); a missed heartbeat or any socket error
  marks the link *broken*, waking every thread blocked on a response
  with :class:`~repro.exceptions.TransportError` — a lost or frozen
  shard mid-round surfaces as a typed error, never a hang.  The four
  timings involved are class constants of :class:`_SocketClient`.
* **Reconnect with re-pin (TCP only).**  The client's slot table names
  the :class:`~repro.service.transport.ShardHandle` behind every slot it
  pinned; the next request after a broken connection reconnects and
  replays each handle's current spec, so a killed-and-restarted worker
  rebuilds the sessions (from fresh seeds, see
  :meth:`~repro.service.transport.ShardHandle.pin_spec`) and the
  service completes subsequent rounds.  Requests that were in flight
  across the break fail with a stale-generation error rather than
  waiting for a response that died with the old connection.  A spawned host has no address: a broken
  link to it is final, and every later request fails at once with a
  ``TransportError`` naming the worker process.
* **Connection sharing (TCP only).**  Clients are pooled per address
  within the process, so many cohorts' transports batch their shards
  over one connection per worker host (each cohort holding its own slot
  ids); teardown releases one cohort's slots without touching its
  neighbours'.

Wire accounting is per request, so each transport's metrics reflect its
own traffic even on a shared connection.
"""

from __future__ import annotations

import itertools
import multiprocessing
import socket
import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ProtocolError, TransportError, WireError
from repro.field.arithmetic import FiniteField
from repro.obs import Span, current_trace, span
from repro.protocols.base import SessionStats
from repro.service.socket_worker import parse_address, serve_local
from repro.service.transport import (
    ShardHandle,
    ShardSessionSpec,
    ShardTransport,
)
from repro.wire import (
    FIELD_WORD,
    ErrorFrame,
    FrameAssembler,
    Ping,
    RefillRequest,
    RekeyRequest,
    SegmentArena,
    SessionSetup,
    SessionTeardown,
    SetupAck,
    ShardRoundRequest,
    ShmArrayRef,
    ShmRegistry,
    Shutdown,
    decode_message,
    encode_segments,
    recv_frames,
    send_segments,
)


def _narrow_into(matrix: np.ndarray, rows, gf: FiniteField) -> np.ndarray:
    """Copy ``rows`` into the ``<u4`` ``matrix``, the one narrowing.
    A ``<u4`` row is not scanned (the worker's session reduces words at
    or above ``q``); a wider row with a word the cast would cut to its
    low 32 bits is reduced first."""
    for b, row in enumerate(rows):
        if row.dtype != FIELD_WORD and row.max(initial=0) > 0xFFFFFFFF:
            row = gf.array(row)
        matrix[b] = row
    return matrix


def _close_socket(sock: socket.socket) -> None:
    """Shut down, then close: shutdown() wakes a thread blocked in
    recv() or send() on the socket, which close() alone would not."""
    for release in (lambda: sock.shutdown(socket.SHUT_RDWR), sock.close):
        try:
            release()
        except OSError:
            pass


class _SocketClient:
    """One supervised link to a shard-worker host.

    A draining receiver thread stores every awaited frame under its
    request id and wakes the waiters, so several coordinator threads can
    each await a different response on one link, and out-of-order
    completion (a round result overtaking a slow refill) routes
    correctly.  Because the receiver never stops reading, the scatter is
    also deadlock-free: a host serving several shards can always flush
    one shard's result and get back to reading the next request,
    whatever the frame size against the socket buffer.

    A link failure sets ``_broken``, which fails every current and
    future waiter fast; a *generation* counter invalidates requests
    stranded by a reconnect.  Given an ``address``, the client dials it
    and, once broken, reconnects and re-pins on the next request.  Given
    ``sock`` — one end of a socketpair whose other end the spawned worker
    ``process`` serves — it has nothing to redial.  ``shm`` resolves
    shared-memory references in replies (the process lane's).
    """

    #: Supervision timing, read at use time.  A frozen or dead peer fails
    #: its waiters within ``HEARTBEAT_INTERVAL_S + HEARTBEAT_TIMEOUT_S``.
    HEARTBEAT_INTERVAL_S = 2.0
    HEARTBEAT_TIMEOUT_S = 10.0
    CONNECT_TIMEOUT_S = 10.0
    SETUP_TIMEOUT_S = 60.0

    def __init__(
        self,
        address: Optional[Tuple[str, int]] = None,
        sock: Optional[socket.socket] = None,
        process=None,
        shm=None,
    ):
        self.address = address
        self.process = process
        self.peer = (
            process.name if process is not None
            else f"{address[0]}:{address[1]}"
        )
        self._shm = shm
        self.refs = 0  # guarded by the pool's registry lock
        self._ids = itertools.count(1)
        self._cv = threading.Condition()
        self._responses: Dict[int, Tuple[object, int]] = {}
        # Request id -> generation it was sent on, for every response a
        # thread still waits for; the receiver drops any other frame.
        self._outstanding: Dict[int, int] = {}
        self._broken: Optional[BaseException] = None
        self._next_slot = itertools.count(0)
        self._generation = 0
        self._closed = False
        self._send_lock = threading.Lock()
        self._reconnect_lock = threading.Lock()
        # slot -> the handle of the shard session pinned there
        self._pinned: Dict[int, ShardHandle] = {}
        self._stop_heartbeat = threading.Event()
        self._sock = sock if sock is not None else self._open_socket()
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
                self.address, timeout=self.CONNECT_TIMEOUT_S
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
                    (decode_message(frame, shm=self._shm), len(frame))
                    for frame in recv_frames(sock, assembler)
                ]
            except (EOFError, OSError, WireError) as exc:
                self._mark_broken(exc, generation)
                return
            with self._cv:
                if self._generation != generation:
                    return  # a reconnect superseded this socket
                for (request_id, message), nbytes in decoded:
                    # Nobody collects a response whose waiter gave up (or
                    # whose scatter aborted); storing it would leak it.
                    if request_id in self._outstanding:
                        self._responses[request_id] = (message, nbytes)
                self._cv.notify_all()

    def _mark_broken(self, exc: BaseException, generation: int) -> None:
        with self._cv:
            if self._generation != generation or self._broken is not None:
                return
            self._broken = exc
            sock, self._sock = self._sock, None
            self._cv.notify_all()
        if sock is not None:
            _close_socket(sock)

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
                if self.address is None:
                    # A spawned host cannot come back: fail now, typed,
                    # rather than dial nothing or wait on a heartbeat.
                    raise TransportError(
                        f"link to worker process {self.peer} is broken: "
                        f"{self._broken!r}"
                    )
            sock = self._open_socket()  # raises TransportError on failure
            with self._cv:
                self._generation += 1
                self._broken = None
                self._sock = sock
                self._responses.clear()  # old-generation frames can't arrive
                pinned = sorted(self._pinned.items())
            self._start_receiver()
            if pinned:
                try:
                    self.pin([(slot, h.pin_spec()) for slot, h in pinned])
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
        # The worker rebuilt every session from its spec: fresh pools,
        # fresh counters.  Reset the handle caches to match, and count
        # one metric event per distinct metrics sink, however many
        # transports share this connection.
        sinks = {}
        for _, handle in pinned:
            handle._absorb(0, SessionStats(), closed=False)
            transport = handle._transport
            if transport._metrics is not None:
                sinks[id(transport._metrics)] = transport
        for transport in sinks.values():
            transport._metrics.record_transport_reconnect(transport.kind)

    def pin(self, entries) -> None:
        """One ``SessionSetup`` round trip: build ``entries``' sessions on
        the worker, which must acknowledge exactly their slots."""
        ack = self.request(SessionSetup(entries), timeout=self.SETUP_TIMEOUT_S)
        slots = sorted(slot for slot, _ in entries)
        if not isinstance(ack, SetupAck) or sorted(ack.slots) != slots:
            raise TransportError(
                f"worker at {self.peer} answered session setup of slots "
                f"{slots} with {ack!r}"
            )

    def close(self) -> None:
        """Shutdown handshake (best-effort) and release the link.

        Called once no other thread is mid-request (by the pool at
        refcount zero, or by the transport owning a spawned host); the
        handshake runs *before* ``_closed`` flips so send/receive still
        work for it.  A spawned host then exits on its own, or is killed
        if it did not acknowledge.
        """
        with self._cv:
            if self._closed:
                return
            broken = self._broken is not None
        self._stop_heartbeat.set()
        acked = False
        if not broken:
            try:
                request_id = self.next_id()
                self.send(Shutdown(), request_id)
                self.receive(request_id, timeout=self.HEARTBEAT_TIMEOUT_S)
                acked = True
            except TransportError:
                pass
        with self._cv:
            self._closed = True
            sock, self._sock = self._sock, None
            self._generation += 1  # detach any receiver still attached
            self._cv.notify_all()
        if sock is not None:
            _close_socket(sock)
        if self.process is not None:
            self.process.join(self.HEARTBEAT_TIMEOUT_S if acked else 0)
            if self.process.is_alive():
                self.process.kill()  # also ends a SIGSTOPped host
                self.process.join()

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    def next_id(self) -> int:
        with self._cv:
            return next(self._ids)

    def allocate_slots(self, count: int) -> List[int]:
        with self._cv:
            return [next(self._next_slot) for _ in range(count)]

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
            self._outstanding[request_id] = generation
        try:
            with self._send_lock:
                send_segments(sock, segments)
        except OSError as exc:
            self._mark_broken(exc, generation)
            with self._cv:
                self._outstanding.pop(request_id, None)
            raise TransportError(
                f"failed to send {type(message).__name__} to {self.peer}: "
                f"{exc}"
            ) from exc
        return nbytes

    def receive(self, request_id: int, timeout: Optional[float] = None):
        """Block for one response; returns ``(message, frame_bytes)``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            try:
                while True:
                    if request_id in self._responses:
                        return self._responses.pop(request_id)
                    if self._broken is not None:
                        raise TransportError(
                            f"connection to {self.peer} broken with "
                            f"response {request_id} outstanding: "
                            f"{self._broken!r}"
                        )
                    if self._outstanding.get(request_id) != self._generation:
                        raise TransportError(
                            f"response {request_id} was lost to a "
                            f"reconnect; the request must be retried on "
                            f"the new session"
                        )
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise TransportError(
                                f"timed out awaiting response {request_id} "
                                f"from {self.peer}"
                            )
                    self._cv.wait(remaining)
            finally:
                # Collected, lost, or timed out: nobody waits for it now.
                self._outstanding.pop(request_id, None)

    def abandon(self, request_id: int) -> None:
        """Drop a response an aborted scatter will never collect."""
        with self._cv:
            self._outstanding.pop(request_id, None)
            self._responses.pop(request_id, None)

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
        while not self._stop_heartbeat.wait(self.HEARTBEAT_INTERVAL_S):
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
                    stamped = self._outstanding.get(
                        request_id, self._generation
                    )
                self.receive(request_id, timeout=self.HEARTBEAT_TIMEOUT_S)
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


class _ClientPool:
    """Process-wide registry sharing one client per worker address."""

    def __init__(self):
        self._lock = threading.Lock()
        self._clients: Dict[Tuple[str, int], _SocketClient] = {}

    def acquire(self, address: Tuple[str, int]) -> _SocketClient:
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
        candidate = _SocketClient(address)
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


def _absorb_worker_span(trace, shard_id: int, ws, kind: str) -> None:
    """Stitch a worker-reported timing block into the coordinator's trace.

    The worker's ``WorkerSpan`` becomes a ``shard_compute[i]`` span tagged
    with the *remote* pid/host (the proof the work ran off-process), with
    its queue dwell as a ``queue_wait`` child leading into compute.
    Worker and coordinator clocks are the same host clock for process
    workers and close enough for sockets — good enough for phase bars.
    """
    if trace is None or ws is None:
        return
    compute = Span(
        f"shard_compute[{shard_id}]",
        start=ws.compute_start_unix,
        end=ws.compute_start_unix + ws.compute_seconds,
        tags={"pid": str(ws.pid), "host": ws.host, "transport": kind},
    )
    if ws.queue_wait_seconds > 0:
        compute.children.append(
            Span(
                "queue_wait",
                start=ws.compute_start_unix - ws.queue_wait_seconds,
                end=ws.compute_start_unix,
                tags={"pid": str(ws.pid), "host": ws.host},
            )
        )
    trace.add_span(compute)


class SocketTransport(ShardTransport):
    """Shard sessions pinned on shard-worker hosts, driven in frames.

    ``connect`` lists TCP worker addresses (``host:port``); shards are
    assigned round-robin across them, and all shards sharing an address
    share one supervised connection (also with other cohorts' transports
    in this process).  :class:`ProcessPoolTransport` reuses everything
    but :meth:`_connect`, spawning its hosts instead.

    How a logical shard operation (round, drain, re-key, refill) is sent
    to every shard and its replies merged is decided here, once, for
    every lane: requests are *scattered* to all shards before any reply
    is *gathered*, so shard work overlaps; every reply is drained even
    when a shard fails or its link dies, so one bad operation (survivors
    below ``U``, a killed worker) leaves no frame stranded and the
    healthy links usable; and a library error that crossed the wire
    outranks a torn link when both occur.
    """

    kind = "socket"

    def __init__(
        self,
        specs: Sequence[ShardSessionSpec],
        connect: Sequence[str],
        metrics=None,
        cohort_id: int = 0,
    ):
        if not specs:
            raise ProtocolError("transport needs at least one shard spec")
        self._metrics = metrics
        self._cohort_id = int(cohort_id)
        self._gf = FiniteField(specs[0].field_modulus)
        self._round_ids = itertools.count(0)
        self._closed = False
        self._close_lock = threading.Lock()
        self._handles = [
            ShardHandle(self, shard, spec) for shard, spec in enumerate(specs)
        ]
        # Every container exists before any link is opened, so the
        # failure path's close() can always run — a dead address in the
        # middle of `connect` must release (not leak) the links already
        # opened.
        self._clients: List[_SocketClient] = []  # distinct links
        self._client_of: List[_SocketClient] = []  # per shard
        self._slot_of: List[Optional[int]] = [None] * len(specs)
        try:
            self._connect(connect)
            self._pin_all()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # links: open, pin, release
    # ------------------------------------------------------------------
    def _connect(self, connect: Sequence[str]) -> None:
        """Open the lane's links: one pooled client per worker address."""
        if not connect:
            raise ProtocolError(
                "the socket transport needs at least one worker address "
                "(connect=['host:port', ...])"
            )
        self.addresses = [parse_address(a) for a in connect]
        for shard in range(self.num_shards):
            address = self.addresses[shard % len(self.addresses)]
            client = next(
                (c for c in self._clients if c.address == address), None
            )
            if client is None:
                client = _POOL.acquire(address)
                self._clients.append(client)
            self._client_of.append(client)

    def _pin_all(self) -> None:
        """Pin this transport's shards: one SessionSetup per link,
        batching every shard that rides it (other cohorts' transports
        add their own slots to a shared connection independently)."""
        for client in self._clients:
            shards = [
                s for s in range(self.num_shards)
                if self._client_of[s] is client
            ]
            slots = client.allocate_slots(len(shards))
            pinned = {}
            for shard, slot in zip(shards, slots):
                self._slot_of[shard] = slot
                pinned[slot] = self._handles[shard]
            # Register the slots for re-pin BEFORE the setup round trip: a
            # connection break landing between the ack and a later
            # registration would replay a SessionSetup missing these
            # slots, stranding them forever on a connection that then
            # looks healthy.  (On failure, _shutdown removes them again.)
            with client._cv:
                client._pinned.update(pinned)
            client.ensure_connected()  # a pooled client may be broken
            client.pin([(slot, h.pin_spec()) for slot, h in pinned.items()])

    def _shutdown(self) -> None:
        """Release this transport's slots and client references (also the
        constructor's failure path, so it tolerates partial state)."""
        for client in self._clients:
            with client._cv:
                slots = [
                    slot for slot, handle in client._pinned.items()
                    if handle._transport is self
                ]
            if slots and client.alive:
                try:
                    client.request(
                        SessionTeardown(slots),
                        timeout=client.HEARTBEAT_TIMEOUT_S,
                    )
                except (TransportError, ProtocolError):
                    pass
            with client._cv:
                for slot in slots:
                    client._pinned.pop(slot, None)
            _POOL.release(client)

    # ------------------------------------------------------------------
    # one request on one shard's link
    # ------------------------------------------------------------------
    def _request(self, shard_id: int, message) -> Tuple[int, int]:
        """Send one request; returns ``(request_id, frame_bytes)``."""
        if self._closed:
            raise ProtocolError("session is closed")
        client = self._client_of[shard_id]
        # Route by slot: the wire's shard_id field addresses the slot the
        # worker pinned this shard's session at (connection-unique, so
        # several cohorts can share the connection).
        message.shard_id = self._slot_of[shard_id]
        client.ensure_connected()
        request_id = client.next_id()
        return request_id, client.send(message, request_id)

    def _await(self, shard_id: int, request_id: int):
        return self._client_of[shard_id].receive(request_id)

    # -- the per-request hook the process lane overrides --------------------
    def _stage(self, shard_id: int, rows: int):
        """``(matrix, refs, staged bytes)`` for one shard's request of
        ``rows`` rows: what they narrow into, and the request's
        shared-memory fields.  This lane frames them: a fresh matrix, no
        refs, 0 staged (``None`` on a lane that stages but framed them)."""
        shape = (rows, self._handles[shard_id].model_dim)
        return np.empty(shape, dtype=FIELD_WORD), {}, 0

    # ------------------------------------------------------------------
    # the scatter-gather, written once
    # ------------------------------------------------------------------
    def _scatter(self, make_request) -> Tuple[List[Tuple[int, int]], int]:
        """Send ``make_request(shard_id)`` to every shard, in shard order;
        returns the pending ``(shard_id, request_id)`` pairs and the
        bytes framed."""
        pending: List[Tuple[int, int]] = []
        bytes_sent = 0
        try:
            for shard_id in range(self.num_shards):
                request_id, nbytes = self._request(
                    shard_id, make_request(shard_id)
                )
                bytes_sent += nbytes
                pending.append((shard_id, request_id))
        except BaseException:
            # An aborted scatter (one link down) must not strand the
            # requests already sent to healthy workers: abandon them so
            # their responses are dropped on arrival, not leaked.
            for shard_id, request_id in pending:
                self._client_of[shard_id].abandon(request_id)
            raise
        return pending, bytes_sent

    def _gather(self, pending, absorb):
        """Collect *every* pending reply, then report.

        Returns ``(values, bytes_received, error)``: ``absorb(shard_id,
        message)`` per good reply (``None`` for a failed shard), and the
        first failure to raise once the drain is complete — a lost shard
        fails only its own slot, the rest are still collected.
        """
        values: list = []
        bytes_received = 0
        refused: Optional[ErrorFrame] = None
        lost: Optional[TransportError] = None
        for shard_id, request_id in pending:
            value = None
            try:
                message, nbytes = self._await(shard_id, request_id)
            except TransportError as exc:
                lost = lost or exc
            else:
                bytes_received += nbytes
                if isinstance(message, ErrorFrame):
                    refused = refused or message
                else:
                    # Every reply carries the shard's pool state: refresh
                    # the handle cache here, for every operation alike.
                    self._handles[shard_id]._absorb(
                        message.pool_level, message.stats,
                        getattr(message, "closed", None),
                    )
                    value = absorb(shard_id, message)
            values.append(value)
        # Library errors (a shard's DropoutError crossing the wire) take
        # precedence; a torn connection surfaces as TransportError.
        return values, bytes_received, refused or lost

    @staticmethod
    def _raise(error) -> None:
        if isinstance(error, ErrorFrame):
            error.raise_()
        if error is not None:
            raise error

    def aggregate_all(self, weights, per_shard_rows, dropouts):
        """Scatter one request per shard, then gather every result.

        Rounds and drains alike: the request is the weighted aggregate.
        Staged payload bytes, both ways, count as ``shm_bytes``.
        """
        if len(per_shard_rows) != self.num_shards:
            raise ProtocolError(
                f"expected {self.num_shards} shard update slices, got "
                f"{len(per_shard_rows)}"
            )
        t0 = time.perf_counter()
        op_id = next(self._round_ids)
        trace = current_trace()
        shm_bytes = 0
        framed = False
        stalled_shards = 0

        def request_for(shard_id):
            nonlocal shm_bytes, framed
            rows = per_shard_rows[shard_id]
            matrix, refs, staged = self._stage(shard_id, len(rows))
            request = ShardRoundRequest(
                shard_id=shard_id, round_id=op_id, weights=weights,
                updates=_narrow_into(matrix, rows, self._gf),
                dropouts=set(dropouts), **refs,
            )
            framed |= staged is None
            shm_bytes += staged or 0
            if trace is not None:
                request.trace_id = trace.trace_id
            return request

        def absorb(shard_id, message):
            nonlocal shm_bytes, stalled_shards
            stalled_shards += int(message.stalled)
            _absorb_worker_span(
                trace, shard_id, message.worker_span, self.kind
            )
            if message.aggregate_ref is not None:
                shm_bytes += message.aggregate_ref.nbytes
            return message.to_result()

        with span("shard_scatter", transport=self.kind):
            pending, bytes_sent = self._scatter(request_for)
        with span("shard_gather", transport=self.kind):
            results, bytes_received, error = self._gather(pending, absorb)
        if self._metrics is not None:
            # Per-request accounting: only this operation's own frames
            # count, not concurrent background-refill traffic on the same
            # links.
            self._metrics.record_transport_round(
                self.kind,
                time.perf_counter() - t0,
                bytes_sent=bytes_sent,
                bytes_received=bytes_received,
                stalled_shards=stalled_shards,
                shm_bytes=shm_bytes,
                shm_fallbacks=int(framed),
            )
        self._raise(error)
        return results

    # ------------------------------------------------------------------
    # ShardTransport surface
    # ------------------------------------------------------------------
    @property
    def shard_handles(self) -> Sequence[ShardHandle]:
        return self._handles

    @property
    def gf(self) -> FiniteField:
        return self._gf

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def num_workers(self) -> int:
        return len(self._clients)

    @property
    def workers_alive(self) -> int:
        if self._closed:
            return 0
        return sum(1 for client in self._clients if client.alive)

    def rekey_all(self, num_users: int) -> int:
        """Re-key every shard's worker session for a new member count."""
        def absorb(shard_id, message):
            # The handle's spec is the one a later reconnect re-pins: it
            # must carry the *new* geometry.
            handle = self._handles[shard_id]
            handle.spec = replace(handle.spec, num_users=num_users)
            return max(0, -int(message.rounds_added))

        pending, _ = self._scatter(
            lambda shard_id: RekeyRequest(shard_id, num_users)
        )
        invalidated, _, error = self._gather(pending, absorb)
        self._raise(error)
        return sum(invalidated)

    def refill_all(self, rounds: Optional[int] = None) -> int:
        """Scatter refills to every shard, then join — encodes overlap."""
        pending, _ = self._scatter(
            lambda shard_id: RefillRequest(shard_id, rounds)
        )
        added, _, error = self._gather(
            pending, lambda shard_id, message: int(message.rounds_added)
        )
        self._raise(error)
        return max(added)

    def close(self) -> None:
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._shutdown()
        for handle in self._handles:
            handle.close()

    def __del__(self):  # best-effort; daemon workers die with the parent
        try:
            self.close()
        except Exception:
            pass


class ProcessPoolTransport(SocketTransport):
    """Shard sessions pinned in long-lived shard-worker child processes.

    Each of ``num_workers`` children runs the shard-worker host
    (:func:`~repro.service.socket_worker.serve_local`) over one end of a
    ``socketpair``; this transport holds the other end in the same
    supervised client the ``socket`` lane uses, so frames, slots,
    heartbeats and the Shutdown handshake are the socket lane's.
    ``num_workers`` defaults to one worker per shard; shard ``s`` lives
    on worker ``s % num_workers``, so fewer workers host several shards
    each, whose rounds then serialize on that worker's round thread —
    capacity is traded explicitly, never silently dropped.

    Vector payloads go through a coordinator-owned shared-memory segment
    (one region pair per shard, sized for the member count at
    construction) and frames carry only ``(name, offset)`` references,
    so element bytes never transit the socket.  Regions are reused round
    over round — safe because at most one round per shard is in flight —
    and the segment is unlinked in :meth:`close` (with a ``__del__``
    backstop), so a worker dying mid-round cannot leak ``/dev/shm``
    entries.  A request rides the frame instead when ``/dev/shm`` could
    not hold the segment, or when its rows outgrew their region; each
    such round counts in the lane's ``shm_fallbacks``.
    """

    kind = "process"

    # None until _connect makes them, so a failed construction's close()
    # releases only what exists; the arena stays None for good when
    # /dev/shm cannot hold it.
    _arena: Optional[SegmentArena] = None
    _registry: Optional[ShmRegistry] = None

    def __init__(
        self,
        specs: Sequence[ShardSessionSpec],
        num_workers: Optional[int] = None,
        metrics=None,
        cohort_id: int = 0,
    ):
        if num_workers is not None and num_workers < 1:
            raise ProtocolError(
                f"need >= 1 worker process, got {num_workers}"
            )
        self._workers = min(num_workers or len(specs), len(specs))
        super().__init__(
            specs, connect=(), metrics=metrics, cohort_id=cohort_id
        )

    def _connect(self, connect) -> None:
        """Reserve one request/response region pair per shard, then spawn
        one shard-worker host per worker, each over a socketpair."""
        # (req_off, resp_off, rows the request region holds)
        self._regions: List[Tuple[int, int, int]] = []
        offset = 0
        word = FIELD_WORD.itemsize
        for handle in self._handles:
            rows, width = handle.spec.num_users, handle.spec.shard_dim
            self._regions.append((offset, offset + rows * width * word, rows))
            offset += (rows + 1) * width * word
        try:
            self._arena = SegmentArena(offset)
        except OSError:
            resolve = None  # no segment: every request rides the frame
        else:
            self._registry = ShmRegistry()
            self._registry.add_local(self._arena)
            resolve = self._registry.resolve
        ctx = multiprocessing.get_context()
        for worker in range(self._workers):
            ours, theirs = socket.socketpair()
            name = f"shard-worker-{self._cohort_id}-{worker}"
            process = ctx.Process(
                target=serve_local, args=(theirs, name), name=name,
                daemon=True,
            )
            try:
                process.start()
            except BaseException:
                ours.close()
                raise
            finally:
                # Closed here before the next fork, so only this child
                # holds its end and its death reads as EOF on ours.
                theirs.close()
            self._clients.append(
                _SocketClient(sock=ours, process=process, shm=resolve)
            )
        self._client_of = [
            self._clients[s % self._workers] for s in range(self.num_shards)
        ]

    def _shutdown(self) -> None:
        # The hosts are private: no slots to hand back, no neighbours to
        # spare.  Each link's Shutdown handshake lets a refill in flight
        # finish before its host exits.
        for client in self._clients:
            client.close()
        # Segment teardown strictly after worker teardown: the workers
        # hold attachments, and unlinking first would turn a late round
        # into a crash instead of a clean shutdown error.
        if self._registry is not None:
            self._registry.close()
        if self._arena is not None:
            self._arena.close()

    # -- payload staging (the per-request hook) --------------------------
    def _stage(self, shard_id: int, rows: int):
        """The shard's arena region, and the refs that frame in place of
        the rows.  The rows ride the frame instead, staged bytes
        ``None``, when there is no arena or when they outnumber what the
        region was sized for at construction (a drain after a join grew
        the member set): resizing the arena would leave the replaced
        segment mapped in the worker."""
        req_off, resp_off, capacity = self._regions[shard_id]
        if self._arena is None or rows > capacity:
            matrix, refs, _ = super()._stage(shard_id, rows)
            return matrix, refs, None
        width = self._handles[shard_id].model_dim
        matrix = self._arena.ndarray(req_off, (rows, width), FIELD_WORD)
        name, word = self._arena.name, FIELD_WORD.str
        refs = dict(
            updates_ref=ShmArrayRef(name, req_off, (rows, width), word),
            result_ref=ShmArrayRef(name, resp_off, (width,), word),
        )
        return matrix, refs, matrix.nbytes

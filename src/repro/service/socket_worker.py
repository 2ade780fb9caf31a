"""The shard-worker host: serve shard sessions over a stream socket.

Every out-of-process lane runs its shards here.  A multi-host deployment
runs it next to each worker machine's cores (``repro shard-worker
--listen host:port``, :class:`ShardWorkerServer`); the same-host lanes
spawn it as a child process over one end of a ``socketpair``
(:func:`serve_local`).  Either way one :class:`_Connection` serves one
coordinator link, speaking :mod:`repro.wire` frames reassembled from the
byte stream by :class:`~repro.wire.stream.FrameAssembler` and written
back with vectored sends.

Execution model, per connection:

* The *receive* thread reads frames and dispatches.  :class:`Ping`
  heartbeats are echoed from here immediately, so connection
  supervision stays live while a slow round — or a slow session build —
  executes.
* A *round* thread serves round, re-key and session setup requests in
  arrival order — the latency-critical path, serialized per
  connection.
* A *refill* thread runs pool top-ups, so refills overlap rounds on the
  same connection (the session's pool lock is the only coupling).

What a shard request *means* is not decided here: both serving threads
hand it to :func:`repro.service.worker.serve_request`.

Sessions are built *here*, from declarative
:class:`~repro.service.transport.ShardSessionSpec` entries carried by
:class:`~repro.wire.SessionSetup` frames — nothing live ever crosses
the link.  Each spec is bound to a *slot*, the shard index the
coordinator addresses it by; a coordinator opens its own connection per
host, so one connection carries one cohort's shards, and the host serves
several cohorts over several connections.  All responses carry their
request's id, so out-of-order completion across the two serving threads
routes correctly on the coordinator.

Only a locally spawned host gets a :class:`~repro.wire.ShmRegistry`, so
only it resolves frames that reference the coordinator's shared-memory
segments; a TCP-accepted connection refuses them.

A connection's sessions die with it: on EOF, error,
:class:`~repro.wire.Shutdown`, or the server stopping, every session the
connection hosts is closed.  Reconnecting coordinators re-pin by
replaying their ``SessionSetup`` (see ``SocketTransport``), which
rebuilds the sessions from the specs, each re-pinned seed extended so
the rebuilt pools hold fresh masks.
"""

from __future__ import annotations

import functools
import queue
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import TransportError, WireError
from repro.field.arithmetic import FiniteField
from repro.service.worker import serve_request
from repro.wire import (
    ErrorFrame,
    FrameAssembler,
    Ping,
    RefillRequest,
    SessionSetup,
    SetupAck,
    ShmRegistry,
    Shutdown,
    decode_message,
    encode_segments,
    recv_frames,
    send_segments,
)


def parse_address(text: str) -> Tuple[str, int]:
    """Parse ``host:port`` (host may be empty for all-interfaces)."""
    host, sep, port = text.strip().rpartition(":")
    if not sep or not port.isdigit():
        raise TransportError(
            f"bad address {text!r}; expected host:port (e.g. 127.0.0.1:7000)"
        )
    return host or "0.0.0.0", int(port)


class _Connection:
    """One coordinator link: its sessions, threads, and send lock.

    ``registry`` (local hosts only) resolves shared-memory references in
    requests and receives aggregates placed at their ``result_ref``;
    ``on_close`` is called once the link is torn down.
    """

    def __init__(
        self,
        sock: socket.socket,
        peer: str,
        registry: Optional[ShmRegistry] = None,
        on_close: Optional[Callable[["_Connection"], None]] = None,
    ):
        self.sock = sock
        self.peer = peer
        self.registry = registry
        self._on_close = on_close
        self.sessions: Dict[int, object] = {}
        self._sessions_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._fields: Dict[int, FiniteField] = {}
        self._round_queue = queue.SimpleQueue()
        self._refill_queue = queue.SimpleQueue()
        self._closed = False  # guarded by _sessions_lock
        self._threads = [
            threading.Thread(
                target=self._recv_loop, name=f"shard-host-recv-{peer}",
                daemon=True,
            ),
            threading.Thread(
                target=self._serve_loop, args=(self._round_queue,),
                name=f"shard-host-round-{peer}", daemon=True,
            ),
            threading.Thread(
                target=self._serve_loop, args=(self._refill_queue,),
                name=f"shard-host-refill-{peer}", daemon=True,
            ),
        ]

    def start(self) -> None:
        # The serving threads first: a Shutdown the receive thread reads
        # at once joins them, and a thread never started cannot be
        # joined.
        for thread in reversed(self._threads):
            thread.start()

    def wait(self) -> None:
        """Block until the link has ended (its receive thread returned)."""
        self._threads[0].join()

    # ------------------------------------------------------------------
    def _send(self, message, request_id: int) -> None:
        segments = encode_segments(message, request_id)
        with self._send_lock:
            send_segments(self.sock, segments)

    def _session(self, slot: int):
        with self._sessions_lock:
            session = self.sessions.get(slot)
        if session is None:
            raise TransportError(
                f"no session pinned at slot {slot}; send SessionSetup first"
            )
        return session

    # ------------------------------------------------------------------
    # receive thread: dispatch; heartbeats answered here, instantly
    # ------------------------------------------------------------------
    def _recv_loop(self) -> None:
        assembler = FrameAssembler()
        try:
            while not self._closed:
                try:
                    frames = recv_frames(self.sock, assembler)
                except (EOFError, OSError):
                    return  # coordinator went away; sessions die below
                except WireError:
                    return  # stream desynchronized; nothing sane to say
                for frame in frames:
                    try:
                        if self._dispatch(frame):
                            return  # clean shutdown handshake completed
                    except (OSError, WireError):
                        return  # peer vanished mid-reply / bad frame
        finally:
            self.close()

    def _dispatch(self, frame: bytes) -> bool:
        """Route one frame; returns True when the connection should end."""
        request_id, message = decode_message(
            frame,
            shm=self.registry.resolve if self.registry is not None else None,
        )
        if isinstance(message, Ping):
            self._send(message, request_id)
            return False
        if isinstance(message, Shutdown):
            # Contract: queued work (a refill in flight included)
            # completes and its responses are delivered before the
            # shutdown is acknowledged.
            self._drain_queues()
            self._close_sessions()
            try:
                self._send(Shutdown(), request_id)
            except OSError:
                pass
            return True
        # Everything else is served off this thread.  Session builds can
        # take seconds at large pool geometries; running them (like
        # rounds) on the serving thread keeps this recv thread free to
        # echo heartbeats, so a slow re-pin is never mistaken for a dead
        # connection.  The enqueue stamp is where a traced round's
        # queue-wait clock starts: the dwell between arrival here and the
        # round thread picking it up is real cross-shard head-of-line
        # blocking.
        work = (
            self._refill_queue
            if isinstance(message, RefillRequest)
            else self._round_queue
        )
        work.put((request_id, message, time.time()))
        return False

    def _pin(self, slot: int, spec) -> int:
        modulus = spec.field_modulus
        gf = self._fields.setdefault(modulus, FiniteField(modulus))
        session = spec.build(gf)
        with self._sessions_lock:
            previous = self.sessions.get(slot)
            self.sessions[slot] = session
        if previous is not None:
            previous.close()  # re-pin replaces the slot's session
        return slot

    # ------------------------------------------------------------------
    # serving threads
    # ------------------------------------------------------------------
    def _serve_loop(self, work: queue.SimpleQueue) -> None:
        """Serve one queue's requests in arrival order (round or refill
        thread); shard requests go to the one shared handler."""
        for request_id, message, enqueued_at in iter(work.get, None):
            reply = functools.partial(self._send, request_id=request_id)
            try:
                if isinstance(message, SessionSetup):
                    reply(self._apply_setup(message))
                else:
                    serve_request(
                        message, self._session, reply, enqueued_at,
                        registry=self.registry,
                    )
            except OSError:
                return  # peer gone mid-response

    def _apply_setup(self, message):
        """Apply a SessionSetup; returns its reply."""
        try:
            return SetupAck(
                [self._pin(slot, spec) for slot, spec in message.entries]
            )
        except Exception as exc:  # noqa: BLE001 - forwarded to peer
            return ErrorFrame.from_exception(0, exc)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def _drain_queues(self) -> None:
        """Stop both serving threads after their queued work completes."""
        self._round_queue.put(None)
        self._refill_queue.put(None)
        for thread in self._threads[1:]:
            if thread is not threading.current_thread():
                thread.join()

    def _close_sessions(self) -> None:
        with self._sessions_lock:
            sessions, self.sessions = dict(self.sessions), {}
        for session in sessions.values():
            session.close()

    def close(self) -> None:
        """Release everything the link holds.  Runs exactly once, whether
        the receive thread (EOF, error, Shutdown) or the server stopping
        gets here first."""
        with self._sessions_lock:
            if self._closed:
                return
            self._closed = True
        try:
            # shutdown() wakes a receive thread blocked in recv(); close()
            # alone would leave it pinned to the kernel socket.
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        self._round_queue.put(None)
        self._refill_queue.put(None)
        self._close_sessions()
        if self.registry is not None:
            self.registry.close()
        if self._on_close is not None:
            self._on_close(self)


def serve_local(sock: socket.socket, peer: str) -> None:
    """Host one coordinator link for the whole life of a spawned worker.

    The target of the child processes behind the same-host lanes
    (``ProcessPoolTransport``): the coordinator holds the other end of
    ``sock``'s socketpair.  The registry lets requests reference the
    coordinator's shared-memory segments; it only ever attaches, and it
    detaches when the link ends.
    """
    connection = _Connection(sock, peer, registry=ShmRegistry())
    connection.start()
    connection.wait()


class ShardWorkerServer:
    """A TCP shard-worker host: ``repro shard-worker --listen host:port``.

    Tests (and single-host demos) run it in-process::

        with ShardWorkerServer("127.0.0.1", 0) as server:
            config = ServiceConfig(
                transport=TransportKind.SOCKET, connect=(server.address,),
                ...,
            )

    ``port=0`` binds an ephemeral port, published via :attr:`address`.
    ``stop()`` is abrupt by design — it models the worker being killed —
    so coordinator reconnect/re-pin paths can be exercised by stopping
    one server and starting another on the same address.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        # create_server sets SO_REUSEADDR on POSIX, so a restarted worker
        # can rebind the same port immediately (the kill/restart story).
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._connections: List[_Connection] = []
        self._lock = threading.Lock()
        self._stopped = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def connection_count(self) -> int:
        with self._lock:
            return len(self._connections)

    def start(self) -> "ShardWorkerServer":
        if self._accept_thread is not None:
            return self
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"shard-host-accept-{self.port}",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener shut down by stop()
            if self._stopped.is_set():
                # stop() raced the accept: this connection must not be
                # served by a half-dead server.
                sock.close()
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # No registry: a remote peer must never make this host map
            # /dev/shm segments, so frames carrying shm refs are refused.
            connection = _Connection(
                sock, f"{peer[0]}:{peer[1]}", on_close=self._forget
            )
            with self._lock:
                self._connections.append(connection)
            connection.start()

    def _forget(self, connection: _Connection) -> None:
        with self._lock:
            if connection in self._connections:
                self._connections.remove(connection)

    def stop(self) -> None:
        """Close the listener and kill every connection (idempotent)."""
        self._stopped.set()
        try:
            # close() alone does not wake a thread blocked in accept()
            # (the syscall pins the kernel socket, which would keep
            # silently accepting into the backlog); shutdown() does.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def serve_forever(self, poll_s: float = 0.2,
                      max_seconds: Optional[float] = None) -> None:
        """Block until :meth:`stop` (or ``max_seconds``); for the CLI."""
        self.start()
        deadline = None if max_seconds is None else (
            time.monotonic() + max_seconds
        )
        while not self._stopped.wait(poll_s):
            if deadline is not None and time.monotonic() >= deadline:
                self.stop()
                return

    def __enter__(self) -> "ShardWorkerServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

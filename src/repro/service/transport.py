"""Transport abstraction between the shard coordinator and shard sessions.

PR 3's :class:`~repro.service.sharding.ShardedSession` called each
per-shard session directly, so every shard round and every refill encode
ran in one Python process, serialized by the GIL.  This module makes the
coordinator/session boundary explicit so the *same* coordinator code
drives either:

* :class:`InlineTransport` — the sessions live in this process and are
  called directly.  Bit-identical to the pre-transport behaviour
  (including rng forwarding), and the baseline the process backend is
  verified against.
* :class:`ProcessPoolTransport` — each shard's session is pinned inside
  a long-lived ``multiprocessing`` worker and spoken to in
  :mod:`repro.wire` frames over a duplex pipe.  Round requests are
  *scattered* to all workers before any result is *gathered*, so shard
  rounds run on separate cores; refills run on a dedicated thread inside
  each worker, so pool top-ups overlap both with other shards' encodes
  and with rounds on the same worker.
* :class:`~repro.service.socket_transport.SocketTransport` (its own
  module) — the same frames over TCP to standalone ``repro
  shard-worker`` hosts, adding heartbeat supervision and reconnect with
  session re-pin; the multi-host deployment backend.

The two frame-speaking lanes share one coordinator
(:class:`FrameTransport`: the scatter-gather for rounds, drains, re-keys
and refills, written once over a lane's request/await channel) and one
worker-side handler (:func:`repro.service.worker.serve_request`); a lane
adds only its channel and lifecycle.

Both backends expose the per-shard sessions as *handles* with the
:class:`~repro.protocols.base.ProtocolSession` pool surface
(``pool_level`` / ``needs_refill`` / ``refill`` / ``stats`` ...), so the
background refiller and the metrics layer treat local sessions and
remote workers uniformly.  Remote handles serve those properties from a
cache refreshed by every frame that crosses the wire — polling
``needs_refill`` never costs a round trip.

Sessions are constructed *in the worker* from a picklable
:class:`ShardSessionSpec`, never shipped across the boundary; the inline
backend builds from the same spec, which is what makes "process-backed
rounds are bit-identical to inline" hold by construction (identical
seeded rng streams on both sides).

Shutdown contract: :meth:`ShardTransport.close` delivers a
:class:`~repro.wire.Shutdown` frame to every worker; a worker finishes a
refill already in flight (its material still lands in the pool and its
response frame is still delivered), closes its sessions, acknowledges,
and exits.  Workers are daemons and are terminated as a last resort if
they fail to acknowledge within the shutdown timeout.
"""

from __future__ import annotations

import abc
import itertools
import multiprocessing
import os
import queue
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ProtocolError, TransportError, WireError
from repro.field.arithmetic import FiniteField
from repro.field.prime import DEFAULT_PRIME
from repro.obs import Span, current_trace, span
from repro.protocols.base import AggregationResult, SessionStats
from repro.service.worker import HOSTNAME, require_support, serve_request
from repro.wire import (
    ErrorFrame,
    RefillRequest,
    RekeyRequest,
    SegmentArena,
    ShardDrainRequest,
    ShardRoundRequest,
    ShmArrayRef,
    ShmRegistry,
    SnapshotRequest,
    Shutdown,
    decode_message,
    encode_message,
)

TRANSPORT_KINDS = ("inline", "process", "socket", "shm")

#: Element encodings a transport can put on the wire: ``raw`` ships
#: little-endian words, ``packed`` bit-packs at the data's width (peers
#: that never advertised CAP_PACKED_ARRAYS still get raw frames).
WIRE_FORMATS = ("raw", "packed")

#: Seconds a closing process transport waits on each step of a worker's
#: exit (Shutdown ack, join, terminate, receiver reap).
SHUTDOWN_TIMEOUT_S = 10.0


def _absorb_worker_span(trace, shard_id: int, ws, kind: str) -> None:
    """Stitch a worker-reported timing block into the coordinator's trace.

    The worker's ``WorkerSpan`` becomes a ``shard_compute[i]`` span tagged
    with the *remote* pid/host (the proof the work ran off-process), with
    its pipe/queue dwell as a ``queue_wait`` child leading into compute.
    Worker and coordinator clocks are the same host clock for process/shm
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


@dataclass(frozen=True)
class ShardSessionSpec:
    """Everything needed to build one shard's protocol session anywhere.

    Pure data (picklable) so a worker process can construct the session
    locally.  ``seed`` is the full derivation path — typically
    ``(service_seed, cohort_id, shard_id)`` — fed to
    ``np.random.default_rng``, so inline and process backends draw
    identical mask/padding streams and their pools are bit-identical.
    """

    protocol: str  # "lightsecagg" | "lightsecagg-buffered"
    num_users: int
    shard_dim: int
    privacy: int
    dropout_tolerance: int
    pool_size: int
    low_water: int
    seed: Tuple[int, ...]
    field_modulus: int = DEFAULT_PRIME

    @property
    def supports_drains(self) -> bool:
        return self.protocol == "lightsecagg-buffered"

    def build(self, gf: Optional[FiniteField] = None):
        """Construct the protocol and open its session."""
        from repro.protocols.lightsecagg.params import LSAParams
        from repro.protocols.lightsecagg.protocol import LightSecAgg

        if self.protocol not in ("lightsecagg", "lightsecagg-buffered"):
            raise ProtocolError(f"unknown shard protocol {self.protocol!r}")
        gf = gf if gf is not None else FiniteField(self.field_modulus)
        params = LSAParams.from_guarantees(
            self.num_users,
            privacy=self.privacy,
            dropout_tolerance=self.dropout_tolerance,
        )
        protocol = LightSecAgg(gf, params, self.shard_dim)
        rng = np.random.default_rng(list(self.seed))
        if self.protocol == "lightsecagg-buffered":
            from repro.asyncfl.pooled import BufferedShardSession

            return BufferedShardSession(
                protocol,
                pool_size=self.pool_size,
                rng=rng,
                low_water=self.low_water,
            )
        return protocol.session(
            pool_size=self.pool_size,
            rng=rng,
            low_water=self.low_water,
        )


class ShardTransport(abc.ABC):
    """Scatter/gather execution of shard rounds and refills.

    The coordinator (``ShardedSession``) owns the :class:`ShardPlan` and
    the scatter/gather of *vectors*; the transport owns the scatter and
    gather of *work*: one round request per shard, one refill per needy
    shard, against sessions living wherever the backend puts them.
    """

    kind: str = "abstract"

    #: Worker processes / hosts behind the lane, and how many answer;
    #: lanes that compute in the coordinator's process have none.
    num_workers: int = 0
    workers_alive: int = 0

    @property
    @abc.abstractmethod
    def shard_handles(self) -> Sequence:
        """Session-like objects, one per shard, in shard order."""

    @property
    def num_shards(self) -> int:
        return len(self.shard_handles)

    @abc.abstractmethod
    def run_all(
        self,
        per_shard_updates: List[Dict[int, np.ndarray]],
        dropouts: Set[int],
        rng: Optional[np.random.Generator] = None,
        **phase_kwargs,
    ) -> List[AggregationResult]:
        """One logical round: every shard sees the same dropout sets."""

    @abc.abstractmethod
    def refill_all(self, rounds: Optional[int] = None) -> int:
        """Top up every shard's pool; returns the max rounds added."""

    @abc.abstractmethod
    def drain_all(
        self,
        weights: np.ndarray,
        per_shard_updates: List[np.ndarray],
        recovery_dropouts: Set[int],
    ) -> List[AggregationResult]:
        """One buffered drain across every shard (buffered sessions only).

        ``weights`` is the shared ``(B,)`` staleness-weight vector;
        ``per_shard_updates[s]`` the ``(B, shard_width)`` slice of the
        unweighted quantized deliveries, rows in buffer order.
        """

    @abc.abstractmethod
    def rekey_all(self, num_users: int) -> int:
        """Re-key every shard for a new member count; returns the total
        pooled rounds invalidated (buffered sessions only)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release all shard sessions (idempotent)."""

    @property
    @abc.abstractmethod
    def closed(self) -> bool: ...


class InlineTransport(ShardTransport):
    """Direct calls into sessions owned by this process (the baseline).

    Deliberately *not* routed through message objects: that would add an
    ``N x d`` stack copy to every round and lose rng / ``phase_kwargs``
    forwarding.  Rounds and drains share one per-shard loop instead.
    """

    kind = "inline"

    def __init__(self, sessions: Sequence, metrics=None, cohort_id: int = 0):
        if not sessions:
            raise ProtocolError("transport needs at least one shard session")
        self._sessions = list(sessions)
        self._metrics = metrics
        self._cohort_id = int(cohort_id)

    @classmethod
    def from_specs(
        cls,
        specs: Sequence[ShardSessionSpec],
        gf: Optional[FiniteField] = None,
        metrics=None,
        cohort_id: int = 0,
    ) -> "InlineTransport":
        return cls(
            [spec.build(gf) for spec in specs],
            metrics=metrics,
            cohort_id=cohort_id,
        )

    @property
    def shard_handles(self) -> Sequence:
        return self._sessions

    @property
    def gf(self) -> FiniteField:
        return self._sessions[0].gf

    def _each_shard(self, per_shard_updates, call) -> List[AggregationResult]:
        """Run ``call(shard_id, session, updates)`` on every shard in order."""
        if len(per_shard_updates) != len(self._sessions):
            raise ProtocolError(
                f"expected {len(self._sessions)} shard update slices, got "
                f"{len(per_shard_updates)}"
            )
        t0 = time.perf_counter()
        misses_before = sum(s.stats.pool_misses for s in self._sessions)
        results = []
        for shard_id, (session, updates) in enumerate(
            zip(self._sessions, per_shard_updates)
        ):
            # Inline shards compute on this thread: the span nests any
            # offline_refill/mask_encode the session opens underneath it.
            with span(
                f"shard_compute[{shard_id}]",
                pid=str(os.getpid()),
                host=HOSTNAME,
                transport=self.kind,
            ):
                results.append(call(shard_id, session, updates))
        if self._metrics is not None:
            # A shard whose round ran an inline refill is a stalled shard,
            # the same quantity the process backend reports per round.
            stalled = (
                sum(s.stats.pool_misses for s in self._sessions)
                - misses_before
            )
            self._metrics.record_transport_round(
                self.kind, time.perf_counter() - t0, bytes_sent=0,
                bytes_received=0, stalled_shards=stalled,
            )
        return results

    def run_all(self, per_shard_updates, dropouts, rng=None, **phase_kwargs):
        return self._each_shard(
            per_shard_updates,
            lambda shard_id, session, updates: session.run_round(
                updates, set(dropouts), rng, **phase_kwargs
            ),
        )

    def refill_all(self, rounds: Optional[int] = None) -> int:
        return max(session.refill(rounds) for session in self._sessions)

    def drain_all(self, weights, per_shard_updates, recovery_dropouts):
        def drain(shard_id, session, updates):
            require_support(session, shard_id, "drain", "drains")
            return session.drain(weights, updates, set(recovery_dropouts))

        return self._each_shard(per_shard_updates, drain)

    def rekey_all(self, num_users: int) -> int:
        invalidated = 0
        for shard_id, session in enumerate(self._sessions):
            require_support(session, shard_id, "rekey", "re-keying")
            invalidated += session.rekey(num_users)
        return invalidated

    def close(self) -> None:
        for session in self._sessions:
            session.close()

    @property
    def closed(self) -> bool:
        return any(session.closed for session in self._sessions)


# ----------------------------------------------------------------------
# frame-speaking lanes: the shared coordinator side
# ----------------------------------------------------------------------
class _ResponseMux:
    """Routes response frames to the threads awaiting them, by request id.

    Multiple coordinator threads (the online consumer, the background
    refiller) may each be awaiting a different response on the same
    channel.  The owning client's receiver thread drains *every*
    incoming frame into ``_responses`` keyed by request id and wakes
    waiters, so out-of-order completion (a round result overtaking a
    slow refill) routes correctly.  A channel failure sets ``_broken``,
    which fails every current and future waiter fast instead of leaving
    it blocked on a response that died with the channel.
    """

    peer: str  # names the far end in error messages; set by the owner

    def __init__(self):
        self._ids = itertools.count(1)
        self._cv = threading.Condition()
        self._responses: Dict[int, Tuple[object, int]] = {}
        self._abandoned: Set[int] = set()  # ids whose response is dropped
        self._broken: Optional[BaseException] = None

    def next_id(self) -> int:
        with self._cv:
            return next(self._ids)

    def _store_locked(self, request_id: int, message, nbytes: int) -> None:
        if request_id in self._abandoned:
            # Nobody will ever collect this (its waiter timed out or its
            # scatter aborted); storing it would leak the frame.
            self._abandoned.discard(request_id)
        else:
            self._responses[request_id] = (message, nbytes)

    def _lost_locked(self, request_id: int) -> Optional[str]:
        """Why ``request_id``'s response can never arrive, if it cannot."""
        if self._broken is not None:
            return (
                f"connection to {self.peer} broken with response "
                f"{request_id} outstanding: {self._broken!r}"
            )
        return None

    def receive(self, request_id: int, timeout: Optional[float] = None):
        """Block for one response; returns ``(message, frame_bytes)``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            while True:
                if request_id in self._responses:
                    return self._responses.pop(request_id)
                lost = self._lost_locked(request_id)
                if lost is not None:
                    raise TransportError(lost)
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._abandon_locked(request_id)
                        raise TransportError(
                            f"timed out awaiting response {request_id} "
                            f"from {self.peer}"
                        )
                self._cv.wait(remaining)

    def _abandon_locked(self, request_id: int) -> None:
        """Drop all bookkeeping for a request nobody will collect."""
        if (
            self._responses.pop(request_id, None) is None
            and self._broken is None  # a broken channel delivers nothing more
        ):
            self._abandoned.add(request_id)

    def abandon(self, request_id: int) -> None:
        """Public form of :meth:`_abandon_locked` for aborted scatters."""
        with self._cv:
            self._abandon_locked(request_id)


class ShardHandle:
    """Session-surface proxy for one shard pinned behind a frame lane.

    Pool properties are served from a cache refreshed by every response
    frame for this shard (round results, refill snapshots), so the
    background refiller's ``needs_refill`` polling costs no wire traffic.
    ``refill_begin`` / ``refill_join`` split the refill into a scatter
    and a gather half so the refiller can overlap top-ups across shards.
    """

    def __init__(self, transport: "FrameTransport", shard_id: int,
                 spec: ShardSessionSpec):
        self._transport = transport
        self.shard_id = shard_id
        self.spec = spec
        self.stats = SessionStats()
        self.pool_size = spec.pool_size
        self.low_water = spec.low_water
        self._pool_level = 0
        self._closed = False

    # -- cache maintenance (called by the transport) --------------------
    def _absorb(self, pool_level: int, stats: SessionStats,
                closed: Optional[bool] = None) -> None:
        self._pool_level = int(pool_level)
        self.stats = stats
        if closed is not None:
            self._closed = closed

    # -- ProtocolSession pool surface -----------------------------------
    @property
    def num_users(self) -> int:
        return self.spec.num_users

    @property
    def pool_level(self) -> int:
        return self._pool_level

    @property
    def closed(self) -> bool:
        return self._closed or self._transport.closed

    @property
    def needs_refill(self) -> bool:
        if self.closed:
            return False
        level = self.pool_level
        return level < self.pool_size and level <= self.low_water

    def refill(self, rounds: Optional[int] = None) -> int:
        return self.refill_join(self.refill_begin(rounds))

    def refill_begin(self, rounds: Optional[int] = None) -> int:
        """Scatter half: dispatch the refill, return a join ticket."""
        if self.closed:
            raise ProtocolError("session is closed")
        request_id, _ = self._transport._request(
            self.shard_id, RefillRequest(self.shard_id, rounds)
        )
        return request_id

    def refill_join(self, ticket: int) -> int:
        """Gather half: block until the worker's refill completes."""
        return int(self._join_snapshot(ticket).rounds_added)

    def sync(self) -> "ShardHandle":
        """Refresh the cache with an explicit snapshot round trip."""
        request_id, _ = self._transport._request(
            self.shard_id, SnapshotRequest(self.shard_id)
        )
        self._join_snapshot(request_id)
        return self

    def _join_snapshot(self, request_id: int):
        message, _ = self._transport._await(self.shard_id, request_id)
        if isinstance(message, ErrorFrame):
            message.raise_()
        self._absorb(message.pool_level, message.stats, message.closed)
        return message

    def offline_elements(self) -> int:
        """Offline-traffic accounting is not carried over the wire."""
        return 0

    def close(self) -> None:
        self._closed = True

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shard={self.shard_id}, "
            f"pool={self.pool_level}/{self.pool_size}, "
            f"rounds={self.stats.rounds})"
        )


class FrameTransport(ShardTransport):
    """The one scatter-gather behind every lane that speaks wire frames.

    How a logical shard operation (round, drain, re-key, refill) is sent
    to every shard and its replies merged is decided here, once.  A lane
    supplies the channel — :meth:`_client`, the multiplexed client a
    shard's frames ride — and only what is truly its own: spawn/shutdown,
    payload staging, connection supervision, slot addressing and
    capability downgrade.

    The contract every lane therefore shares: requests are *scattered*
    to all shards before any reply is *gathered*, so shard work overlaps;
    every reply is drained even when a shard fails or its channel dies,
    so one bad operation (survivors below ``U``, a killed worker) leaves
    no frame stranded and the healthy channels usable; and a library
    error that crossed the wire outranks a torn channel when both occur.
    """

    #: Per-reply deadline; ``None`` waits for the channel to answer or
    #: break (lanes with supervision turn a dead peer into the latter).
    request_timeout_s: Optional[float] = None

    def __init__(self, specs: Sequence[ShardSessionSpec], metrics,
                 cohort_id: int, wire_format: str, tracing: bool = True):
        if not specs:
            raise ProtocolError("transport needs at least one shard spec")
        if wire_format not in WIRE_FORMATS:
            raise ProtocolError(
                f"unknown wire format {wire_format!r}; expected one of "
                f"{WIRE_FORMATS}"
            )
        self.specs = list(specs)
        self.wire_format = wire_format
        self.tracing = bool(tracing)
        self._metrics = metrics
        self._cohort_id = int(cohort_id)
        self._gf = FiniteField(self.specs[0].field_modulus)
        self._round_ids = itertools.count(0)
        self._closed = False
        self._close_lock = threading.Lock()
        self._handles = [
            ShardHandle(self, shard, spec)
            for shard, spec in enumerate(self.specs)
        ]

    # -- the channel a lane provides ---------------------------------------
    def _client(self, shard_id: int) -> _ResponseMux:
        """The multiplexed channel shard ``shard_id``'s frames ride (a
        mux that can also ``send(message, request_id) -> nbytes``)."""
        raise NotImplementedError

    def _address(self, client, shard_id: int, message) -> None:
        """Last touch before a frame is sent: lanes that re-address or
        downgrade requests per connection do it here."""

    def _request(self, shard_id: int, message) -> Tuple[int, int]:
        """Send one request; returns ``(request_id, frame_bytes)``."""
        if self._closed:
            raise ProtocolError("session is closed")
        client = self._client(shard_id)
        self._address(client, shard_id, message)
        request_id = client.next_id()
        return request_id, client.send(message, request_id)

    def _await(self, shard_id: int, request_id: int,
               timeout: Optional[float] = None):
        return self._client(shard_id).receive(
            request_id,
            timeout=self.request_timeout_s if timeout is None else timeout,
        )

    # -- per-request hooks a lane may override -----------------------------
    def _round_request(self, shard_id, round_id, updates, dropouts,
                       offline_dropouts) -> Tuple[ShardRoundRequest, int]:
        """Build one shard's round request; returns it with the bytes
        staged outside the frame (none, unless the lane stages payloads)."""
        request = ShardRoundRequest.from_updates(
            shard_id, round_id, updates, dropouts, offline_dropouts,
            packed=self.wire_format == "packed",
        )
        return request, 0

    def _round_result(self, message) -> Tuple[AggregationResult, int]:
        """Rebuild one shard's result; returns it with the bytes read
        from outside the frame."""
        return message.to_result(), 0

    def _require_buffered(self, shard_id: int, what: str) -> None:
        """Refuse ``what`` (drains, re-keying) if the shard's peer cannot
        serve it; lanes whose peers are always current need no check."""

    def _respec(self, shard_id: int, spec: ShardSessionSpec) -> None:
        """Refresh every stored copy of a shard's spec after a re-key, so
        a later worker restart rebuilds the *new* geometry."""
        self.specs[shard_id] = spec
        self._handles[shard_id].spec = spec

    # -- the scatter-gather, written once ----------------------------------
    def _scatter(self, make_request) -> Tuple[List[Tuple[int, int]], int]:
        """Send ``make_request(shard_id)`` to every shard, in shard order;
        returns the pending ``(shard_id, request_id)`` pairs and the
        bytes framed."""
        pending: List[Tuple[int, int]] = []
        bytes_sent = 0
        try:
            for shard_id in range(len(self.specs)):
                request_id, nbytes = self._request(
                    shard_id, make_request(shard_id)
                )
                bytes_sent += nbytes
                pending.append((shard_id, request_id))
        except BaseException:
            # An aborted scatter (one channel down) must not strand the
            # requests already sent to healthy workers: abandon them so
            # their responses are dropped on arrival, not leaked.
            for shard_id, request_id in pending:
                self._client(shard_id).abandon(request_id)
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

    def _compute_all(self, per_shard_updates, make_request):
        """One round or drain: scatter, gather, account, raise.

        ``make_request(shard_id, op_id)`` and :meth:`_round_result` each
        return their value plus the payload bytes moved outside frames.
        """
        if len(per_shard_updates) != len(self.specs):
            raise ProtocolError(
                f"expected {len(self.specs)} shard update slices, got "
                f"{len(per_shard_updates)}"
            )
        t0 = time.perf_counter()
        op_id = next(self._round_ids)
        trace = current_trace() if self.tracing else None
        shm_bytes = 0
        stalled_shards = 0

        def request_for(shard_id):
            nonlocal shm_bytes
            request, staged = make_request(shard_id, op_id)
            shm_bytes += staged
            if trace is not None:
                request.trace_id = trace.trace_id
            return request

        def absorb(shard_id, message):
            nonlocal shm_bytes, stalled_shards
            stalled_shards += int(message.stalled)
            _absorb_worker_span(
                trace, shard_id, message.worker_span, self.kind
            )
            result, read = self._round_result(message)
            shm_bytes += read
            return result

        with span("shard_scatter", transport=self.kind):
            pending, bytes_sent = self._scatter(request_for)
        with span("shard_gather", transport=self.kind):
            results, bytes_received, error = self._gather(pending, absorb)
        if self._metrics is not None:
            # Per-request accounting: only this operation's own frames
            # count, not concurrent background-refill traffic on the same
            # channels.
            self._metrics.record_transport_round(
                self.kind,
                time.perf_counter() - t0,
                bytes_sent=bytes_sent,
                bytes_received=bytes_received,
                stalled_shards=stalled_shards,
                shm_bytes=shm_bytes,
            )
        self._raise(error)
        return results

    # -- ShardTransport surface ----------------------------------------------
    @property
    def shard_handles(self) -> Sequence[ShardHandle]:
        return self._handles

    @property
    def gf(self) -> FiniteField:
        return self._gf

    @property
    def closed(self) -> bool:
        return self._closed

    def run_all(self, per_shard_updates, dropouts, rng=None, **phase_kwargs):
        """Scatter one round request per shard, then gather every result.

        The caller's ``rng`` cannot cross a process boundary and is
        ignored; online rounds of pooled sessions draw nothing from it.
        """
        offline_dropouts = phase_kwargs.pop("offline_dropouts", None)
        if phase_kwargs:
            raise TransportError(
                f"the {self.kind} transport cannot forward phase kwargs "
                f"{sorted(phase_kwargs)} over the wire"
            )
        return self._compute_all(
            per_shard_updates,
            lambda shard_id, round_id: self._round_request(
                shard_id, round_id, per_shard_updates[shard_id], dropouts,
                offline_dropouts,
            ),
        )

    def drain_all(self, weights, per_shard_updates, recovery_dropouts):
        """Scatter one buffered drain per shard, then gather every result.

        Drain payloads always ride the frame (even on the shm lane): a
        drain matrix is ``(B, width)`` with ``B <= N`` rows of *buffered*
        deliveries, and the shm arena's request regions are sized for
        the fixed member count at construction — re-keying can grow the
        buffer past them, so the frame is the lane that stays correct
        across membership churn.
        """
        weights = np.asarray(weights, dtype=np.uint64)

        def drain_request(shard_id, drain_id):
            self._require_buffered(shard_id, "buffered drains")
            return ShardDrainRequest(
                shard_id=shard_id,
                drain_id=drain_id,
                weights=weights,
                updates=per_shard_updates[shard_id],
                recovery_dropouts=set(recovery_dropouts),
                packed=self.wire_format == "packed",
            ), 0

        return self._compute_all(per_shard_updates, drain_request)

    def rekey_all(self, num_users: int) -> int:
        """Re-key every shard's worker session for a new member count."""
        def rekey_request(shard_id):
            self._require_buffered(shard_id, "re-keying")
            return RekeyRequest(shard_id, num_users)

        def absorb(shard_id, message):
            self._respec(
                shard_id, replace(self.specs[shard_id], num_users=num_users)
            )
            return max(0, -int(message.rounds_added))

        pending, _ = self._scatter(rekey_request)
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

    def _shutdown(self) -> None:
        """Release the lane's workers and channels (called once)."""
        raise NotImplementedError

    def __del__(self):  # best-effort; daemon workers die with the parent
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# process backend: worker side
# ----------------------------------------------------------------------
def _worker_serve(conn, specs: Dict[int, ShardSessionSpec]) -> None:
    """Serve loop of one shard worker process.

    The main thread handles round requests (the latency-critical path);
    refills run on a single local thread so a round arriving mid-refill
    is served as soon as the session's pool lock allows, exactly like the
    in-process consumer/refiller pairing.  All sends share one lock; all
    responses carry their request's id, so ordering across the two
    threads is irrelevant.  What each request *means* is
    :func:`repro.service.worker.serve_request`, shared with the socket
    worker host.

    The worker's segment attachments are cache-per-process
    (:class:`ShmRegistry`) and detached on exit; it never unlinks —
    segments belong to the coordinator.
    """
    gf = None
    sessions = {}
    for shard_id, spec in sorted(specs.items()):
        if gf is None:
            gf = FiniteField(spec.field_modulus)
        sessions[shard_id] = spec.build(gf)
    send_lock = threading.Lock()
    registry = ShmRegistry()

    def send(message, request_id: int) -> None:
        frame = encode_message(message, request_id)
        with send_lock:
            conn.send_bytes(frame)

    def serve(message, request_id: int) -> None:
        # Rounds are served straight off the pipe on this thread, so no
        # enqueue stamp: there is no measurable queue dwell to report.
        serve_request(
            message, sessions.__getitem__,
            lambda reply: send(reply, request_id), registry=registry,
        )

    refill_queue: "queue.Queue" = queue.Queue()

    def refill_loop() -> None:
        for item in iter(refill_queue.get, None):
            serve(*item)

    refiller = threading.Thread(
        target=refill_loop, name="shard-worker-refill", daemon=True
    )
    refiller.start()

    try:
        while True:
            try:
                frame = conn.recv_bytes()
            except (EOFError, OSError):
                return  # coordinator died; daemon exit
            request_id, message = decode_message(frame, shm=registry.resolve)
            if isinstance(message, Shutdown):
                # Contract: a refill in flight completes (and its response
                # is delivered) before the shutdown is acknowledged.
                refill_queue.put(None)
                refiller.join()
                for session in sessions.values():
                    session.close()
                send(Shutdown(), request_id)
                return
            if isinstance(message, RefillRequest):
                refill_queue.put((message, request_id))
            else:
                serve(message, request_id)
    finally:
        refill_queue.put(None)
        registry.close()


# ----------------------------------------------------------------------
# process backend: coordinator side
# ----------------------------------------------------------------------
class _WorkerClient(_ResponseMux):
    """One worker process plus the receiver thread draining its pipe.

    The always-draining receiver is what makes the scatter phase
    deadlock-free: a worker hosting several shards can flush the result
    of shard ``k`` (the coordinator side of its pipe is always being
    read) and return to its own ``recv`` loop, which in turn unblocks
    the coordinator's possibly-buffer-full send of shard ``k+1``'s
    request.  Neither side ever holds a full pipe while waiting for the
    other to read first, regardless of frame size vs. OS pipe buffer.
    """

    def __init__(self, process, conn, shm_resolver=None):
        super().__init__()
        self.process = process
        self.peer = process.name
        self.conn = conn
        self._shm_resolver = shm_resolver
        self._send_lock = threading.Lock()
        self._receiver = threading.Thread(
            target=self._recv_loop,
            name=f"{process.name}-recv",
            daemon=True,
        )
        self._receiver.start()

    def _recv_loop(self) -> None:
        while True:
            try:
                frame = self.conn.recv_bytes()
                request_id, message = decode_message(
                    frame, shm=self._shm_resolver
                )
            except (EOFError, OSError, WireError) as exc:
                with self._cv:
                    self._broken = exc
                    self._cv.notify_all()
                return
            with self._cv:
                self._store_locked(request_id, message, len(frame))
                self._cv.notify_all()

    def send(self, message, request_id: int) -> int:
        frame = encode_message(message, request_id)
        try:
            with self._send_lock:
                self.conn.send_bytes(frame)
        except (OSError, ValueError) as exc:
            raise TransportError(
                f"failed to send {type(message).__name__} to worker: {exc}"
            ) from exc
        return len(frame)


class ProcessPoolTransport(FrameTransport):
    """Shard sessions pinned in long-lived multiprocessing workers.

    ``num_workers`` defaults to one worker per shard (the layout the
    refactor exists for); fewer workers host multiple shards each, whose
    rounds then serialize on that worker's main thread — capacity is
    traded explicitly, never silently dropped.

    Two bandwidth knobs ride on top of the pipe protocol:

    * ``wire_format="packed"`` bit-packs update matrices and aggregates
      at their max's bit width (~2x smaller for 31-bit field elements
      stored as u64) — worth it even same-host, since pipe writes cost
      a kernel copy per byte;
    * ``payload_mode="shm"`` stages vector payloads in a coordinator-
      owned shared-memory segment (one region pair per shard) and frames
      only ``(name, offset)`` references, so element bytes never transit
      the pipe at all.  Regions are reused round over round — safe
      because at most one round per shard is in flight — and the
      segment is unlinked in :meth:`close` (with a ``__del__``
      backstop), so a worker dying mid-round cannot leak ``/dev/shm``
      entries.
    """

    kind = "process"

    def __init__(
        self,
        specs: Sequence[ShardSessionSpec],
        num_workers: Optional[int] = None,
        metrics=None,
        cohort_id: int = 0,
        wire_format: str = "raw",
        payload_mode: str = "pipe",
    ):
        super().__init__(specs, metrics, cohort_id, wire_format)
        if num_workers is not None and num_workers < 1:
            raise ProtocolError(
                f"need >= 1 worker process, got {num_workers}"
            )
        if payload_mode not in ("pipe", "shm"):
            raise ProtocolError(
                f"unknown payload mode {payload_mode!r}; expected "
                f"'pipe' or 'shm'"
            )
        self.num_workers = min(num_workers or len(specs), len(specs))
        self.payload_mode = payload_mode
        if payload_mode == "shm":
            # Report under a distinct metrics lane: the whole point of
            # the mode is a different wire_bytes profile.
            self.kind = "shm"

        self._arena: Optional[SegmentArena] = None
        self._regions: List[Tuple[int, int]] = []  # (req_off, resp_off)
        self._registry: Optional[ShmRegistry] = None
        shm_resolver = None
        if payload_mode == "shm":
            offset = 0
            for spec in self.specs:
                req_nbytes = spec.num_users * spec.shard_dim * 8
                resp_nbytes = spec.shard_dim * 8
                self._regions.append((offset, offset + req_nbytes))
                offset += req_nbytes + resp_nbytes
            self._arena = SegmentArena(offset)
            self._registry = ShmRegistry()
            self._registry.add_local(self._arena)
            shm_resolver = self._registry.resolve

        ctx = multiprocessing.get_context()
        self._clients: List[_WorkerClient] = []
        self._worker_of = [s % self.num_workers for s in range(len(specs))]
        for worker in range(self.num_workers):
            assigned = {
                shard: spec
                for shard, spec in enumerate(self.specs)
                if self._worker_of[shard] == worker
            }
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_serve,
                args=(child_conn, assigned),
                name=f"shard-worker-{cohort_id}-{worker}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._clients.append(
                _WorkerClient(process, parent_conn, shm_resolver=shm_resolver)
            )

    def _client(self, shard_id: int) -> _WorkerClient:
        return self._clients[self._worker_of[shard_id]]

    @property
    def workers_alive(self) -> int:
        return sum(1 for c in self._clients if c.process.is_alive())

    # -- shm payload staging (per-request hooks) -------------------------
    def _round_request(self, shard_id, round_id, updates, dropouts,
                       offline_dropouts):
        """In shm mode, write the shard's update matrix into its arena
        region and frame only the references."""
        if self._arena is None:
            return super()._round_request(
                shard_id, round_id, updates, dropouts, offline_dropouts
            )
        req_off, resp_off = self._regions[shard_id]
        width = self.specs[shard_id].shard_dim
        user_ids = sorted(updates)
        shape = (len(user_ids), width) if user_ids else (0, 0)
        matrix = self._arena.ndarray(req_off, shape)
        for i, uid in enumerate(user_ids):
            matrix[i] = updates[uid]
        request = ShardRoundRequest(
            shard_id=shard_id,
            round_id=round_id,
            user_ids=user_ids,
            updates=matrix,
            dropouts=set(dropouts),
            offline_dropouts=set(offline_dropouts or set()),
            updates_ref=ShmArrayRef(
                name=self._arena.name, offset=req_off, shape=shape
            ),
            result_ref=ShmArrayRef(
                name=self._arena.name, offset=resp_off, shape=(width,)
            ),
        )
        return request, matrix.nbytes

    def _round_result(self, message):
        result, _ = super()._round_result(message)
        if message.aggregate_ref is None:
            return result, 0
        # The aggregate aliases this shard's response region, which the
        # next round will overwrite — detach it.
        result.aggregate = np.array(result.aggregate)
        return result, result.aggregate.nbytes

    def _shutdown(self) -> None:
        acks = []
        for client in self._clients:
            try:
                request_id = client.next_id()
                client.send(Shutdown(), request_id)
                acks.append((client, request_id))
            except TransportError:
                acks.append((client, None))
        for client, request_id in acks:
            if request_id is not None:
                try:
                    client.receive(request_id, timeout=SHUTDOWN_TIMEOUT_S)
                except TransportError:
                    pass  # fall through to join/terminate
            client.process.join(timeout=SHUTDOWN_TIMEOUT_S)
            if client.process.is_alive():
                client.process.terminate()
                client.process.join(timeout=SHUTDOWN_TIMEOUT_S)
            # Worker exit delivered EOF to the receiver thread; reap it
            # before closing our connection end.
            client._receiver.join(timeout=SHUTDOWN_TIMEOUT_S)
            client.conn.close()
        # Segment teardown strictly after worker teardown: the workers
        # hold attachments, and unlinking first would turn a late round
        # into a crash instead of a clean shutdown error.
        if self._registry is not None:
            self._registry.close()
        if self._arena is not None:
            self._arena.close()


def build_transport(
    kind: str,
    specs: Sequence[ShardSessionSpec],
    gf: Optional[FiniteField] = None,
    num_workers: Optional[int] = None,
    metrics=None,
    cohort_id: int = 0,
    connect: Optional[Sequence[str]] = None,
    wire_format: str = "raw",
    tracing: bool = True,
) -> ShardTransport:
    """Construct the configured transport backend from shard specs.

    ``connect`` lists ``host:port`` worker addresses for the ``socket``
    backend (shards round-robin across them); the other backends reject
    it, like ``num_workers`` outside ``process``/``shm``.
    ``wire_format="packed"`` bit-packs vector payloads where the peer
    supports it (``inline`` has no wire and ignores it; ``shm`` passes
    vectors by reference, which supersedes packing).  ``tracing=False``
    keeps the socket backend from even *requesting* CAP_ROUND_TRACING,
    so its frames stay byte-identical to the pre-tracing format; the
    local backends need no flag (they only propagate a trace_id when a
    trace is active on the calling thread).
    """
    if kind == "inline":
        return InlineTransport.from_specs(
            specs, gf=gf, metrics=metrics, cohort_id=cohort_id
        )
    if kind in ("process", "shm"):
        return ProcessPoolTransport(
            specs, num_workers=num_workers, metrics=metrics,
            cohort_id=cohort_id, wire_format=wire_format,
            payload_mode="shm" if kind == "shm" else "pipe",
        )
    if kind == "socket":
        # Local import: the socket backend pulls in this module's spec
        # and handle types, so a top-level import would be a cycle.
        from repro.service.socket_transport import SocketTransport

        return SocketTransport(
            specs, connect=connect or (), metrics=metrics,
            cohort_id=cohort_id, wire_format=wire_format, tracing=tracing,
        )
    raise ProtocolError(
        f"unknown transport {kind!r}; expected one of {TRANSPORT_KINDS}"
    )

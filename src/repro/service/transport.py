"""Transport abstraction between the shard coordinator and shard sessions.

:class:`~repro.service.sharding.ShardedSession` owns the shard plan and
the scatter/gather of *vectors*; a transport owns where each shard's
session runs and how work reaches it, so the *same* coordinator code
drives every lane:

* :class:`InlineTransport` — the sessions live in this process and are
  called directly; the baseline every other lane is verified against.
* :class:`~repro.service.socket_transport.SocketTransport` — each
  shard's session is pinned on a ``repro shard-worker`` host and spoken
  to in :mod:`repro.wire` frames over a stream socket, with heartbeat
  supervision.  Hosts at TCP addresses are the multi-host deployment
  backend (``socket``); :class:`~repro.service.socket_transport.ProcessPoolTransport`
  spawns the same host as local child processes over socketpairs
  (``process``), and its subclass
  :class:`~repro.service.socket_transport.ShmTransport` adds
  shared-memory payload staging (``shm``).  Shard
  requests are *scattered* to all workers before any result is
  *gathered*, so shard rounds run on separate cores; refills run on a
  dedicated thread inside each host, so pool top-ups overlap both with
  other shards' encodes and with rounds on the same host.

Every lane serves one operation, :meth:`ShardTransport.aggregate_all`:
the weighted aggregate of ``B`` update rows per shard, which each
shard's session computes with ``drain``.  A synchronous round is the
call whose ``N`` member rows are weighted 1 on survivors and 0 on
dropouts; a buffered drain passes its staleness weights.

Out-of-process shards are exposed as :class:`ShardHandle` objects with
the :class:`~repro.protocols.base.ProtocolSession` pool surface
(``pool_level`` / ``needs_refill`` / ``refill`` / ``stats`` ...), so the
background refiller and the metrics layer treat local sessions and
remote workers uniformly.  Handles serve those properties from a cache
refreshed by every frame that crosses the wire — polling
``needs_refill`` never costs a round trip.

Sessions are constructed *in the worker* from a picklable
:class:`ShardSessionSpec`, never shipped across the boundary; the inline
backend builds from the same spec, which is what makes "out-of-process
rounds are bit-identical to inline" hold by construction (identical
seeded rng streams on both sides).

Shutdown contract: :meth:`ShardTransport.close` releases every worker; a
local host gets a :class:`~repro.wire.Shutdown` frame, finishes a refill
already in flight (its material still lands in the pool and its
response frame is still delivered), closes its sessions, acknowledges,
and exits.  A host that fails to acknowledge is killed.
"""

from __future__ import annotations

import abc
import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ProtocolError
from repro.field.arithmetic import FiniteField
from repro.field.prime import DEFAULT_PRIME
from repro.obs import span
from repro.protocols.base import AggregationResult, SessionStats
from repro.service.config import TransportKind
from repro.service.worker import HOSTNAME
from repro.wire import ErrorFrame, RefillRequest


def parse_enum(kind, name, what: str):
    """``kind(name)``, refusing a name outside the enum with a typed
    :class:`ProtocolError` that lists the names it accepts."""
    try:
        return kind(name)
    except ValueError:
        raise ProtocolError(
            f"unknown {what} {name!r}; expected one of "
            f"{tuple(member.value for member in kind)}"
        ) from None


@dataclass(frozen=True)
class ShardSessionSpec:
    """Everything needed to build one shard's protocol session anywhere.

    Pure data (picklable) so a worker process can construct the session
    locally.  ``seed`` is the full derivation path — typically
    ``(service_seed, cohort_id, shard_id)`` — fed to
    ``np.random.default_rng``, so inline and process backends draw
    identical mask/padding streams and their pools are bit-identical.
    """

    protocol: str  # "lightsecagg": every cohort kind runs one session class
    num_users: int
    shard_dim: int
    privacy: int
    dropout_tolerance: int
    pool_size: int
    low_water: int
    seed: Tuple[int, ...]
    field_modulus: int = DEFAULT_PRIME

    def build(self, gf: Optional[FiniteField] = None):
        """Construct the protocol and open its session."""
        from repro.protocols.lightsecagg.params import LSAParams
        from repro.protocols.lightsecagg.protocol import LightSecAgg

        # "lightsecagg-buffered" is an older name for the same session,
        # still spelled by the e2e benchmark's layer probes.
        if self.protocol not in ("lightsecagg", "lightsecagg-buffered"):
            raise ProtocolError(f"unknown shard protocol {self.protocol!r}")
        gf = gf if gf is not None else FiniteField(self.field_modulus)
        params = LSAParams.from_guarantees(
            self.num_users,
            privacy=self.privacy,
            dropout_tolerance=self.dropout_tolerance,
        )
        return LightSecAgg(gf, params, self.shard_dim).session(
            pool_size=self.pool_size,
            rng=np.random.default_rng(list(self.seed)),
            low_water=self.low_water,
        )


class ShardTransport(abc.ABC):
    """Scatter/gather execution of shard aggregates and refills.

    The coordinator (``ShardedSession``) owns the :class:`ShardPlan` and
    the scatter/gather of *vectors*; the transport owns the scatter and
    gather of *work*: one aggregate request per shard, one refill per
    needy shard, against sessions living wherever the backend puts them.
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
    def aggregate_all(
        self,
        weights: np.ndarray,
        per_shard_rows: List[Sequence[np.ndarray]],
        dropouts: Set[int],
    ) -> List[AggregationResult]:
        """One weighted aggregate across every shard: a round or a drain.

        ``weights`` is the shared ``(B,)`` weight vector (0/1 for a
        synchronous round, staleness weights for a drain);
        ``per_shard_rows[s]`` holds shard ``s``'s ``B`` update rows, as
        a ``(B, shard_width)`` matrix or a sequence of 1-D rows, row
        ``b`` spending mask slot ``b``; ``dropouts`` are the member
        slots missing from recovery, the same on every shard.
        """

    @abc.abstractmethod
    def refill_all(self, rounds: Optional[int] = None) -> int:
        """Top up every shard's pool; returns the max rounds added."""

    @abc.abstractmethod
    def rekey_all(self, num_users: int) -> int:
        """Re-key every shard for a new member count; returns the total
        pooled rounds invalidated."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release all shard sessions (idempotent)."""

    @property
    @abc.abstractmethod
    def closed(self) -> bool: ...


class InlineTransport(ShardTransport):
    """Direct calls into sessions owned by this process (the baseline).

    Deliberately *not* routed through message objects: each shard's
    session drains the caller's per-user row views as they are, where a
    request would first stack them into an ``N x d`` copy.
    """

    kind = "inline"

    def __init__(self, sessions: Sequence, metrics=None, cohort_id: int = 0):
        if not sessions:
            raise ProtocolError("transport needs at least one shard session")
        for s, session in enumerate(sessions):
            # Every shard operation is a weighted drain, so a session
            # without one (a replay session) cannot serve a shard.
            if not hasattr(session, "drain"):
                raise ProtocolError(
                    f"shard {s} session {type(session).__name__} has no "
                    "drain; only pooled LightSecAgg sessions shard"
                )
        if len({session.gf for session in sessions}) != 1:
            raise ProtocolError("shard sessions disagree on the field")
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

    def aggregate_all(self, weights, per_shard_rows, dropouts):
        if len(per_shard_rows) != len(self._sessions):
            raise ProtocolError(
                f"expected {len(self._sessions)} shard update slices, got "
                f"{len(per_shard_rows)}"
            )
        t0 = time.perf_counter()
        misses_before = sum(s.stats.pool_misses for s in self._sessions)
        results = []
        for shard_id, (session, rows) in enumerate(
            zip(self._sessions, per_shard_rows)
        ):
            # Inline shards compute on this thread: the span nests any
            # offline_refill/mask_encode the session opens underneath it.
            with span(
                f"shard_compute[{shard_id}]",
                pid=str(os.getpid()),
                host=HOSTNAME,
                transport=self.kind,
            ):
                results.append(session.drain(weights, rows, set(dropouts)))
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

    def refill_all(self, rounds: Optional[int] = None) -> int:
        return max(session.refill(rounds) for session in self._sessions)

    def rekey_all(self, num_users: int) -> int:
        return sum(session.rekey(num_users) for session in self._sessions)

    def close(self) -> None:
        for session in self._sessions:
            session.close()

    @property
    def closed(self) -> bool:
        return any(session.closed for session in self._sessions)


class ShardHandle:
    """Session-surface proxy for one shard pinned on a shard-worker host.

    Pool properties are served from a cache refreshed by every response
    frame for this shard (round results, refill snapshots), so the
    background refiller's ``needs_refill`` polling costs no wire traffic.
    ``refill_begin`` / ``refill_join`` split the refill into a scatter
    and a gather half so the refiller can overlap top-ups across shards.
    ``spec`` is the coordinator's one copy of the shard's spec: a re-key
    replaces it, and a reconnect re-pins it.
    """

    def __init__(self, transport: "SocketTransport", shard_id: int,
                 spec: ShardSessionSpec):
        self._transport = transport
        self.shard_id = shard_id
        self.spec = spec
        self.model_dim = spec.shard_dim
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


def build_transport(
    kind: str,
    specs: Sequence[ShardSessionSpec],
    gf: Optional[FiniteField] = None,
    num_workers: Optional[int] = None,
    metrics=None,
    cohort_id: int = 0,
    connect: Optional[Sequence[str]] = None,
    wire_format: str = "raw",
) -> ShardTransport:
    """Construct the configured transport backend from shard specs.

    ``connect`` lists ``host:port`` worker addresses for the ``socket``
    backend (shards round-robin across them); the other backends reject
    it, like ``num_workers`` outside ``process``/``shm``.
    ``wire_format="packed"`` bit-packs vector payloads (``inline`` has
    no wire and ignores it; ``shm`` passes round vectors by reference,
    which supersedes packing).
    """
    lane = parse_enum(TransportKind, kind, "transport")
    if lane is TransportKind.INLINE:
        return InlineTransport.from_specs(
            specs, gf=gf, metrics=metrics, cohort_id=cohort_id
        )
    # Local import: the out-of-process backends pull in this module's
    # spec and handle types, so a top-level import would be a cycle.
    from repro.service.socket_transport import (
        ProcessPoolTransport,
        ShmTransport,
        SocketTransport,
    )

    if lane is TransportKind.SOCKET:
        return SocketTransport(
            specs, connect=connect or (), metrics=metrics,
            cohort_id=cohort_id, wire_format=wire_format,
        )
    local = ShmTransport if lane is TransportKind.SHM else ProcessPoolTransport
    return local(
        specs, num_workers=num_workers, metrics=metrics,
        cohort_id=cohort_id, wire_format=wire_format,
    )

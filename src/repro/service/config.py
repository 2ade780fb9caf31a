"""Configuration for the aggregation service.

A :class:`ServiceConfig` fully describes one service deployment: how many
cohorts run concurrently, the protocol geometry of each cohort (users,
model dimension, privacy/dropout guarantees), how the model vector is
sharded, and how offline pools are sized and refilled.  The service
builds everything else (protocols, sessions, shards, cohorts, refiller)
from this one object, so tests and benchmarks can sweep
configurations declaratively.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from repro.exceptions import ParameterError, ReproError


class RefillMode(enum.Enum):
    """How a cohort's offline pools are topped up.

    * ``SYNC`` — no background work: a pool miss stalls the online round
      while the session refills inline (the PR 1 behaviour, kept as the
      baseline the benchmark compares against).
    * ``BACKGROUND`` — a :class:`~repro.service.refill.BackgroundRefiller`
      worker thread refills every session at its low-water mark, off the
      online path.
    """

    SYNC = "sync"
    BACKGROUND = "background"


class TransportKind(enum.Enum):
    """Where a cohort's per-shard sessions execute.

    * ``INLINE`` — sessions live in the service process and are called
      directly (:class:`~repro.service.transport.InlineTransport`); shard
      rounds and refill encodes share the GIL.
    * ``PROCESS`` — each shard's session is pinned in a long-lived
      worker process
      (:class:`~repro.service.socket_transport.ProcessPoolTransport`):
      a ``repro shard-worker`` host spawned as a local child over a
      socketpair and spoken to in :mod:`repro.wire` frames with
      heartbeat supervision; shard rounds scatter/gather across cores
      and refills overlap across workers.  Vector payloads stage in a
      coordinator-owned :class:`~repro.wire.SegmentArena` and cross the
      socketpair as name+offset references; where ``/dev/shm`` cannot
      hold the arena, or a drain's rows outgrew it, they ride the frame.
    * ``SOCKET`` — the same frames over TCP to standalone ``repro
      shard-worker`` hosts
      (:class:`~repro.service.socket_transport.SocketTransport`), adding
      reconnect/re-pin; requires ``connect`` addresses.  The multi-host
      deployment backend.
    """

    INLINE = "inline"
    PROCESS = "process"
    SOCKET = "socket"


def _validate_cohort_fields(cfg) -> None:
    """Validation for the per-cohort knobs.

    Run by :class:`CohortSpec` (one runtime cohort created through the
    control plane) and so by :class:`ServiceConfig` (one uniform spec
    stamped across ``num_cohorts``), which keeps the failure messages —
    and the guarantee that a bad deployment fails at *config build
    time* — identical on both paths.
    """
    if cfg.num_users < 2:
        raise ReproError(
            f"need >= 2 users per cohort, got {cfg.num_users}"
        )
    if cfg.model_dim < 1:
        raise ReproError(f"model_dim must be >= 1, got {cfg.model_dim}")
    if cfg.num_shards < 1:
        raise ReproError(f"need >= 1 shard, got {cfg.num_shards}")
    if cfg.num_shards > cfg.model_dim:
        raise ReproError(
            f"cannot split model_dim={cfg.model_dim} into "
            f"{cfg.num_shards} non-empty shards: num_shards must be "
            f"in [1, model_dim]"
        )
    if cfg.pool_size < 1:
        raise ReproError(f"pool_size must be >= 1, got {cfg.pool_size}")
    if not 0 <= cfg.low_water < cfg.pool_size:
        raise ReproError(
            f"low_water must be in [0, pool_size), got {cfg.low_water}"
        )
    if not 1 <= cfg.buffer_capacity <= cfg.num_users:
        raise ReproError(
            f"buffer_size must be in [1, num_users={cfg.num_users}], "
            f"got {cfg.buffer_size}"
        )
    if cfg.staleness_fn not in ("constant", "polynomial", "hinge"):
        raise ReproError(
            f"unknown staleness_fn {cfg.staleness_fn!r}; expected "
            "'constant', 'polynomial', or 'hinge'"
        )
    if cfg.staleness_levels < 1:
        raise ReproError(
            f"staleness_levels must be >= 1, got {cfg.staleness_levels}"
        )
    if cfg.quant_levels < 2:
        raise ReproError(
            f"quant_levels must be >= 2, got {cfg.quant_levels}"
        )
    if cfg.quant_clip is not None and cfg.quant_clip <= 0:
        raise ReproError(
            f"quant_clip must be positive, got {cfg.quant_clip}"
        )
    from repro.protocols.lightsecagg.params import LSAParams

    try:
        LSAParams.from_guarantees(
            cfg.num_users,
            privacy=cfg.privacy,
            dropout_tolerance=cfg.dropout_tolerance,
        )
    except ParameterError as exc:
        raise ReproError(
            f"infeasible protocol geometry for N={cfg.num_users}, "
            f"T={cfg.privacy}, D={cfg.dropout_tolerance}: {exc}"
        ) from exc
    if not isinstance(cfg.transport, TransportKind):
        raise ReproError(
            f"transport must be a TransportKind, got {cfg.transport!r}"
        )
    if cfg.num_workers is not None:
        if cfg.transport is not TransportKind.PROCESS:
            raise ReproError(
                "num_workers only applies to the process transport"
            )
        if cfg.num_workers < 1:
            raise ReproError(
                f"need >= 1 worker process, got {cfg.num_workers}"
            )
    if cfg.transport is TransportKind.SOCKET:
        if not cfg.connect:
            raise ReproError(
                "the socket transport needs connect=('host:port', ...) "
                "shard-worker addresses"
            )
        from repro.service.socket_worker import parse_address

        for address in cfg.connect:
            parse_address(address)  # raises on malformed host:port
    elif cfg.connect is not None:
        raise ReproError(
            "connect addresses only apply to the socket transport"
        )


@dataclass(frozen=True)
class CohortSpec:
    """Everything needed to host *one* cohort, independent of the service.

    The only place the cohort fields, their types and their defaults are
    named: ``POST /cohorts`` parses its JSON body off these fields,
    :meth:`describe` and the service's ``status()`` render them, and
    :class:`ServiceConfig` extends this class, so a static deployment is
    the special case of stamping :meth:`ServiceConfig.cohort_spec`
    ``num_cohorts`` times.  :meth:`AggregationService.add_cohort` builds
    a live cohort from one spec — its own protocol geometry, shard plan,
    transport backend, and pool sizing — without touching any other
    cohort.

    Parameters
    ----------
    num_users:
        ``N``, users per cohort.
    model_dim:
        ``d``, the full (unsharded) model-vector length.
    num_shards:
        Worker shards the model vector is partitioned across; each shard
        drives its own protocol session over its slice of the vector.
    pool_size:
        Rounds of offline material each session pools per refill.
    low_water:
        Pool level at which the background refiller tops a session up.
        Ignored in ``SYNC`` mode (inline refills trigger on empty).
    dropout_tolerance / privacy:
        Per-cohort LightSecAgg guarantees ``D`` and ``T``; defaults scale
        with ``N`` like :meth:`LSAParams.paper_defaults`.
    transport:
        Shard execution backend, see :class:`TransportKind`.
    num_workers:
        Worker processes for the ``PROCESS`` transport (per cohort).
        Defaults to one worker per shard; fewer workers host multiple
        shards each.  Rejected for every other transport.
    connect:
        ``host:port`` shard-worker addresses for the ``SOCKET``
        transport; shards are assigned round-robin across them, and all
        cohorts of one service batch their shards over one shared
        connection per address.  Required for ``SOCKET``, rejected
        elsewhere.
    seed:
        The cohort's *base* seed; shard ``s`` of the cohort the service
        assigns id ``c`` derives its stream from ``(seed, c, s)``, so a
        cohort created at runtime with the same seed and the same
        assigned id is bit-identical to its statically-configured twin.
    buffer_size / staleness_* / quant_*:
        Buffered-async knobs; every cohort takes submissions as well as
        rounds.  The buffer seals and drains at ``buffer_size``
        submissions (defaults to ``num_users``, and no member may leave
        below it); ``staleness_*`` select and parameterize the
        per-delivery weighting s(tau); ``quant_*`` shape the real->field
        embedding of submitted updates.
    """

    num_users: int = 8
    model_dim: int = 256
    num_shards: int = 1
    pool_size: int = 4
    low_water: int = 0
    dropout_tolerance: int = 1
    privacy: int = 1
    transport: TransportKind = TransportKind.INLINE
    num_workers: Optional[int] = None
    connect: Optional[Tuple[str, ...]] = None
    seed: int = 0
    buffer_size: Optional[int] = None
    staleness_fn: str = "constant"
    staleness_alpha: float = 1.0
    staleness_levels: int = 1 << 6
    quant_levels: int = 1 << 16
    quant_clip: Optional[float] = None

    def __post_init__(self) -> None:
        # Everything a bad pair could break late — shard geometry inside
        # ShardPlan, protocol geometry inside LSAParams during session
        # construction, worker counts inside the transport — is validated
        # here at config build time, with the same semantics, so a
        # misconfigured deployment fails before any process or pool is
        # created.
        _validate_cohort_fields(self)

    @property
    def buffer_capacity(self) -> int:
        """Submissions that seal the buffer: ``buffer_size`` if set,
        else ``num_users``."""
        return self.num_users if self.buffer_size is None else self.buffer_size

    def describe(self) -> dict:
        """JSON-serializable spec summary for status endpoints: every
        cohort field, enums as their string values and ``connect`` as a
        string array — the same shape ``POST /cohorts`` accepts."""
        out = {}
        for f in fields(CohortSpec):
            value = getattr(self, f.name)
            if isinstance(value, enum.Enum):
                value = value.value
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


@dataclass(frozen=True)
class ServiceConfig(CohortSpec):
    """Declarative description of one aggregation-service deployment:
    the uniform :class:`CohortSpec` it stamps across its cohorts (the
    inherited fields, settable flat: ``ServiceConfig(num_users=...)``)
    plus the service-wide policy below.

    Parameters
    ----------
    num_cohorts:
        Concurrent FL cohorts the service hosts; each gets its own
        protocol instance(s), sessions, and round state machine.
    refill_mode:
        See :class:`RefillMode`.
    tracing:
        Record a :class:`~repro.obs.RoundTrace` for every round — phase
        spans across the coordinator, transports, and shard workers,
        stitched into one timeline per round.  ``False`` disables the
        whole pipeline: spans become no-ops, and since no trace is ever
        active, no request carries a ``trace_id`` and no worker reports
        a span back.
    """

    num_cohorts: int = 1
    refill_mode: RefillMode = RefillMode.SYNC
    tracing: bool = True

    def __post_init__(self) -> None:
        if self.num_cohorts < 1:
            raise ReproError(f"need >= 1 cohort, got {self.num_cohorts}")
        super().__post_init__()

    def cohort_spec(self) -> CohortSpec:
        """The per-cohort spec this config stamps across its cohorts."""
        return CohortSpec(
            **{f.name: getattr(self, f.name) for f in fields(CohortSpec)}
        )

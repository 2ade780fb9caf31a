"""Aggregation service layer: cohorts, sharding, background refill.

This package is the layer between the protocol engine
(:mod:`repro.protocols`) and the FL loop (:mod:`repro.fl`): a long-lived
*service* that runs many concurrent FL cohorts against pooled protocol
sessions, keeps every session's offline pool topped up from a background
refill pipeline, and shards large model vectors across per-shard sessions
— the first piece of the repo that looks like a server rather than a
script.

Layering (see the repo README for the full picture)::

    field -> coding -> protocols -> sessions -> service -> fl / cli

* :mod:`repro.service.refill` — the background refill pipeline: a worker
  thread that tops up registered sessions at their low-water mark so
  online rounds never block on mask encoding.
* :mod:`repro.service.sharding` — model-vector sharding: a coordinator
  that scatters client updates across per-shard sessions and reassembles
  shard aggregates bit-identically to the single-shard path.
* :mod:`repro.service.transport` — where shard sessions execute: the
  shard-session specs, the transport interface, and the in-process
  lane (:class:`InlineTransport`), selected from :class:`ServiceConfig`.
* :mod:`repro.service.socket_transport` / :mod:`.socket_worker` — every
  out-of-process lane: one coordinator (:class:`SocketTransport`)
  driving shard-worker hosts in :mod:`repro.wire` frames with heartbeat
  supervision — standalone ``repro shard-worker`` hosts over TCP
  (:class:`ShardWorkerServer`, with reconnect/re-pin; the multi-host
  backend), or hosts spawned as local child processes over socketpairs
  (:class:`ProcessPoolTransport`, the ``process`` lane, and its
  shared-memory subclass, the ``shm`` lane).
* :mod:`repro.service.worker` — the one worker-side request handler
  every host connection serves through.
* :mod:`repro.service.cohort` — the per-cohort round state machine.
* :mod:`repro.service.metrics` — pool depth / stall / throughput
  counters, snapshotable for the CLI and the throughput benchmark.
* :mod:`repro.service.service` — the :class:`AggregationService` facade
  that wires all of the above together from a :class:`ServiceConfig`.
"""

from repro.service.config import (
    CohortSpec,
    RefillMode,
    ServiceConfig,
    TransportKind,
    WireFormat,
)
from repro.service.cohort import Cohort, CohortPhase
from repro.service.metrics import CohortMetrics, ServiceMetrics, TransportMetrics
from repro.service.refill import BackgroundRefiller
from repro.service.service import AggregationService
from repro.service.sharding import ShardedSession, ShardPlan
from repro.service.socket_transport import ProcessPoolTransport, SocketTransport
from repro.service.socket_worker import ShardWorkerServer
from repro.service.transport import (
    InlineTransport,
    ShardHandle,
    ShardSessionSpec,
    ShardTransport,
    build_transport,
)

__all__ = [
    "AggregationService",
    "BackgroundRefiller",
    "Cohort",
    "CohortSpec",
    "CohortMetrics",
    "CohortPhase",
    "InlineTransport",
    "ProcessPoolTransport",
    "RefillMode",
    "ServiceConfig",
    "ServiceMetrics",
    "ShardHandle",
    "ShardPlan",
    "ShardSessionSpec",
    "ShardTransport",
    "ShardWorkerServer",
    "ShardedSession",
    "SocketTransport",
    "TransportKind",
    "TransportMetrics",
    "WireFormat",
    "build_transport",
]

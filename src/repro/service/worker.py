"""What a shard request means on the worker: the one handler.

Every out-of-process lane runs its shards on a shard-worker host
(:mod:`repro.service.socket_worker`), and each host connection's round
and refill threads hand every shard request to :func:`serve_request`:
message + session lookup + enqueue stamp in, reply message out.  The
host keeps its own threading and the lifecycle frames (``SessionSetup``
/ ``SessionTeardown`` / ``Ping`` / ``Shutdown``).
"""

from __future__ import annotations

import os
import socket
import time
from typing import Callable, Optional

import numpy as np

from repro.exceptions import TransportError
from repro.wire import (
    ErrorFrame,
    PoolSnapshot,
    RefillRequest,
    RekeyRequest,
    ShardDrainRequest,
    ShardRoundRequest,
    ShardRoundResult,
    ShmRegistry,
    SnapshotRequest,
    WorkerSpan,
)

HOSTNAME = socket.gethostname()


def _snapshot_of(session, shard_id: int, rounds_added=0) -> PoolSnapshot:
    state = session.state_snapshot()
    return PoolSnapshot(
        shard_id=shard_id,
        pool_level=state["pool_level"],
        pool_size=state["pool_size"],
        rounds_added=rounds_added,
        closed=state["closed"],
        stats=state["stats"],
    )


def _compute(message, session, enqueued_at, registry) -> ShardRoundResult:
    """Run one round or drain and frame its outcome.

    Element encodings mirror the coordinator's: a packed request gets a
    packed result (packed replies only to peers that sent packed
    requests); a request whose updates arrived by shared-memory reference
    gets its aggregate placed at the request's ``result_ref`` with only
    the reference framed back.
    """
    shard_id = message.shard_id
    is_drain = isinstance(message, ShardDrainRequest)
    state = session.state_snapshot()
    stalled = state["pool_level"] == 0
    compute_start = time.time() if message.trace_id else 0.0
    if is_drain:
        result = session.drain(
            message.weights, message.updates, set(message.recovery_dropouts)
        )
    else:
        result = session.run_round(
            message.updates_dict(),
            set(message.dropouts),
            None,
            **(
                {"offline_dropouts": message.offline_dropouts}
                if message.offline_dropouts
                else {}
            ),
        )
    worker_span = None
    if message.trace_id:
        # The enqueue stamp is where a traced request's queue-wait clock
        # starts; a caller that passes none reports no measurable dwell.
        waited = 0.0 if enqueued_at is None else compute_start - enqueued_at
        worker_span = WorkerSpan(
            trace_id=message.trace_id,
            pid=os.getpid(),
            host=HOSTNAME,
            queue_wait_seconds=max(0.0, waited),
            compute_start_unix=compute_start,
            compute_seconds=time.time() - compute_start,
        )
    # Post-round state via state_snapshot(): reading the level and stats
    # piecemeal would race the worker's own refill thread and could ship
    # a torn pair.
    after = session.state_snapshot()
    aggregate_ref = getattr(message, "result_ref", None)
    if aggregate_ref is not None:
        if registry is None:
            raise TransportError("this worker has no shared-memory lane")
        np.copyto(
            registry.ndarray(aggregate_ref),
            np.asarray(result.aggregate, dtype=np.uint64).reshape(
                aggregate_ref.shape
            ),
        )
    return ShardRoundResult.from_result(
        shard_id,
        message.drain_id if is_drain else message.round_id,
        result,
        stalled=stalled,
        pool_level=after["pool_level"],
        stats=after["stats"],
        packed=message.packed,
        aggregate_ref=aggregate_ref,
        worker_span=worker_span,
    )


_SHARD_REQUESTS = (
    ShardRoundRequest, ShardDrainRequest, SnapshotRequest, RefillRequest,
    RekeyRequest,
)


def _reply_to(message, lookup, enqueued_at, registry):
    if not isinstance(message, _SHARD_REQUESTS):
        raise TransportError(f"worker cannot serve {type(message).__name__}")
    shard_id = message.shard_id
    session = lookup(shard_id)
    if isinstance(message, SnapshotRequest):
        return _snapshot_of(session, shard_id)
    if isinstance(message, RefillRequest):
        added = session.refill(message.rounds)
        return _snapshot_of(session, shard_id, rounds_added=added)
    if isinstance(message, RekeyRequest):
        invalidated = session.rekey(message.num_users)
        return _snapshot_of(session, shard_id, rounds_added=-invalidated)
    return _compute(message, session, enqueued_at, registry)


def serve_request(
    message,
    lookup: Callable[[int], object],
    send: Callable[[object], None],
    enqueued_at: Optional[float] = None,
    registry: Optional[ShmRegistry] = None,
) -> None:
    """Serve one shard request and ``send`` exactly one reply for it.

    ``lookup(shard_id)`` resolves the session the request addresses (the
    wire's shard id is a connection-unique slot).  ``registry`` is the
    host's shared-memory registry, if it has one: a request carrying a
    ``result_ref`` gets its aggregate placed there.  Anything the lookup, the session, or encoding the reply
    raises goes back as an :class:`~repro.wire.ErrorFrame`; only a dead
    peer (``OSError`` from ``send``) reaches the caller.
    """
    try:
        send(_reply_to(message, lookup, enqueued_at, registry))
    except OSError:
        raise  # peer gone mid-reply: nobody left to tell
    except Exception as exc:  # noqa: BLE001 - forwarded to peer
        send(ErrorFrame.from_exception(getattr(message, "shard_id", 0), exc))

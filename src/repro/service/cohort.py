"""Per-cohort round lifecycle: an explicit, snapshotable state machine.

A *cohort* is one federation of ``N`` users training one model through
one :class:`~repro.service.sharding.ShardedSession` over pooled
LightSecAgg shards.  The service hosts many cohorts
concurrently; each cohort serializes its seals through one
:class:`~repro.service.engines.RoundEngine`, modelled on long-lived
round managers in production FL stacks: explicit phases, a terminal
close, and a status snapshot a coordinator can poll while background
refills drain.

The cohort has one lifecycle, the engine's
:class:`~repro.service.engines.RoundPhase`::

    IDLE -> FILLING -> SEALED -> AGGREGATING -> IDLE | FILLING
    any  -> CLOSED                                      (terminal)

``FILLING`` is a buffered batch waiting for its K-th submission; a
synchronous round arrives whole and starts at ``SEALED``.
``AGGREGATING`` covers the protocol's online path.  A seal *stalls* if
the session pool is empty at aggregation start — that is the event
background refill eliminates, and the engine counts it.  The engine
takes synchronous rounds, buffered submissions and join/leave, and a
round is its seal at unit weight.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np

from repro.obs import Tracer
from repro.protocols.base import AggregationResult
from repro.service.config import CohortSpec
from repro.service.engines import RoundEngine, RoundPhase
from repro.service.metrics import ServiceMetrics
from repro.service.refill import BackgroundRefiller
from repro.service.sharding import ShardedSession
from repro.service.transport import ShardTransport


class Cohort:
    """One FL cohort driving rounds through its session.

    Parameters
    ----------
    cohort_id:
        Stable identifier used in metrics and snapshots.
    spec:
        The :class:`~repro.service.config.CohortSpec` the cohort was
        built from.
    session:
        The :class:`~repro.service.sharding.ShardedSession` built from
        ``spec`` — every cohort has exactly this shape, one shard or
        many, whichever lane its transport is.  :meth:`close` closes it,
        which releases the transport's backend.
    metrics:
        Optional shared :class:`ServiceMetrics` sink.
    refiller:
        Optional :class:`BackgroundRefiller`; the cohort nudges it after
        every round so top-ups start as soon as the pool drains.
    tracer:
        Optional :class:`~repro.obs.Tracer`; every round then records a
        :class:`~repro.obs.RoundTrace` spanning the whole seal,
        with the transports contributing scatter/compute/gather spans.
    """

    def __init__(
        self,
        cohort_id: int,
        spec: CohortSpec,
        session: ShardedSession,
        metrics: Optional[ServiceMetrics] = None,
        refiller: Optional[BackgroundRefiller] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.cohort_id = int(cohort_id)
        self.spec = spec
        self.session = session
        self.metrics = metrics
        self.refiller = refiller
        self.tracer = tracer
        self.engine = RoundEngine(self)

    @property
    def transport(self) -> ShardTransport:
        """The lane the session's shards run on (the session owns it)."""
        return self.session.transport

    # The lifecycle and counters live on the engine, under its lock.
    @property
    def phase(self) -> RoundPhase:
        return self.engine.phase

    @property
    def rounds(self) -> int:
        """Seals that succeeded: the engine's server round."""
        return self.engine.server_round

    @property
    def stalls(self) -> int:
        return self.engine.stalls

    def run_round(
        self,
        updates: Dict[int, np.ndarray],
        dropouts: Optional[Set[int]] = None,
    ) -> AggregationResult:
        """Seal one full round on the engine.

        Close/round race semantics: a :meth:`close` that lands while a
        round is SEALED or AGGREGATING does not abort it — the in-flight
        round completes and returns its result (the session round has
        already committed its pool accounting by the time the race is
        observable), the cohort simply stays CLOSED instead of returning
        to IDLE.  Rounds *started* after close fail immediately with a
        closed-cohort error.

        The seal itself lives in
        :meth:`~repro.service.engines.RoundEngine.run_round`: updates
        and dropouts are keyed by member id, and so are the survivors.
        """
        return self.engine.run_round(updates, dropouts)

    def submit_update(
        self,
        user_id: int,
        update: np.ndarray,
        download_round: Optional[int] = None,
        dropouts: Optional[Set[int]] = None,
    ) -> Dict:
        """Buffer one client update; the sealing submission drains the
        buffer and returns the aggregate."""
        return self.engine.submit(
            user_id, update, download_round=download_round,
            dropouts=dropouts,
        )

    def join_member(self) -> Dict:
        """Admit one member at runtime (re-keys the mask shares)."""
        return self.engine.join()

    def leave_member(self, user_id: int) -> Dict:
        """Retire one member at runtime (re-keys the mask shares)."""
        return self.engine.leave(user_id)

    # ------------------------------------------------------------------
    def close(self) -> None:
        # CLOSED first, so new work is refused from here on; a seal in
        # flight completes.  Closing the session closes its transport:
        # for process/socket backends the worker Shutdown/Teardown
        # handshake, for this cohort's shards only.
        self.engine.close()
        self.session.close()

    def status(self) -> Dict:
        """Snapshotable cohort state for coordinators and the CLI.

        The phase and counters come from the engine's one locked read,
        so a scrape racing a seal sees them committed together; the pool
        numbers come from the session's own locked snapshot surface.
        """
        return {
            "cohort_id": self.cohort_id,
            "pool_level": self.session.pool_level,
            "pool_size": self.session.pool_size,
            **self.engine.status_fields(),
        }

    def __repr__(self) -> str:
        return (
            f"Cohort({self.cohort_id}, phase={self.phase.value}, "
            f"rounds={self.rounds}, stalls={self.stalls})"
        )

"""Per-cohort round lifecycle: an explicit, snapshotable state machine.

A *cohort* is one federation of ``N`` users training one model through
one :class:`~repro.service.sharding.ShardedSession` over pooled
LightSecAgg shards.  The service hosts many cohorts
concurrently; each cohort serializes its own rounds through the phase
machine below, modelled on long-lived round managers in production FL
stacks: explicit phases, loud invalid transitions, and a status snapshot
a coordinator can poll while background refills drain.

Phases::

    IDLE -> COLLECTING -> AGGREGATING -> IDLE   (per round)
    IDLE -> AGGREGATING -> IDLE                 (per buffered drain)
    any  -> CLOSED                              (terminal)

``COLLECTING`` is where a deployment would wait for client uploads; the
in-process service enters it when the caller hands over the round's
updates.  ``AGGREGATING`` covers the protocol's online path.  The round
*stalls* if the session pool is empty at aggregation start — that is the
event background refill eliminates, and the cohort counts it.

Every cohort runs the one :class:`~repro.service.engines.RoundEngine`:
it takes synchronous rounds, buffered submissions and join/leave, and
a round is the engine's seal at unit weight.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Set

import numpy as np

from repro.exceptions import ProtocolError
from repro.obs import Tracer
from repro.protocols.base import AggregationResult
from repro.service.config import CohortSpec
from repro.service.engines import CohortPhase, RoundEngine
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
        :class:`~repro.obs.RoundTrace` spanning the whole phase machine,
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
        self.phase = CohortPhase.IDLE
        self.rounds = 0
        self.stalls = 0
        self._phase_lock = threading.Lock()
        self.engine = RoundEngine(self)

    @property
    def transport(self) -> ShardTransport:
        """The lane the session's shards run on (the session owns it)."""
        return self.session.transport

    # ------------------------------------------------------------------
    # Phase mutations happen under one lock so a concurrent close() can
    # never interleave *inside* a transition: CLOSED is terminal (a
    # transition can neither overwrite it nor half-observe it).
    def _move(self, expected: CohortPhase, to: CohortPhase) -> None:
        """``expected -> to`` or a loud error; caller holds the lock."""
        if self.phase is not expected:
            raise ProtocolError(
                f"cohort {self.cohort_id}: invalid transition "
                f"{self.phase.value} -> {to.value} (expected to be in "
                f"{expected.value})"
            )
        self.phase = to

    def _advance(self, expected: CohortPhase, to: CohortPhase) -> None:
        """Mid-round transition that tolerates a concurrent close().

        CLOSED is terminal: once close() has marked the cohort, the round
        in flight keeps running to completion but stops moving the phase
        machine, so its errors (if any) come from the closed *session* —
        not from a misleading invalid-transition complaint.
        """
        with self._phase_lock:
            if self.phase is not CohortPhase.CLOSED:
                self._move(expected, to)

    def run_round(
        self,
        updates: Dict[int, np.ndarray],
        dropouts: Optional[Set[int]] = None,
    ) -> AggregationResult:
        """Drive one full round through the phase machine.

        Close/round race semantics: a :meth:`close` that lands while a
        round is COLLECTING or AGGREGATING does not abort it — the
        in-flight round completes and returns its result (the session
        round has already committed its pool accounting by the time the
        race is observable), the cohort simply stays CLOSED instead of
        returning to IDLE.  Rounds *started* after close fail immediately
        with a closed-cohort error.

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

    def _complete_round(self, stalled: bool) -> None:
        """Commit the round counters and the AGGREGATING -> IDLE advance
        as one atomic step.

        Incrementing outside the lock (the pre-fix behaviour) let a
        concurrent :meth:`status` scrape observe a torn pair — the round
        already counted while the phase still said ``aggregating``, or
        vice versa.  CLOSED stays terminal exactly like :meth:`_advance`.
        """
        with self._phase_lock:
            self.rounds += 1
            if stalled:
                self.stalls += 1
            if self.phase is not CohortPhase.CLOSED:
                self._move(CohortPhase.AGGREGATING, CohortPhase.IDLE)

    # ------------------------------------------------------------------
    def close(self) -> None:
        # Closing the session closes its transport: for process/socket
        # backends the worker Shutdown/Teardown handshake, for this
        # cohort's shards only.
        self.session.close()
        with self._phase_lock:
            self.phase = CohortPhase.CLOSED
        self.engine.close()

    def status(self) -> Dict:
        """Snapshotable cohort state for coordinators and the CLI.

        Phase and round counters are read under the cohort lock so a
        scrape racing :meth:`run_round` sees a consistent pair; the pool
        numbers come from the session's own locked snapshot surface.
        """
        with self._phase_lock:
            phase = self.phase.value
            rounds = self.rounds
            stalls = self.stalls
        out = {
            "cohort_id": self.cohort_id,
            "phase": phase,
            "rounds": rounds,
            "stalls": stalls,
            "pool_level": self.session.pool_level,
            "pool_size": self.session.pool_size,
        }
        # The engine adds its seal lifecycle, buffer occupancy, server
        # round and membership view.
        out.update(self.engine.status_fields())
        return out

    def __repr__(self) -> str:
        return (
            f"Cohort({self.cohort_id}, phase={self.phase.value}, "
            f"rounds={self.rounds}, stalls={self.stalls})"
        )

"""The aggregation service facade.

:class:`AggregationService` assembles a full service deployment from one
:class:`~repro.service.config.ServiceConfig`: per-cohort (and per-shard)
pooled LightSecAgg shard sessions, the shared background refill
pipeline, and the metrics sink.  It owns their
lifecycle — ``start()`` warms every pool and launches the refill worker,
``stop()`` shuts the worker down cleanly (a refill in flight completes)
and closes every session — and is a context manager::

    config = ServiceConfig(num_cohorts=4, num_shards=2,
                           refill_mode=RefillMode.BACKGROUND, low_water=2)
    with AggregationService(config) as svc:
        svc.run_synthetic(rounds=50, dropout_rate=0.1)
        print(svc.status())

Every aggregate the service produces is verified reassembly-exact: the
sharded, background-refilled path returns bit-identical field sums to a
single synchronous session over the full vector (the service tests pin
this down against the one-shot oracle).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ProtocolError
from repro.field.arithmetic import FiniteField
from repro.protocols.base import AggregationResult, sample_dropouts
from repro.obs import RoundTrace, Tracer
from repro.service.cohort import Cohort
from repro.service.config import CohortSpec, RefillMode, ServiceConfig
from repro.service.engines import RoundPhase
from repro.service.metrics import ServiceMetrics
from repro.service.refill import BackgroundRefiller
from repro.service.sharding import ShardedSession, ShardPlan
from repro.service.transport import ShardSessionSpec, build_transport


def synthetic_round(
    members: Sequence[int],
    model_dim: int,
    gf: FiniteField,
    dropout_rate: float,
    rng: np.random.Generator,
) -> Tuple[Dict[int, np.ndarray], Set[int]]:
    """Random round inputs for ``members``: one field vector per member
    in sorted order, then ``floor(dropout_rate * len(members))`` of them
    dropped — for members ``0..N-1``, the stream a cohort nobody joined
    or left has always drawn."""
    members = sorted(members)
    updates = {m: gf.random(model_dim, rng) for m in members}
    dropped = sample_dropouts(len(members), dropout_rate, rng)
    return updates, {members[i] for i in dropped}


class AggregationService:
    """Many concurrent FL cohorts over pooled, sharded, refilled sessions.

    Cohort membership is dynamic: the constructor stamps
    ``config.num_cohorts`` copies of the config's uniform
    :class:`~repro.service.config.CohortSpec` (``build_cohorts=False``
    starts empty — the control-plane deployment), and
    :meth:`add_cohort` / :meth:`remove_cohort` admit and retire cohorts
    — each with its *own* spec, shard plan, and transport backend — on a
    running service without touching their neighbours.
    """

    #: How long a settling :meth:`run_synthetic` sweep waits for refills.
    SETTLE_TIMEOUT_S = 30.0

    def __init__(
        self,
        config: ServiceConfig,
        gf: Optional[FiniteField] = None,
        build_cohorts: bool = True,
    ):
        self.config = config
        self.gf = gf if gf is not None else FiniteField()
        self.metrics = ServiceMetrics()
        self.tracer = Tracer(enabled=config.tracing, metrics=self.metrics)
        self.refiller: Optional[BackgroundRefiller] = None
        if config.refill_mode is RefillMode.BACKGROUND:
            self.refiller = BackgroundRefiller(metrics=self.metrics)
        self._cohort_lock = threading.RLock()
        # The one registry.  A live cohort is one object: it carries its
        # spec and, through its session, its transport.
        self._cohorts: Dict[int, Cohort] = {}
        self._next_cohort_id = 0
        self._started = False
        self._stopped = False  # terminal: set by stop(), never cleared
        if build_cohorts:
            spec = config.cohort_spec()
            for _ in range(config.num_cohorts):
                self.add_cohort(spec)

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    @property
    def cohorts(self) -> List[Cohort]:
        """Live cohorts in creation order (ids are allocation order)."""
        with self._cohort_lock:
            return list(self._cohorts.values())

    def get_cohort(self, cohort_id: int) -> Optional[Cohort]:
        with self._cohort_lock:
            return self._cohorts.get(cohort_id)

    def _shard_specs(
        self, cohort_id: int, spec: CohortSpec, plan: ShardPlan
    ) -> List[ShardSessionSpec]:
        """Declarative per-shard session specs for one cohort.

        The spec — not a live session — is the unit every transport builds
        from: the inline backend constructs the session in this process,
        the process backend ships the spec to a worker which constructs
        an identical one (same seed path, same rng streams, bit-identical
        pools).
        """
        return [
            ShardSessionSpec(
                protocol="lightsecagg",
                num_users=spec.num_users,
                shard_dim=plan.widths[shard],
                privacy=spec.privacy,
                dropout_tolerance=spec.dropout_tolerance,
                pool_size=spec.pool_size,
                low_water=spec.low_water,
                seed=(spec.seed, cohort_id, shard),
                field_modulus=self.gf.q,
            )
            for shard in range(spec.num_shards)
        ]

    def _build_cohort(self, cohort_id: int, spec: CohortSpec) -> Cohort:
        """One live cohort: a :class:`ShardedSession` over the spec's
        transport, watched by the refiller, pools warm if the service
        has started.  A failure at any step leaves nothing behind."""
        plan = ShardPlan(spec.model_dim, spec.num_shards)
        transport = build_transport(
            spec.transport.value,
            self._shard_specs(cohort_id, spec, plan),
            gf=self.gf,
            num_workers=spec.num_workers,
            metrics=self.metrics,
            cohort_id=cohort_id,
            connect=spec.connect,
        )
        try:
            session = ShardedSession(plan, transport=transport)
            if self.refiller is not None:
                # Shard granularity: one shard can refill while another
                # shard of the same cohort is mid-round.  Metrics always
                # sample the cohort's *logical* depth (min over shards)
                # so the series is one consistent quantity.
                for handle in transport.shard_handles:
                    self.refiller.register(
                        handle,
                        cohort_id,
                        depth_fn=lambda: session.pool_level,
                    )
            cohort = Cohort(
                cohort_id,
                spec,
                session,
                metrics=self.metrics,
                refiller=self.refiller,
                tracer=self.tracer,
            )
            if self._started:
                session.refill()
        except BaseException:
            if self.refiller is not None:
                self.refiller.unregister(cohort_id)
            transport.close()
            raise
        return cohort

    # ------------------------------------------------------------------
    # runtime membership
    # ------------------------------------------------------------------
    def add_cohort(self, spec: Optional[CohortSpec] = None) -> Cohort:
        """Create and admit one cohort at runtime; returns it live.

        Thread-safe against concurrent adds/removes and against a
        :meth:`run_synthetic` sweep in flight (the new cohort joins the
        next sweep).  On a started service the new cohort's pools are
        warmed inline here — before it is admitted — so its first round
        never stalls; before :meth:`start`, warming is deferred to it,
        exactly like statically-configured cohorts.  A spec the build
        rejects, a warm-up that fails, or a :meth:`stop` that lands while
        the cohort is being built (``ProtocolError``) leaves no worker,
        shared-memory segment, pinned slot or refiller entry behind.
        """
        spec = spec if spec is not None else self.config.cohort_spec()
        with self._cohort_lock:
            cohort_id = self._next_cohort_id
            self._next_cohort_id += 1
        cohort = self._build_cohort(cohort_id, spec)
        with self._cohort_lock:
            if not self._stopped:
                self._cohorts[cohort_id] = cohort
                return cohort
        # stop() swept the registry meanwhile: nobody else will close it.
        if self.refiller is not None:
            self.refiller.unregister(cohort_id)
        cohort.close()
        raise ProtocolError("service is stopped")

    def remove_cohort(self, cohort_id: int) -> None:
        """Close and retire one cohort without touching its neighbours.

        The cohort leaves the registry and the refiller watch list
        first, then :meth:`Cohort.close` closes its session (an
        in-flight round completes and keeps its result, per the cohort's
        close/round race contract) and releases its transport's backend.
        """
        with self._cohort_lock:
            cohort = self._cohorts.pop(cohort_id, None)
        if cohort is None:
            raise ProtocolError(f"service has no cohort {cohort_id}")
        if self.refiller is not None:
            self.refiller.unregister(cohort_id)
        cohort.close()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AggregationService":
        """Warm every pool and launch the refill worker (idempotent)."""
        if self._started:
            return self
        for cohort in self.cohorts:
            cohort.session.refill()
        if self.refiller is not None:
            self.refiller.start()
        self._started = True
        return self

    def stop(self) -> None:
        """Stop the refill worker, close all sessions, shut workers down.

        Ordering matters: the refiller is joined first (a refill in
        flight completes and its material is delivered), then each
        cohort closes its session and releases its transport's backend
        — for the process transport that is the Shutdown handshake with
        its workers.  Stopping is terminal: a cohort still being built by
        :meth:`add_cohort` is closed there instead of being registered.
        """
        if self.refiller is not None:
            self.refiller.stop()
        with self._cohort_lock:
            self._stopped = True
            cohorts = list(self._cohorts.values())
        for cohort in cohorts:
            cohort.close()
        self.tracer.close()
        self._started = False

    def __enter__(self) -> "AggregationService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # driving rounds
    # ------------------------------------------------------------------
    def run_round(
        self,
        cohort_id: int,
        updates: Dict[int, np.ndarray],
        dropouts: Optional[Set[int]] = None,
    ) -> AggregationResult:
        """One round for one cohort with caller-supplied updates."""
        return self._cohort(cohort_id).run_round(updates, dropouts)

    def _cohort(self, cohort_id: int) -> Cohort:
        cohort = self.get_cohort(cohort_id)
        if cohort is None:
            raise ProtocolError(f"service has no cohort {cohort_id}")
        return cohort

    def submit_update(
        self,
        cohort_id: int,
        user_id: int,
        update: np.ndarray,
        download_round: Optional[int] = None,
        dropouts: Optional[Set[int]] = None,
    ) -> Dict:
        """Buffer one client update into a cohort; the sealing
        submission drains the buffer and returns the aggregate."""
        return self._cohort(cohort_id).submit_update(
            user_id, update, download_round=download_round,
            dropouts=dropouts,
        )

    def run_synthetic(
        self,
        rounds: int,
        dropout_rate: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        settle: bool = False,
    ) -> List[Dict[int, AggregationResult]]:
        """Round-robin sweeps with random field-vector updates: one
        round per sweep for every open cohort, results by cohort id.

        Inputs come from :func:`synthetic_round` over the cohort's live
        members.  Each sweep runs over a point-in-time copy of the
        registry, so a cohort closed or removed while a sweep is in
        flight is skipped — through its own closed-cohort entry check —
        and its neighbours' rounds are unaffected; every other error
        propagates unchanged.

        ``settle=True`` waits (up to :attr:`SETTLE_TIMEOUT_S`) for the
        background refiller to top every pool back up between sweeps —
        the steady-state regime (client think time exceeds refill time)
        in which the zero-stall guarantee holds deterministically.  Leave
        it False to measure raw contention between draining and
        refilling.
        """
        rng = rng if rng is not None else np.random.default_rng(
            self.config.seed
        )
        results = []
        for _ in range(rounds):
            sweep: Dict[int, AggregationResult] = {}
            for cohort in self.cohorts:
                if cohort.phase is RoundPhase.CLOSED:
                    continue
                updates, dropouts = synthetic_round(
                    cohort.engine.members(), cohort.spec.model_dim,
                    self.gf, dropout_rate, rng,
                )
                try:
                    sweep[cohort.cohort_id] = cohort.run_round(
                        updates, dropouts
                    )
                except ProtocolError:
                    if cohort.phase is not RoundPhase.CLOSED:
                        raise
            results.append(sweep)
            if settle and self.refiller is not None:
                self.refiller.wait_until_idle(timeout=self.SETTLE_TIMEOUT_S)
        return results

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def traces(
        self, cohort_id: Optional[int] = None, limit: int = 20
    ) -> List[RoundTrace]:
        """Recently completed round traces, most recent first."""
        return self.tracer.recent(cohort_id=cohort_id, limit=limit)

    def get_trace(self, trace_id: int) -> Optional[RoundTrace]:
        """One retained trace by id, or None if unknown/evicted."""
        return self.tracer.get(trace_id)

    def status(self) -> Dict:
        """JSON-serializable service snapshot (config, cohorts, metrics)."""
        cfg = self.config
        cohorts = self.cohorts
        return {
            "config": {
                **cfg.describe(),
                "num_cohorts": cfg.num_cohorts,
                "refill_mode": cfg.refill_mode.value,
            },
            "field": {
                "modulus": self.gf.q,
                "reducer": self.gf.reducer.kind,
            },
            "transport": {
                "kind": cfg.transport.value,
                "workers_alive": sum(
                    c.transport.workers_alive for c in cohorts
                ),
                "workers_total": sum(
                    c.transport.num_workers for c in cohorts
                ),
            },
            "started": self._started,
            "tracing": {
                "enabled": self.tracer.enabled,
                "retained": self.tracer.retained,
                "slow_rounds": self.tracer.slow_rounds,
            },
            "refiller": None
            if self.refiller is None
            else {
                "running": self.refiller.running,
                "refills": self.refiller.refills,
                "rounds_refilled": self.refiller.rounds_refilled,
                "failures": self.refiller.failures,
                "last_error": self.refiller.last_error,
            },
            "cohorts": [c.status() for c in cohorts],
            "metrics": self.metrics.snapshot(),
        }

"""Per-kind round engines behind the protocol-agnostic cohort shell.

A :class:`~repro.service.cohort.Cohort` owns identity, the coarse phase
machine (IDLE / COLLECTING / AGGREGATING / CLOSED), counters, and the
wiring to metrics / refiller / tracer.  *How* a round happens is the
engine's business:

* :class:`SyncRoundEngine` — today's synchronous machine, bit-for-bit:
  the caller hands over a full round of updates and blocks through
  COLLECTING -> AGGREGATING.
* :class:`BufferedAsyncRoundEngine` — the paper's buffered-async
  workload (Appendix F): clients submit updates whenever they finish
  local training, the buffer fills asynchronously, and the K-th arrival
  seals the batch and drains it through the session's pooled secure
  path.  Drains are bit-identical to
  :meth:`~repro.asyncfl.secure_aggregator.AsyncSecureAggregator.aggregate`
  with the same drain stream, because
  :func:`~repro.asyncfl.secure_aggregator.prepare_deliveries` makes all
  value-affecting rng draws and masks cancel exactly.

The buffered engine keeps its own fine-grained round lifecycle
(FILLING -> SEALED -> AGGREGATING -> IDLE) as timestamped
:class:`PhaseTransition` records, nested inside the cohort's coarse
machine so existing status consumers keep working unchanged.

Elastic membership: :meth:`BufferedAsyncRoundEngine.join` /
:meth:`~BufferedAsyncRoundEngine.leave` re-key the session's mask
geometry for the new member set between drains.  The pool entries
encoded for the old geometry are invalidated by
:meth:`~repro.protocols.lightsecagg.session.LightSecAggSession.rekey`
and re-encoded *warm* by the background refiller (the engine nudges
it), so the next drain stalls at most once instead of cold-starting the
whole pool on the online path.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set

import numpy as np

from repro.asyncfl.buffer import BufferedUpdate, UpdateBuffer
from repro.asyncfl.secure_aggregator import AsyncDelivery, prepare_deliveries
from repro.asyncfl.staleness import (
    QuantizedStaleness,
    constant_staleness,
    hinge_staleness,
    polynomial_staleness,
)
from repro.exceptions import ParameterError, ProtocolError
from repro.field.arithmetic import FiniteField
from repro.obs import Span, span
from repro.protocols.lightsecagg.params import LSAParams
from repro.quantization import ModelQuantizer, QuantizationConfig
from repro.service.config import CohortSpec

#: Stream-id constant separating drain rngs from every other derived
#: stream in the repo (shard streams use (seed, cohort, shard)).
DRAIN_STREAM = 0x44524E53  # "DRNS"

#: Staleness weighting functions selectable from config by name.
STALENESS_FNS = ("constant", "polynomial", "hinge")

#: :class:`PhaseTransition` records a buffered engine retains (a ring).
TRANSITION_HISTORY = 64


def drain_stream(
    seed: int, cohort_id: int, drain_index: int
) -> np.random.Generator:
    """The deterministic rng stream for one buffered drain.

    Exported so oracle tests (and the paper's reference
    :class:`~repro.asyncfl.secure_aggregator.AsyncSecureAggregator`) can
    reproduce the exact staleness/quantization draws of a service drain.
    """
    return np.random.default_rng(
        [int(seed), int(cohort_id), DRAIN_STREAM, int(drain_index)]
    )


def build_staleness(
    fn: str, alpha: float = 1.0, levels: int = 1 << 6
) -> QuantizedStaleness:
    """Resolve a config-named staleness function into its quantizer."""
    if fn == "constant":
        resolved = constant_staleness
    elif fn == "polynomial":
        resolved = polynomial_staleness(alpha)
    elif fn == "hinge":
        resolved = hinge_staleness(a=alpha)
    else:
        raise ProtocolError(
            f"unknown staleness fn {fn!r}; expected one of {STALENESS_FNS}"
        )
    return QuantizedStaleness(levels=levels, fn=resolved)


class CohortPhase(enum.Enum):
    """Coarse per-cohort phase machine (see :mod:`repro.service.cohort`,
    which owns it; declared here so engines import it at module level)."""

    IDLE = "idle"
    COLLECTING = "collecting"
    AGGREGATING = "aggregating"
    CLOSED = "closed"


class RoundPhase(enum.Enum):
    """Fine-grained lifecycle of the buffered engine's current batch."""

    IDLE = "idle"
    FILLING = "filling"
    SEALED = "sealed"
    AGGREGATING = "aggregating"
    CLOSED = "closed"


@dataclass(frozen=True)
class PhaseTransition:
    """One timestamped step of the buffered round lifecycle.

    ``round_index`` is the drain index the transition belongs to;
    ``started_at_time`` is the unix time the phase was entered, matching
    the :class:`~repro.obs.Span` time base so transitions line up with
    round traces.
    """

    phase: RoundPhase
    round_index: int
    started_at_time: float = field(default_factory=time.time)


class RoundEngine:
    """Strategy interface: how one cohort kind runs its rounds."""

    kind: str = "abstract"

    def __init__(self) -> None:
        self.cohort = None

    def bind(self, cohort) -> None:
        """Attach the engine to its cohort shell (called by Cohort)."""
        self.cohort = cohort

    def run_round(self, updates, dropouts=None, rng=None, **phase_kwargs):
        raise ProtocolError(
            f"{self.kind} cohorts do not run synchronous rounds"
        )

    @contextmanager
    def _bracket(self, round_index: int, **tags):
        """The round bracket every engine runs its rounds inside.

        Opens the round's trace, then yields ``timed`` — the body calls
        ``timed(session_method, *args)`` exactly once, around the one
        session call that *is* the online round (stall check before,
        wall clock around).  When the body returns, the round is
        recorded, the refiller nudged, the cohort's counters and phase
        committed and the trace closed; when it raises, the trace closes
        with the error and the cohort goes back to IDLE — a failed round
        (e.g. survivors below U) leaves the cohort ready for the next
        one, matching session semantics.
        """
        c = self.cohort
        trace = None
        if c.tracer is not None:
            trace = c.tracer.start_round(c.cohort_id, round_index)
            if trace is not None:
                trace.root.tags.update(tags)
                trace.root.tags["transport"] = c.session.transport.kind
        online, stalled, level_before = 0.0, False, None

        def timed(call, *args, **kwargs):
            nonlocal online, stalled, level_before
            level_before = c.session.pool_level
            stalled = level_before == 0
            if trace is not None and stalled:
                trace.root.tags["stalled"] = "1"
            t0 = time.perf_counter()
            result = call(*args, **kwargs)
            online = time.perf_counter() - t0
            return result

        try:
            yield trace, timed
            if c.metrics is not None:
                c.metrics.record_round(
                    c.cohort_id, online, stalled, level_before
                )
            if c.refiller is not None:
                c.refiller.notify()
            # close() may have raced this round: the work is done and the
            # session already committed its pool accounting, so keep
            # the result and leave the cohort CLOSED rather than blowing
            # up the success path on an AGGREGATING -> IDLE transition
            # the close made invalid.
            c._complete_round(stalled)
            if c.tracer is not None:
                c.tracer.finish(trace)
        except Exception as exc:
            if c.tracer is not None:
                c.tracer.finish(trace, error=exc)
            with c._phase_lock:
                if c.phase is not CohortPhase.CLOSED:
                    c.phase = CohortPhase.IDLE
            raise

    def status_fields(self) -> Dict:
        """Engine-specific additions to :meth:`Cohort.status` (may be
        empty — the sync engine adds nothing so pre-engine status
        snapshots stay byte-identical)."""
        return {}

    def close(self) -> None:
        pass


class SyncRoundEngine(RoundEngine):
    """The original synchronous round machine: the caller hands over a
    full round of updates and blocks through COLLECTING -> AGGREGATING
    on the cohort's own phase state."""

    kind = "sync"

    def run_round(self, updates, dropouts=None, rng=None, **phase_kwargs):
        c = self.cohort
        dropouts = set(dropouts or set())
        # Entering the machine happens OUTSIDE the round bracket: a call
        # rejected here (cohort busy or closed) must not clobber the
        # phase of a round legitimately in progress.  The entry check and
        # the transition race a concurrent close(), so the closed-cohort
        # error is (re)issued whenever CLOSED is what made entry invalid
        # — never a misleading invalid-transition complaint.
        try:
            if c.phase is CohortPhase.CLOSED:
                raise ProtocolError(
                    f"cohort {c.cohort_id} is closed; no further rounds"
                )
            c._transition(CohortPhase.IDLE, CohortPhase.COLLECTING)
        except ProtocolError:
            if c.phase is CohortPhase.CLOSED:
                raise ProtocolError(
                    f"cohort {c.cohort_id} is closed; no further rounds"
                ) from None
            raise
        with self._bracket(c.rounds) as (_trace, timed):
            # COLLECTING: updates are already in hand in-process; a
            # transport would gather client uploads here.
            with span("collect", users=str(len(updates))):
                c._advance(CohortPhase.COLLECTING, CohortPhase.AGGREGATING)
            return timed(
                c.session.run_round, updates, dropouts, rng, **phase_kwargs
            )


class BufferedAsyncRoundEngine(RoundEngine):
    """Buffered asynchronous secure aggregation (paper Appendix F).

    Clients :meth:`submit` real-valued updates tagged with the round at
    which they downloaded the model; the K-th arrival seals the buffer
    and drains it through the session's pooled
    :meth:`~repro.protocols.lightsecagg.session.LightSecAggSession.drain`
    path, the same session class synchronous cohorts run rounds on.  The
    drain's staleness weights and stochastic quantization come from the
    deterministic :func:`drain_stream`, so the aggregate is
    bit-identical to the reference
    :class:`~repro.asyncfl.secure_aggregator.AsyncSecureAggregator`
    fed the same deliveries and stream — on every transport lane.

    Membership is elastic between drains: :meth:`join` admits a new
    member id, :meth:`leave` retires one; both re-key the session's mask
    geometry and hand warm re-encoding to the background refiller.

    Lock order is ``_drain_lock`` before ``_lock`` wherever both are
    held; :meth:`submit` takes only ``_lock`` (and hands a sealed batch
    to the drain path *after* releasing it), so fills never wait on a
    drain in flight.
    """

    kind = "buffered"

    def __init__(self, gf: FiniteField, spec: CohortSpec):
        super().__init__()
        # ``spec`` was range-checked when it was built (config.py).
        self.gf = gf
        self.spec = spec
        self.buffer_capacity = (
            spec.num_users if spec.buffer_size is None else spec.buffer_size
        )
        self.staleness = build_staleness(
            spec.staleness_fn,
            alpha=spec.staleness_alpha,
            levels=spec.staleness_levels,
        )
        self.quantizer = ModelQuantizer(
            gf,
            QuantizationConfig(levels=spec.quant_levels, clip=spec.quant_clip),
        )
        if spec.quant_clip is not None:
            # A full buffer of clipped updates, each weighted by at most
            # the top staleness level, must not wrap the field.
            self.quantizer.check_budget(
                self.buffer_capacity * self.staleness.levels, spec.quant_clip
            )
        self.model_dim = spec.model_dim
        self._members: Set[int] = set(range(spec.num_users))
        self._next_member_id = spec.num_users
        self._lock = threading.Lock()
        self._drain_lock = threading.Lock()
        self._buffer: UpdateBuffer[np.ndarray] = UpdateBuffer(
            self.buffer_capacity
        )
        self._pending_dropouts: Set[int] = set()
        self._fill_started_at: Optional[float] = None
        self._round = 0  # server round t; one drain advances it by one
        self.drains = 0
        self.membership_events: Dict[str, int] = {"join": 0, "leave": 0}
        self.round_phase = RoundPhase.IDLE
        self.transitions: Deque[PhaseTransition] = deque(
            maxlen=TRANSITION_HISTORY
        )

    # ------------------------------------------------------------------
    def bind(self, cohort) -> None:
        super().bind(cohort)
        session = cohort.session
        if session.num_users != len(self._members):
            raise ProtocolError(
                f"engine has {len(self._members)} members but the session "
                f"was built for {session.num_users} users"
            )

    def _set_phase(self, phase: RoundPhase, round_index: int) -> None:
        self.round_phase = phase
        self.transitions.append(
            PhaseTransition(phase=phase, round_index=round_index)
        )

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def submit(
        self,
        user_id: int,
        update: np.ndarray,
        download_round: Optional[int] = None,
        dropouts: Optional[Set[int]] = None,
    ) -> Dict:
        """Buffer one client update; drain when the buffer fills.

        ``download_round`` is the paper's ``t_i`` — the server round at
        which the client downloaded the model it trained on; it defaults
        to the current round (freshest).  ``dropouts`` optionally names
        member ids the client observed unreachable; they are excluded
        from the *recovery* phase of the drain this submission lands in.

        Returns a JSON-serializable dict: either the buffer state
        (``drained=False``) or, for the sealing submission, the full
        drain outcome including the real-valued aggregate.
        """
        c = self.cohort
        update = np.asarray(update, dtype=np.float64)
        if update.shape != (self.model_dim,):
            raise ProtocolError(
                f"update shape {update.shape} != ({self.model_dim},)"
            )
        with self._lock:
            if c.phase is CohortPhase.CLOSED:
                raise ProtocolError(
                    f"cohort {c.cohort_id} is closed; no further updates"
                )
            if int(user_id) not in self._members:
                raise ProtocolError(
                    f"cohort {c.cohort_id} has no member {user_id}"
                )
            t = self._round
            dl = t if download_round is None else int(download_round)
            if not 0 <= dl <= t:
                raise ProtocolError(
                    f"download_round {dl} outside [0, {t}] for member "
                    f"{user_id}"
                )
            if len(self._buffer) == 0:
                self._fill_started_at = time.time()
            if self.round_phase is RoundPhase.IDLE:
                self._set_phase(RoundPhase.FILLING, self.drains)
            self._buffer.push(
                BufferedUpdate(int(user_id), dl, update)
            )
            for member in dropouts or ():
                self._pending_dropouts.add(int(member))
            fill = len(self._buffer)
            if c.metrics is not None:
                c.metrics.record_submit(
                    c.cohort_id, fill, self.buffer_capacity
                )
            if not self._buffer.is_full:
                return {
                    "drained": False,
                    "buffer_fill": fill,
                    "buffer_capacity": self.buffer_capacity,
                    "round": t,
                }
            items = self._buffer.drain()
            recovery_dropouts = set(self._pending_dropouts)
            self._pending_dropouts.clear()
            fill_started = self._fill_started_at
            self._fill_started_at = None
            sealed_at = time.time()
            self._set_phase(RoundPhase.SEALED, self.drains)
        # The K-th submitter carries the drain; later submitters are
        # already filling the next buffer under _lock.
        return self._drain(items, recovery_dropouts, fill_started, sealed_at)

    def _drain(
        self,
        items: List[BufferedUpdate],
        dropout_members: Set[int],
        fill_started: Optional[float],
        sealed_at: float,
    ) -> Dict:
        c = self.cohort
        with self._drain_lock:
            with self._lock:
                drain_index = self.drains
                members = sorted(self._members)
                t = self._round
            rng = drain_stream(self.spec.seed, c.cohort_id, drain_index)
            deliveries = [
                AsyncDelivery(
                    user_id=item.user_id,
                    staleness=t - item.download_round,
                    update=item.payload,
                )
                for item in items
            ]
            try:
                with self._bracket(drain_index, kind="buffered") as (
                    trace, timed,
                ):
                    if trace is not None and fill_started is not None:
                        # The fill predates the trace: record it as a
                        # retroactive span so the timeline shows how long
                        # the buffer took to reach K.
                        trace.add_span(
                            Span(
                                "buffer_fill",
                                start=fill_started,
                                end=sealed_at,
                                tags={"updates": str(len(items))},
                            )
                        )
                    c._advance(CohortPhase.IDLE, CohortPhase.AGGREGATING)
                    with self._lock:
                        self._set_phase(RoundPhase.AGGREGATING, drain_index)
                    prepared = prepare_deliveries(
                        deliveries,
                        self.model_dim,
                        self.quantizer,
                        self.staleness,
                        rng,
                    )
                    total_weight = sum(p.weight for p in prepared)
                    if total_weight == 0:
                        raise ProtocolError(
                            "all staleness weights quantized to zero"
                        )
                    live = [p for p in prepared if p.weight != 0]
                    weights = np.asarray(
                        [p.weight for p in live], dtype=np.uint64
                    )
                    updates = np.stack([p.quantized for p in live])
                    slot_of = {
                        member: i for i, member in enumerate(members)
                    }
                    recovery_slots = {
                        slot_of[m] for m in dropout_members if m in slot_of
                    }
                    with span(
                        "drain",
                        updates=str(len(live)),
                        weight=str(int(total_weight)),
                    ):
                        result = timed(
                            c.session.drain, weights, updates, recovery_slots
                        )
                    aggregate = (
                        self.quantizer.dequantize(result.aggregate)
                        / total_weight
                    )
                    with self._lock:
                        self._round += 1
                        self.drains += 1
                        new_round = self._round
                    if c.metrics is not None:
                        c.metrics.record_drain(
                            c.cohort_id,
                            [d.staleness for d in deliveries],
                        )
            finally:
                # Drained or failed, the batch is gone: the lifecycle
                # follows whatever the next buffer already holds.
                with self._lock:
                    self._set_phase(
                        RoundPhase.FILLING
                        if len(self._buffer)
                        else RoundPhase.IDLE,
                        self.drains,
                    )
            return {
                "drained": True,
                "drain_index": drain_index,
                "round": new_round,
                "num_updates": len(items),
                "total_weight": int(total_weight),
                "weights": [int(p.weight) for p in prepared],
                "staleness": [int(d.staleness) for d in deliveries],
                "survivors": [int(s) for s in result.survivors],
                "aggregate": aggregate,
            }

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def join(self) -> Dict:
        """Admit one new member; re-keys mask shares for the new set.

        Member ids are allocated monotonically (never reused), so a
        departed member's id can never be confused with a new joiner's.
        The session re-key invalidates pool entries encoded for the old
        geometry; the refiller nudge re-encodes them warm off-path.
        """
        return self._rekey(None)

    def leave(self, user_id: int) -> Dict:
        """Retire one member; re-keys mask shares for the smaller set.

        Updates the departing member already buffered stay in the
        buffer — their data was handed over before the departure — but
        the member no longer appears in recovery, and pending recovery
        dropouts naming it are dropped at drain time.
        """
        return self._rekey(int(user_id))

    def _rekey(self, user_id: Optional[int]) -> Dict:
        """The one membership change: validate the new member set, re-key
        the session for it between drains, commit, then tell the metrics
        and the refiller.  ``user_id`` names the member leaving; None is
        a join (the engine allocates the id)."""
        c = self.cohort
        spec = self.spec
        event = "join" if user_id is None else "leave"
        with self._drain_lock, self._lock:
            if c.phase is CohortPhase.CLOSED:
                raise ProtocolError(
                    f"cohort {c.cohort_id} is closed; membership frozen"
                )
            if user_id is None:
                user_id = self._next_member_id
                members = self._members | {user_id}
            elif user_id not in self._members:
                raise ProtocolError(
                    f"cohort {c.cohort_id} has no member {user_id}"
                )
            else:
                members = self._members - {user_id}
            new_n = len(members)
            if new_n < 2:
                raise ProtocolError("cannot drop below 2 members")
            if new_n < self.buffer_capacity:
                raise ProtocolError(
                    f"cannot leave: {new_n} members would be fewer "
                    f"than the buffer capacity {self.buffer_capacity}"
                )
            try:
                LSAParams.from_guarantees(
                    new_n,
                    privacy=spec.privacy,
                    dropout_tolerance=spec.dropout_tolerance,
                )
            except ParameterError as exc:
                raise ProtocolError(
                    f"infeasible membership change to N={new_n} with "
                    f"T={spec.privacy}, D={spec.dropout_tolerance}: {exc}"
                ) from exc
            invalidated = int(c.session.rekey(new_n))
            self._members = members
            # A join consumes the id it was allocated; a leave's is older.
            self._next_member_id = max(self._next_member_id, user_id + 1)
            self.membership_events[event] += 1
        if c.metrics is not None:
            c.metrics.record_membership(c.cohort_id, event)
        if c.refiller is not None:
            c.refiller.notify()
        return {
            "user_id": user_id,
            "num_users": new_n,
            "invalidated_rounds": invalidated,
        }

    # ------------------------------------------------------------------
    def status_fields(self) -> Dict:
        with self._lock:
            return {
                "kind": self.kind,
                "round_phase": self.round_phase.value,
                "buffer_fill": len(self._buffer),
                "buffer_capacity": self.buffer_capacity,
                "drains": self.drains,
                "server_round": self._round,
                "num_users": len(self._members),
                "members": sorted(self._members),
                "membership_events": dict(self.membership_events),
            }

    def members(self) -> List[int]:
        with self._lock:
            return sorted(self._members)

    def close(self) -> None:
        with self._lock:
            self._set_phase(RoundPhase.CLOSED, self.drains)

"""The one round engine behind the protocol-agnostic cohort shell.

A :class:`~repro.service.cohort.Cohort` owns identity and the wiring to
metrics / refiller / tracer.  *How* a batch is sealed and aggregated —
and the cohort's one lifecycle and round counter — is the business of
:class:`RoundEngine`, and every cohort runs the same one.  A batch
seals two ways:

* :meth:`RoundEngine.submit` — the paper's buffered-async workload
  (Appendix F): clients submit real-valued updates whenever they finish
  local training, the buffer fills asynchronously, and the K-th arrival
  seals the batch and drains it at its staleness weights.  Drains are
  bit-identical to
  :meth:`~repro.asyncfl.secure_aggregator.AsyncSecureAggregator.aggregate`
  with the same drain stream, because
  :func:`~repro.asyncfl.secure_aggregator.prepare_deliveries` makes all
  value-affecting rng draws and masks cancel exactly.
* :meth:`RoundEngine.run_round` — the synchronous round: the caller
  hands over one field-word row per member and the engine seals them at
  unit weight and zero staleness, the session's 0/1 drain.

Both seals take the same drain lock, run inside the same round bracket,
read the same member set and member->slot map, and advance the one
server round, so staleness keeps counting model versions whichever way
the model moved.

The cohort's one lifecycle, :class:`RoundPhase`, kept under the
engine's ``_lock`` and recorded as timestamped :class:`PhaseTransition`
records::

    IDLE -> FILLING -> SEALED -> AGGREGATING -> IDLE | FILLING
    any  -> CLOSED                                      (terminal)

A buffered batch fills (FILLING) until its K-th submission seals it; a
synchronous round arrives whole and starts at SEALED.  After a seal the
phase returns to SEALED while a batch sealed behind it waits, and
otherwise follows whatever the next buffer already holds.  CLOSED is
terminal: a seal in flight when the cohort closes completes, but moves
the phase no more.

Elastic membership: :meth:`RoundEngine.join` /
:meth:`~RoundEngine.leave` re-key the session's mask geometry for the
new member set between seals.  The pool entries encoded for the old
geometry are invalidated by
:meth:`~repro.protocols.lightsecagg.session.LightSecAggSession.rekey`
and re-encoded *warm* by the background refiller (the engine nudges
it), so the next seal stalls at most once instead of cold-starting the
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
from repro.obs import Span, span
from repro.protocols.base import AggregationResult
from repro.protocols.lightsecagg.params import LSAParams
from repro.quantization import ModelQuantizer, QuantizationConfig
from repro.service.config import STALENESS_FNS

#: Stream-id constant separating drain rngs from every other derived
#: stream in the repo (shard streams use (seed, cohort, shard)).
DRAIN_STREAM = 0x44524E53  # "DRNS"

#: :class:`PhaseTransition` records an engine retains (a ring).
TRANSITION_HISTORY = 64


def drain_stream(
    seed: int, cohort_id: int, drain_index: int
) -> np.random.Generator:
    """The deterministic rng stream for one buffered drain.

    ``drain_index`` is the server round the drain seals at: every round
    and every drain of the cohort advances it by one.

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


class RoundPhase(enum.Enum):
    """The cohort's lifecycle (see the module docstring)."""

    IDLE = "idle"
    FILLING = "filling"
    SEALED = "sealed"
    AGGREGATING = "aggregating"
    CLOSED = "closed"


@dataclass(frozen=True)
class PhaseTransition:
    """One timestamped step of the seal lifecycle.

    ``round_index`` is the server round the transition belongs to;
    ``started_at_time`` is the unix time the phase was entered, matching
    the :class:`~repro.obs.Span` time base so transitions line up with
    round traces.
    """

    phase: RoundPhase
    round_index: int
    started_at_time: float = field(default_factory=time.time)


class RoundEngine:
    """Seal-and-aggregate for one cohort: rounds, submissions, members.

    :meth:`run_round` and :meth:`submit` seal a batch (see the module
    docstring).  Either seal holds ``_drain_lock`` throughout, runs
    inside :meth:`_bracket`, maps member ids to session slots in
    sorted-member order (the identity while the members are ``0..N-1``)
    and advances the server round by one; its index — a drain's
    ``drain_index``, the key of its :func:`drain_stream` — is the server
    round it seals at.  :meth:`join` and :meth:`leave` re-key between
    seals.

    ``phase``, ``server_round``, ``stalls`` and ``drains`` are the
    cohort's lifecycle and counters; they change only under ``_lock``,
    and a seal commits all of them in one ``_lock`` section.  Lock order
    is ``_drain_lock`` before ``_lock`` wherever both are held;
    :meth:`submit` takes only ``_lock`` (and hands a sealed batch to the
    drain path *after* releasing it), so fills never wait on a seal in
    flight.
    """

    def __init__(self, cohort) -> None:
        # ``spec`` was range-checked when it was built (config.py).
        spec = cohort.spec
        self.cohort = cohort
        self.spec = spec
        self.buffer_capacity = spec.buffer_capacity
        self.staleness = build_staleness(
            spec.staleness_fn,
            alpha=spec.staleness_alpha,
            levels=spec.staleness_levels,
        )
        self.quantizer = ModelQuantizer(
            cohort.session.gf,
            QuantizationConfig(levels=spec.quant_levels, clip=spec.quant_clip),
        )
        if spec.quant_clip is not None:
            # A full buffer of clipped updates, each weighted by at most
            # the top staleness level, must not wrap the field.
            self.quantizer.check_budget(
                self.buffer_capacity * self.staleness.levels, spec.quant_clip
            )
        self._members: Set[int] = set(range(spec.num_users))
        self._next_member_id = spec.num_users
        self._lock = threading.Lock()
        self._drain_lock = threading.Lock()
        self._buffer: UpdateBuffer[np.ndarray] = UpdateBuffer(
            self.buffer_capacity
        )
        self._pending_dropouts: Set[int] = set()
        self._fill_started_at: Optional[float] = None
        self.server_round = 0  # t; every seal advances it by one
        self.stalls = 0  # seals that found the session pool empty
        self.drains = 0  # seals of a buffered batch
        self._sealed_waiting = 0  # sealed batches not yet draining
        self.membership_events: Dict[str, int] = {"join": 0, "leave": 0}
        self.phase = RoundPhase.IDLE
        self.transitions: Deque[PhaseTransition] = deque(
            maxlen=TRANSITION_HISTORY
        )

    def _set_phase(self, phase: RoundPhase, round_index: int) -> None:
        """Enter ``phase``; caller holds ``_lock``.  CLOSED is terminal,
        so once the cohort is closed this records nothing."""
        if self.phase is RoundPhase.CLOSED:
            return
        self.phase = phase
        self.transitions.append(
            PhaseTransition(phase=phase, round_index=round_index)
        )

    def _settle(self) -> None:
        """After a seal, aggregated or failed (caller holds ``_lock``):
        the batch is gone, so the phase is SEALED while a sealed batch
        waits to drain, and otherwise follows the next buffer."""
        if self._sealed_waiting:
            phase = RoundPhase.SEALED
        elif len(self._buffer):
            phase = RoundPhase.FILLING
        else:
            phase = RoundPhase.IDLE
        self._set_phase(phase, self.server_round)

    def _refuse_if_closed(self, what: str) -> None:
        """Caller holds ``_lock``."""
        if self.phase is RoundPhase.CLOSED:
            raise ProtocolError(
                f"cohort {self.cohort.cohort_id} is closed; {what}"
            )

    @contextmanager
    def _bracket(self, round_index: int, buffered: bool = False):
        """The bracket every seal runs inside.

        Opens the round's trace, then yields ``timed`` — the body calls
        ``timed(session_method, *args)`` exactly once, around the one
        session call that *is* the online round (stall check before,
        wall clock around).  When the body returns, the round is
        recorded, the refiller nudged, the server round, stall and drain
        counters and the phase committed in one ``_lock`` section, and
        the trace closed.  When it raises, the trace closes with the
        error and the phase settles without counting a round — a failed
        seal (e.g. survivors below U) leaves the cohort ready for the
        next one, matching session semantics.  A :meth:`close` that
        raced the seal keeps its result and leaves the cohort CLOSED.
        """
        c = self.cohort
        trace = None
        if c.tracer is not None:
            trace = c.tracer.start_round(c.cohort_id, round_index)
            if trace is not None:
                if buffered:
                    trace.root.tags["kind"] = "buffered"
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
        except Exception as exc:
            if c.tracer is not None:
                c.tracer.finish(trace, error=exc)
            with self._lock:
                self._settle()
            raise
        with self._lock:
            self.server_round += 1
            self.stalls += stalled
            self.drains += buffered
            self._settle()
        if c.tracer is not None:
            c.tracer.finish(trace)

    # ------------------------------------------------------------------
    # the synchronous seal
    # ------------------------------------------------------------------
    def run_round(
        self,
        updates: Dict[int, np.ndarray],
        dropouts: Optional[Set[int]] = None,
    ) -> AggregationResult:
        """Seal one round: ``updates`` holds one field-word row per
        member id, ``dropouts`` names the members whose upload is lost.

        The rows go to the session's 0/1 drain, weighted 1 on the
        survivors; the survivors come back as member ids, and
        ``server_round`` names the round the seal advanced the cohort
        to.  The round arrives whole, so the phase walks SEALED ->
        AGGREGATING -> IDLE (or FILLING); a round that finds the cohort
        closed fails with a closed-cohort error.
        """
        c = self.cohort
        with self._drain_lock:
            with self._lock:
                self._refuse_if_closed("no further rounds")
                index = self.server_round
                members = sorted(self._members)
                self._set_phase(RoundPhase.SEALED, index)
            with self._bracket(index) as (_trace, timed):
                # The updates are already in hand in-process; a
                # transport would gather client uploads here.
                with span("collect", users=str(len(updates))):
                    slot_of = {m: slot for slot, m in enumerate(members)}
                    dropouts = set(dropouts or ())
                    unknown = (set(updates) | dropouts) - slot_of.keys()
                    if unknown:
                        raise ProtocolError(
                            f"cohort {c.cohort_id} has no member(s) "
                            f"{sorted(unknown)}"
                        )
                    rows = {slot_of[m]: v for m, v in updates.items()}
                    lost = {slot_of[m] for m in dropouts}
                with self._lock:
                    self._set_phase(RoundPhase.AGGREGATING, index)
                result = timed(c.session.run_round, rows, lost)
        result.survivors = [members[slot] for slot in result.survivors]
        result.server_round = index + 1
        return result

    # ------------------------------------------------------------------
    # the buffered seal
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
        if update.shape != (self.spec.model_dim,):
            raise ProtocolError(
                f"update shape {update.shape} != ({self.spec.model_dim},)"
            )
        with self._lock:
            self._refuse_if_closed("no further updates")
            if int(user_id) not in self._members:
                raise ProtocolError(
                    f"cohort {c.cohort_id} has no member {user_id}"
                )
            t = self.server_round
            dl = t if download_round is None else int(download_round)
            if not 0 <= dl <= t:
                raise ProtocolError(
                    f"download_round {dl} outside [0, {t}] for member "
                    f"{user_id}"
                )
            if len(self._buffer) == 0:
                self._fill_started_at = time.time()
            if self.phase is RoundPhase.IDLE:
                self._set_phase(RoundPhase.FILLING, t)
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
            self._sealed_waiting += 1
            # Behind a seal in flight the batch waits; that seal's
            # settle records SEALED at the round this batch seals at.
            if self.phase in (RoundPhase.IDLE, RoundPhase.FILLING):
                self._set_phase(RoundPhase.SEALED, t)
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
                self._sealed_waiting -= 1
                t = self.server_round
                members = sorted(self._members)
            rng = drain_stream(self.spec.seed, c.cohort_id, t)
            deliveries = [
                AsyncDelivery(
                    user_id=item.user_id,
                    staleness=t - item.download_round,
                    update=item.payload,
                )
                for item in items
            ]
            with self._bracket(t, buffered=True) as (trace, timed):
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
                with self._lock:
                    self._set_phase(RoundPhase.AGGREGATING, t)
                prepared = prepare_deliveries(
                    deliveries,
                    self.spec.model_dim,
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
                # A member that left since the client observed it is
                # no longer in recovery: its id has no slot.
                slot_of = {member: i for i, member in enumerate(members)}
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
                if c.metrics is not None:
                    c.metrics.record_drain(
                        c.cohort_id, [d.staleness for d in deliveries]
                    )
            return {
                "drained": True,
                "drain_index": t,
                "round": t + 1,
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
        the session for it between seals, commit, then tell the metrics
        and the refiller.  ``user_id`` names the member leaving; None is
        a join (the engine allocates the id)."""
        c = self.cohort
        spec = self.spec
        event = "join" if user_id is None else "leave"
        with self._drain_lock, self._lock:
            self._refuse_if_closed("membership frozen")
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
        """The engine's half of :meth:`Cohort.status`, read in one
        ``_lock`` section: ``rounds`` is ``server_round`` (every seal
        counts once), and a scrape never sees a seal half-committed."""
        with self._lock:
            return {
                "phase": self.phase.value,
                "rounds": self.server_round,
                "stalls": self.stalls,
                "buffer_fill": len(self._buffer),
                "buffer_capacity": self.buffer_capacity,
                "drains": self.drains,
                "server_round": self.server_round,
                "num_users": len(self._members),
                "members": sorted(self._members),
                "membership_events": dict(self.membership_events),
            }

    def members(self) -> List[int]:
        with self._lock:
            return sorted(self._members)

    def close(self) -> None:
        with self._lock:
            self._set_phase(RoundPhase.CLOSED, self.server_round)

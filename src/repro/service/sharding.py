"""Model-vector sharding across per-shard protocol sessions.

Secure aggregation is elementwise: the field sum of the surviving users'
updates decomposes coordinate-by-coordinate.  A :class:`ShardPlan`
partitions the length-``d`` model vector into ``S`` contiguous slices
(the same near-even split :mod:`repro.coding.partition` uses, without
padding), and a :class:`ShardedSession` drives one pooled protocol
session per shard: client updates are *scattered* into per-shard slices,
every shard runs the same round against the same dropout set, and the
shard aggregates are *gathered* back into one vector.

Because the per-shard field sums are exact, reassembly is bit-identical
to running the round through a single session over the full vector —
that is the correctness contract the service tests pin down.  What
sharding buys is systems headroom: each shard's offline pool is
``S``-times narrower (cheaper refills that can proceed in parallel and
interleave with draining), and in a deployment each shard would live on
its own worker.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.exceptions import ProtocolError
from repro.obs import span
from repro.protocols.base import (
    AggregationResult,
    RoundMetrics,
    SessionStats,
    Transcript,
)
from repro.service.transport import InlineTransport, ShardTransport


class ShardPlan:
    """Contiguous near-even partition of ``dim`` into ``num_shards`` slices."""

    def __init__(self, dim: int, num_shards: int):
        if dim < 1:
            raise ProtocolError(f"dim must be >= 1, got {dim}")
        if not 1 <= num_shards <= dim:
            raise ProtocolError(
                f"num_shards must be in [1, dim={dim}], got {num_shards}"
            )
        self.dim = int(dim)
        self.num_shards = int(num_shards)
        base, extra = divmod(self.dim, self.num_shards)
        self.widths: List[int] = [
            base + (1 if s < extra else 0) for s in range(self.num_shards)
        ]
        self.offsets: List[int] = [0]
        for w in self.widths[:-1]:
            self.offsets.append(self.offsets[-1] + w)

    def slice(self, shard: int) -> slice:
        return slice(
            self.offsets[shard], self.offsets[shard] + self.widths[shard]
        )

    def scatter(self, vector: np.ndarray) -> List[np.ndarray]:
        """Split one full-length vector into its per-shard slices."""
        vector = np.asarray(vector)
        if vector.shape != (self.dim,):
            raise ProtocolError(
                f"expected a vector of shape ({self.dim},), got {vector.shape}"
            )
        return [vector[self.slice(s)] for s in range(self.num_shards)]

    def gather(self, pieces: Sequence[np.ndarray]) -> np.ndarray:
        """Reassemble per-shard slices into one full-length vector."""
        if len(pieces) != self.num_shards:
            raise ProtocolError(
                f"expected {self.num_shards} shard pieces, got {len(pieces)}"
            )
        for s, piece in enumerate(pieces):
            if np.asarray(piece).shape != (self.widths[s],):
                raise ProtocolError(
                    f"shard {s} piece has shape {np.asarray(piece).shape}, "
                    f"expected ({self.widths[s]},)"
                )
        return np.concatenate(pieces)

    def __repr__(self) -> str:
        return f"ShardPlan(dim={self.dim}, shards={self.widths})"


class ShardedSession:
    """Coordinator that drives one protocol session per model shard.

    Exposes the same surface as a
    :class:`~repro.protocols.base.ProtocolSession` (``run_round``,
    ``refill``, ``pool_level``, ``needs_refill``, ``close``, ``stats``
    ...), so the FL loop and the background refiller treat it
    interchangeably with a single-shard session; every service cohort
    holds exactly one, over one shard or many.

    Shard execution is delegated to a
    :class:`~repro.service.transport.ShardTransport`: pass live sessions
    (wrapped in an :class:`~repro.service.transport.InlineTransport`,
    the original direct-call behaviour, bit-identical) or any other
    backend via ``transport=`` — e.g. a
    :class:`~repro.service.socket_transport.ProcessPoolTransport` whose shard
    rounds run on separate cores.  Per-shard handles can also be
    registered with a refiller *individually* (see
    :attr:`shard_sessions`), which lets their refills interleave with
    rounds at shard granularity.
    """

    def __init__(
        self,
        plan: ShardPlan,
        shard_sessions: Optional[Sequence] = None,
        *,
        transport: Optional[ShardTransport] = None,
    ):
        if (shard_sessions is None) == (transport is None):
            raise ProtocolError(
                "pass exactly one of shard_sessions= or transport="
            )
        if transport is None:
            self._validate_sessions(plan, shard_sessions)
            transport = InlineTransport(shard_sessions)
        if transport.num_shards != plan.num_shards:
            raise ProtocolError(
                f"plan has {plan.num_shards} shards but the transport "
                f"drives {transport.num_shards}"
            )
        self.plan = plan
        self.transport = transport
        self.shard_sessions = list(transport.shard_handles)
        self.num_users = self._shared_num_users(self.shard_sessions)
        self.stats = SessionStats()
        self._logical_misses = 0  # rounds in which any shard missed

    @staticmethod
    def _validate_sessions(plan: ShardPlan, shard_sessions: Sequence) -> None:
        if len(shard_sessions) != plan.num_shards:
            raise ProtocolError(
                f"plan has {plan.num_shards} shards but "
                f"{len(shard_sessions)} sessions were supplied"
            )
        for s, sess in enumerate(shard_sessions):
            if sess.protocol.model_dim != plan.widths[s]:
                raise ProtocolError(
                    f"shard {s} session covers d={sess.protocol.model_dim}, "
                    f"plan expects {plan.widths[s]}"
                )
        if len({sess.gf for sess in shard_sessions}) != 1:
            raise ProtocolError("shard sessions disagree on the field")

    @staticmethod
    def _shared_num_users(handles: Sequence) -> int:
        users = {h.num_users for h in handles}
        if len(users) != 1:
            raise ProtocolError(
                f"shard sessions disagree on user count: {sorted(users)}"
            )
        return users.pop()

    # ------------------------------------------------------------------
    # session surface (pool management)
    # ------------------------------------------------------------------
    @property
    def gf(self):
        """The shared field (validated identical across shard protocols)."""
        return self.transport.gf

    @property
    def pool_level(self) -> int:
        """Rounds servable without a refill: the min over shards."""
        return min(s.pool_level for s in self.shard_sessions)

    @property
    def pool_size(self) -> int:
        return min(s.pool_size for s in self.shard_sessions)

    @property
    def needs_refill(self) -> bool:
        return any(s.needs_refill for s in self.shard_sessions)

    @property
    def closed(self) -> bool:
        return self.transport.closed or any(
            s.closed for s in self.shard_sessions
        )

    def refill(self, rounds: Optional[int] = None) -> int:
        """Refill every shard; returns the max rounds added to any shard.

        On a process transport the per-shard refill requests are all
        scattered before any is joined, so the encodes overlap across
        worker cores.
        """
        return self.transport.refill_all(rounds)

    def offline_elements(self) -> int:
        return sum(s.offline_elements() for s in self.shard_sessions)

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the round: scatter -> per-shard rounds -> gather
    # ------------------------------------------------------------------
    def run_round(
        self,
        updates: Dict[int, np.ndarray],
        dropouts: Set[int],
        rng: Optional[np.random.Generator] = None,
        **phase_kwargs,
    ) -> AggregationResult:
        """One logical round across all shards.

        Every shard session sees the same dropout set (and any
        ``phase_kwargs`` like ``offline_dropouts``), so survivor sets
        agree by construction; the reassembled aggregate is bit-identical
        to the single-shard path because field sums are elementwise.
        """
        scattered: Dict[int, List[np.ndarray]] = {
            uid: self.plan.scatter(vec) for uid, vec in updates.items()
        }
        per_shard_updates = [
            {uid: parts[s] for uid, parts in scattered.items()}
            for s in range(self.plan.num_shards)
        ]
        return self._merged(
            lambda: self.transport.run_all(
                per_shard_updates, dropouts, rng, **phase_kwargs
            )
        )

    def drain(
        self,
        weights,
        updates: np.ndarray,
        recovery_dropouts: Optional[Set[int]] = None,
    ) -> AggregationResult:
        """One buffered drain across all shards.

        ``updates`` is the full ``(B, dim)`` matrix of unweighted
        quantized deliveries in buffer order; each shard drains its
        column slice under the shared weight vector, so the reassembled
        aggregate is bit-identical to a single full-width drain for the
        same reason rounds are — field sums are elementwise.
        """
        updates = np.asarray(updates, dtype=np.uint64)
        if updates.ndim != 2 or updates.shape[1] != self.plan.dim:
            raise ProtocolError(
                f"expected a (B, {self.plan.dim}) update matrix, got "
                f"{updates.shape}"
            )
        per_shard_updates = [
            np.ascontiguousarray(updates[:, self.plan.slice(s)])
            for s in range(self.plan.num_shards)
        ]
        return self._merged(
            lambda: self.transport.drain_all(
                weights, per_shard_updates, set(recovery_dropouts or set())
            )
        )

    def _merged(self, dispatch) -> AggregationResult:
        """Run ``dispatch()`` (one result per shard) and merge: survivors
        must agree, aggregates concatenate, transcripts and cost counters
        sum — the tail every logical shard operation shares."""
        misses_before = sum(s.stats.pool_misses for s in self.shard_sessions)
        shard_results: List[AggregationResult] = dispatch()
        misses_after = sum(s.stats.pool_misses for s in self.shard_sessions)
        if misses_after > misses_before:
            self._logical_misses += 1

        survivors = shard_results[0].survivors
        for s, res in enumerate(shard_results[1:], start=1):
            if res.survivors != survivors:
                raise ProtocolError(
                    f"shard {s} diverged on survivors: {res.survivors} "
                    f"vs {survivors}"
                )
        with span("reconstruct", shards=str(self.plan.num_shards)):
            aggregate = self.plan.gather(
                [r.aggregate for r in shard_results]
            )

            transcript = Transcript()
            metrics = RoundMetrics()
            for res in shard_results:
                transcript.messages.extend(res.transcript.messages)
                metrics.server_decode_ops += res.metrics.server_decode_ops
                metrics.server_prg_elements += res.metrics.server_prg_elements
                metrics.user_encode_ops += res.metrics.user_encode_ops
                for key, val in res.metrics.extra.items():
                    metrics.extra[key] = metrics.extra.get(key, 0.0) + val

        self.stats.rounds += 1
        self._merge_shard_stats()
        return AggregationResult(
            aggregate=aggregate,
            survivors=survivors,
            transcript=transcript,
            metrics=metrics,
        )

    def rekey(self, num_users: int) -> int:
        """Re-key every shard for a new member count."""
        invalidated = self.transport.rekey_all(num_users)
        self.num_users = int(num_users)
        return invalidated

    def _merge_shard_stats(self) -> None:
        """Mirror per-shard counters into this coordinator's stats.

        ``pool_misses`` counts *logical* rounds in which at least one
        shard ran an inline refill (one shard stalling stalls the whole
        round — tracked per round, since different shards can miss in
        different rounds); ``pool_hits`` is the complement.  Refill
        counters are summed across shards.
        """
        self.stats.refills = sum(s.stats.refills for s in self.shard_sessions)
        self.stats.precomputed_rounds = sum(
            s.stats.precomputed_rounds for s in self.shard_sessions
        )
        self.stats.refill_seconds = sum(
            s.stats.refill_seconds for s in self.shard_sessions
        )
        self.stats.pool_misses = self._logical_misses
        self.stats.pool_hits = self.stats.rounds - self.stats.pool_misses

    def __repr__(self) -> str:
        return (
            f"ShardedSession(shards={self.plan.num_shards}, "
            f"d={self.plan.dim}, pool={self.pool_level}/{self.pool_size}, "
            f"rounds={self.stats.rounds})"
        )

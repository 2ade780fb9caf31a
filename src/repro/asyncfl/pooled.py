"""Pooled session for buffered-async secure aggregation.

The one-shot :class:`~repro.asyncfl.secure_aggregator.AsyncSecureAggregator`
re-encodes every delivery's mask inline, so a buffer drain pays the full
offline cost on the critical path.  :class:`BufferedShardSession` moves
that cost into the same precomputed pool machinery the synchronous
service path uses: one :class:`~repro.protocols.lightsecagg.session.
OfflineMaterial` (``N`` masks plus the full coded-share grid) serves one
*drain* instead of one synchronous round — delivery ``b`` of the buffer
is protected by pooled mask slot ``b``, and the holders' weighted
aggregated shares decode the weighted aggregate mask in one shot, exactly
as in the paper's Appendix F.

Why the pooled drain is bit-identical to the one-shot oracle even though
the masks differ: the field aggregate is

    ``sum_b w_b * (q_b + z_b)  -  decode(sum_b w_b * [~z_b])``

and MDS decoding is exactly linear in the shares, so the mask terms
cancel *exactly* (mod q) and the result is the canonical
``sum_b w_b * q_b`` for any choice of masks.  Only the ``(w_b, q_b)``
pairs carry randomness that reaches the aggregate, and those are drawn
by :func:`~repro.asyncfl.secure_aggregator.prepare_deliveries` — shared
with the oracle — from whatever rng the engine seeds.

Elastic membership re-keying lives here too: :meth:`rekey` rebuilds the
protocol geometry for a new member count, invalidates the pooled
material (it was encoded for the old ``N``), and leaves warm re-encoding
to the service's background refiller.
"""

from __future__ import annotations

from typing import Optional, Set

import numpy as np

from repro.coding.mask_encoding import MaskEncoder
from repro.exceptions import DropoutError, ProtocolError
from repro.protocols.base import (
    SERVER,
    AggregationResult,
    RoundMetrics,
    Transcript,
)
from repro.protocols.lightsecagg.session import LightSecAggSession


class BufferedShardSession(LightSecAggSession):
    """Pooled LightSecAgg session drained by weighted async buffers.

    The synchronous ``run_round`` surface is inherited unchanged (useful
    for warm-up checks), but the session's real job is :meth:`drain`:
    aggregate ``B <= N`` buffered deliveries under public integer
    staleness weights, spending one pooled round of offline material.
    """

    def drain(
        self,
        weights,
        updates: np.ndarray,
        recovery_dropouts: Optional[Set[int]] = None,
    ) -> AggregationResult:
        """One buffer drain: weighted secure aggregation of ``B`` updates.

        Parameters
        ----------
        weights:
            ``(B,)`` positive integer staleness weights, one per buffered
            delivery in arrival order.  Zero-weight deliveries must be
            filtered out by the caller (they contribute nothing and would
            waste a mask slot).
        updates:
            ``(B, model_dim)`` integer matrix of *unweighted* quantized
            updates, row ``b`` = delivery ``b`` (canonical uint64
            residues are used as they are, anything else goes through
            ``gf.array``).  Row order is load-bearing: delivery ``b``
            consumes pooled mask slot ``b``.
        recovery_dropouts:
            Member slots (``0..N-1``) that do not answer the recovery
            phase; at least ``U`` must remain.

        Returns the usual :class:`AggregationResult` whose aggregate is
        the exact field value ``sum_b w_b * updates_b (mod q)`` —
        independent of which pooled masks were spent, which is what makes
        the drain bit-identical across transports and across re-keys.
        A rejected drain raises before any pooled material is taken.
        """
        self._require_open()
        recovery_dropouts = set(recovery_dropouts or set())
        weights = np.asarray(weights, dtype=np.uint64)
        updates = np.asarray(updates)
        if weights.ndim != 1 or weights.size == 0:
            raise ProtocolError("drain needs a non-empty 1-D weight vector")
        batch = int(weights.size)
        if updates.shape != (batch, self.model_dim):
            raise ProtocolError(
                f"drain updates shape {updates.shape} != "
                f"({batch}, {self.model_dim})"
            )
        if not np.issubdtype(updates.dtype, np.integer):
            raise ProtocolError(
                f"drain updates dtype {updates.dtype} is not an integer"
            )
        if np.any(weights == 0):
            raise ProtocolError(
                "drain weights must be positive; filter zero-weight "
                "deliveries before draining"
            )
        n = self.params.num_users
        if batch > n:
            raise ProtocolError(
                f"drain of {batch} deliveries exceeds the {n} mask slots "
                "of one pooled round"
            )
        bad = recovery_dropouts - set(range(n))
        if bad:
            raise ProtocolError(
                f"recovery dropout slots {sorted(bad)} out of range"
            )
        responders_all = [j for j in range(n) if j not in recovery_dropouts]
        u = self.params.target_survivors
        if len(responders_all) < u:
            raise DropoutError(
                f"only {len(responders_all)} recovery responders, need "
                f"U={u}"
            )
        # Canonical residues, copy-free when the caller's already are;
        # everything that can reject the drain is above this line, so a
        # rejected drain spends no pooled material.
        gf = self.gf
        if not gf.is_valid(updates):
            updates = gf.array(updates)
        w = gf.array(weights)[None, :]  # (1, B)
        material = self._take_material()

        share_dim = self.encoder.share_dim
        transcript = Transcript()

        # Upload: each delivery arrives masked by its slot's pooled mask
        # (two residues: one conditional subtract); the server applies
        # the public weights in-field as one (1, B) @ (B, d) product.
        masked = gf.reducer.reduce_semi(updates + material.masks[:batch])
        masked_sum = gf.matmul(w, masked)[0]
        for b in range(batch):
            transcript.record(b, SERVER, "upload", self.model_dim)

        # Recovery: the first U responders send their weighted aggregated
        # shares; one-shot decode of the weighted aggregate mask.  The
        # decode is linear, so decode(sum_b w_b [~z_b]) = sum_b w_b z_b.
        # Weighting every holder's row in one product and keeping the
        # responders' avoids gathering a (B, U, share_dim) grid.
        responders = responders_all[:u]
        coded = material.coded[:batch].reshape(batch, n * share_dim)
        agg_shares = gf.matmul(w, coded).reshape(n, share_dim)
        for j in responders:
            transcript.record(j, SERVER, "recovery", share_dim)
        agg_mask = self.encoder.decode_aggregate(
            {j: agg_shares[j] for j in responders}
        )
        aggregate = gf.sub(masked_sum, agg_mask)

        metrics = RoundMetrics(
            server_decode_ops=u * u * share_dim,
            server_prg_elements=0,
            user_encode_ops=0,
            extra={
                "pool_level": float(len(self._pool)),
                "amortized_encode_ops": float(n * u * share_dim),
                "drain_batch": float(batch),
            },
        )
        self.stats.rounds += 1
        return AggregationResult(
            aggregate=aggregate,
            survivors=responders_all,
            transcript=transcript,
            metrics=metrics,
        )

    # ------------------------------------------------------------------
    def rekey(self, num_users: int) -> int:
        """Re-key the session for a new member count.

        Rebuilds the protocol geometry (``U`` re-derived from the same
        ``(T, D)`` guarantees, so any party can reproduce the parameters
        from ``num_users`` alone), swaps in a fresh encoder, and drops
        the pooled material — it was encoded for the old member set and
        its share grid no longer matches.  Returns the number of pooled
        rounds invalidated; re-encoding is intentionally *not* done here
        so a background refiller can warm the pool off the drain path.

        Serialized against refills under ``_refill_lock`` so a refill in
        flight lands (and is discarded) atomically relative to the swap,
        never half-encoded for a stale geometry.
        """
        from repro.protocols.lightsecagg.params import LSAParams
        from repro.protocols.lightsecagg.protocol import LightSecAgg

        self._require_open()
        with self._refill_lock:
            params = LSAParams.from_guarantees(
                num_users,
                privacy=self.params.privacy,
                dropout_tolerance=self.params.dropout_tolerance,
            )
            protocol = LightSecAgg(
                self.gf, params, self.model_dim,
                generator=self.protocol.generator,
            )
            encoder = MaskEncoder(
                self.gf,
                num_users=params.num_users,
                target_survivors=params.target_survivors,
                privacy=params.privacy,
                model_dim=self.model_dim,
                generator=protocol.generator,
            )
            with self._pool_lock:
                invalidated = len(self._pool)
                self._pool.clear()
                self.protocol = protocol
                self.params = params
                self.encoder = encoder
        return invalidated

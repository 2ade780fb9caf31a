"""Multi-round LightSecAgg sessions with an amortized offline phase.

The paper's central systems claim is that mask encoding and sharing is an
*offline* phase: it involves no model data, so it can be precomputed and
pipelined away from the online aggregation path.  A
:class:`LightSecAggSession` makes that concrete.  Users and the server
persist across rounds, and the session maintains a **pool** of precomputed
offline material — for each pooled round, every user's mask ``z_i`` and the
full ``N x N`` grid of coded shares ``[~z_i]_j``.  The pool is filled
``K`` rounds at a time with a single batched field matmul
(:meth:`repro.coding.mask_encoding.MaskEncoder.encode_batch` over ``K*N``
masks), and online rounds just drain it: the per-round critical path is
masking, upload, aggregate-share summation, and one MDS decode.

The pool lives in one **slab** per session: ``pool_size`` round slots of
``<u4`` masks and coded shares, allocated at the first refill after the
session opens or re-keys.  A refill encodes straight into the free slots
and a spent round hands its slot back as soon as the kernel that reads
it returns, so the pool's memory is ``pool_size`` rounds of material —
no retired batch stays pinned by a round still pooled, and a warm
session's refill allocates no material at all.

Per-round transcripts therefore contain only ``upload`` and ``recovery``
traffic; the offline traffic is accounted once per refill, as a running
element total behind :meth:`LightSecAggSession.offline_elements`, which is
exactly the amortization story (the bytes still cross the network, but off
the online critical path).

:class:`EncryptedLightSecAggSession` additionally persists the
Diffie-Hellman channel mesh across the whole session — key agreement
happens once, and each refill seals a user's ``K`` future shares for a
given peer in a single authenticated one-time-pad message relayed through
the server.

A pooled round of material serves one buffered-async *drain* just as
well (paper App. F.3): :meth:`LightSecAggSession.drain` spends it on
``B <= N`` weighted deliveries, and :meth:`LightSecAggSession.rekey`
rebuilds the geometry when membership changes.  A synchronous round is
the drain whose weights are 1 on the survivors and 0 on the dropouts:
such 0/1 drains and rounds share one lazy unit-weight kernel, other
weights go through ``gf.matmul``, and every path shares one recovery
tail.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.crypto.channels import SecureChannel
from repro.exceptions import DropoutError, ProtocolError
from repro.field import FIELD_WORD
from repro.coding.mask_encoding import MaskEncoder, word_out
from repro.obs import span
from repro.protocols.base import (
    SERVER,
    AggregationResult,
    ProtocolSession,
    RoundMetrics,
    Transcript,
)
from repro.protocols.lightsecagg.params import LSAParams
from repro.protocols.lightsecagg.protocol import LightSecAgg


@dataclass
class OfflineMaterial:
    """One pooled round of offline state for all ``N`` users.

    ``masks[i]`` is user ``i``'s mask ``z_i``; ``coded[i, j]`` is the coded
    share ``[~z_i]_j`` held by user ``j``.  Both hold canonical residues
    as :data:`~repro.field.FIELD_WORD` (``<u4``), the width the shard
    wire carries them at and half the bytes of uint64: the pool is most
    of a long-lived session's memory.  The online kernels add them into
    uint64 accumulators.

    Both are views of round slot ``slot`` of the session's ``slab``:
    they stay valid while the round is pooled or being spent, and the
    slot is written over by a later refill once the spent round returns
    it.  ``slab`` tags which slab the slot belongs to, so a round spent
    across a re-key never returns its slot into the next slab.
    """

    masks: np.ndarray  # (N, model_dim)
    coded: np.ndarray  # (N_source, N_holder, share_dim)
    slot: int
    slab: Tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)


def lazy_sum_bound(q: int, terms: int) -> int:
    """Exact largest value of ``terms`` residues of GF(q) summed unreduced.

    The online kernels add that many residues into one uint64
    accumulator before their single reduction; the bound is what
    ``Reducer.reduce_bounded`` needs, and a sum that could wrap is
    refused here rather than silently reduced wrong.
    """
    bound = terms * (q - 1)
    if bound >= 1 << 64:
        raise ProtocolError(
            f"{terms} residues of GF({q}) do not fit one uint64 accumulator"
        )
    return bound


def precompute_offline_pool(
    encoder: MaskEncoder,
    rounds: int,
    rng: np.random.Generator,
    out: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw and encode ``rounds`` rounds of masks for all users at once.

    Returns ``(masks, coded)`` with shapes ``(rounds, N, model_dim)`` and
    ``(rounds, N_source, N_holder, share_dim)``, both C-contiguous
    :data:`~repro.field.FIELD_WORD` arrays, so a pooled round's slice is
    contiguous too; all ``rounds * N`` masks go through a single batched
    generator matmul.  The masks are drawn straight into their ``<u4``
    array (the same values and rng stream as a uint64 draw) and the
    encode narrows block by block, so no step holds a whole-batch uint64
    copy.  ``out``, when given, is the ``(masks, coded)`` pair to fill
    (each checked by :func:`~repro.coding.mask_encoding.word_out`) — a
    run of a session slab's free slots — and is what is returned.
    """
    n, d, share_dim = encoder.num_users, encoder.model_dim, encoder.share_dim
    masks_out, coded_out = (None, None) if out is None else out
    masks = word_out(masks_out, (rounds, n, d), "masks")
    coded = word_out(coded_out, (rounds, n, n, share_dim), "coded")
    flat = masks.reshape(rounds * n, d)
    encoder.gf.random(flat.shape, rng, out=flat)
    encoder.encode_batch(
        flat, rng, out=coded.reshape(rounds * n, n, share_dim)
    )
    return masks, coded


def _runs(slots: List[int]) -> List[Tuple[int, int]]:
    """Ascending ``slots`` grouped into ``[start, stop)`` runs."""
    runs: List[Tuple[int, int]] = []
    for slot in slots:
        if runs and runs[-1][1] == slot:
            runs[-1] = (runs[-1][0], slot + 1)
        else:
            runs.append((slot, slot + 1))
    return runs


def _mask_encoder(protocol) -> MaskEncoder:
    """The mask encoder for ``protocol``'s geometry."""
    params = protocol.params
    return MaskEncoder(
        protocol.gf,
        num_users=params.num_users,
        target_survivors=params.target_survivors,
        privacy=params.privacy,
        model_dim=protocol.model_dim,
        generator=protocol.generator,
    )


class LightSecAggSession(ProtocolSession):
    """Pooled multi-round session for LightSecAgg (and its subclasses).

    One pooled round of material pays for one synchronous
    :meth:`run_round` or one weighted :meth:`drain`; :meth:`rekey`
    re-sizes the member set between them.

    Pool access is thread-safe for the service-layer concurrency contract:
    one consumer thread draining rounds while one background refiller
    tops the pool up (see :class:`repro.service.refill.BackgroundRefiller`).

    The material lives in the slab's ``pool_size`` round slots.  The
    session tracks the pooled rounds (``_pool``) and the slots a round
    is reading (``_held``); every other slot is free, so clearing the
    pool frees its slots with no second list to keep in step.
    """

    def __init__(self, protocol, pool_size=4, rng=None, low_water=0):
        super().__init__(protocol, pool_size=pool_size, rng=rng, low_water=low_water)
        self.params = protocol.params
        self.model_dim = protocol.model_dim
        self.encoder = _mask_encoder(protocol)
        # One-time traffic only (the encrypted session's key agreement);
        # refills add to a running total and retain nothing each.
        self.offline_transcript = Transcript()
        self._refill_elements = 0
        self._pool: Deque[OfflineMaterial] = deque()
        self._held: Set[int] = set()
        self._slab: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    @property
    def pool_level(self) -> int:
        return len(self._pool)

    @property
    def supports_pool(self) -> bool:
        return True

    @property
    def needs_refill(self) -> bool:
        """The base low-water rule, held off while a round holds a slot.

        A top-up around a held slot stops a round short of ``pool_size``,
        so that shard would reach low water a round early and drift out
        of step with the cohort's other shards, each drift costing the
        online rounds a refill of their own.
        """
        return not self._held and super().needs_refill

    def offline_elements(self) -> int:
        with self._pool_lock:
            one_time = self.offline_transcript.elements(phase="offline")
            return one_time + self._refill_elements

    def refill(self, rounds: Optional[int] = None) -> int:
        """Precompute offline material for up to ``rounds`` future rounds.

        Defaults to topping the pool back up to ``pool_size``; at most
        the free slab slots are filled (a slot a round is still reading
        is not free), and the number added is returned.  Each contiguous
        run of free slots is encoded in place by one batched matmul —
        one run from slot 0 when the pool is empty, at most two in FIFO
        use.  Refills are serialized under ``_refill_lock`` (the offline
        rng is not thread-safe); the expensive encode runs outside
        ``_pool_lock`` so a concurrent consumer can keep draining
        already-pooled rounds.
        """
        self._require_open()
        with self._refill_lock:
            with self._pool_lock:
                if rounds is None:
                    rounds = self.pool_size - len(self._pool)
                if rounds <= 0:
                    return 0
                if self._slab is None:
                    lead, n = (self.pool_size, self.num_users), self.num_users
                    self._slab = (
                        np.empty(lead + (self.model_dim,), FIELD_WORD),
                        np.empty(lead + (n, self.encoder.share_dim), FIELD_WORD),
                    )
                slab = self._slab
                taken = {m.slot for m in self._pool} | self._held
                free = [s for s in range(self.pool_size) if s not in taken]
                slots = free[:rounds]
            if not slots:
                return 0
            masks, coded = slab
            start = time.perf_counter()
            # Traced only when a round trace is active on this thread
            # (an inline refill-on-miss); background-refiller threads
            # carry no trace and pay one thread-local read.
            with span("mask_encode", rounds=str(len(slots))):
                for lo, hi in _runs(slots):
                    precompute_offline_pool(
                        self.encoder, hi - lo, self.rng,
                        out=(masks[lo:hi], coded[lo:hi]),
                    )
            elements = self._deliver_shares(coded, slots)
            material = [
                OfflineMaterial(masks[k], coded[k], k, slab) for k in slots
            ]
            with self._pool_lock:
                # Material and its traffic accounting land atomically, so
                # a concurrent ``offline_elements`` reader never observes
                # a half-recorded refill.  A session closed mid-encode
                # dropped the slab: nothing lands.
                if self._slab is not slab:
                    return 0
                self._pool.extend(material)
                self._refill_elements += elements
                self.stats.refills += 1
                self.stats.precomputed_rounds += len(slots)
                self.stats.refill_seconds += time.perf_counter() - start
        return len(slots)

    def _drop_slab(self) -> None:
        """Forget the pool, the held slots and the slab (pool lock held);
        a round still reading a dropped slot frees nothing on release."""
        self._pool.clear()
        self._held.clear()
        self._slab = None

    def close(self) -> None:
        """Release the session and the offline material it pooled."""
        super().close()
        with self._pool_lock:
            self._drop_slab()

    def _take_material(self) -> OfflineMaterial:
        """Draw one round of offline material, refilling inline on a miss.

        The round's slot is held until :meth:`_release` returns it.  A
        pool hit pops under ``_pool_lock`` and never blocks on encoding.
        A miss is the stall the service layer's
        :class:`~repro.service.refill.BackgroundRefiller` exists to avoid:
        the consumer must run a synchronous refill on the online path.  A
        concurrent background refill may land between the miss and our own
        ``refill`` call — in that case ``refill`` computes a zero top-up
        and the loop simply pops the freshly delivered material.  A miss
        with no free slot (every slot held) is refused, never spun on.
        """
        with self._pool_lock:
            if self._pool:
                self.stats.pool_hits += 1
                return self._hold()
            self.stats.pool_misses += 1
        while True:
            with span("offline_refill", inline="miss"):
                added = self.refill()
            with self._pool_lock:
                if self._pool:
                    return self._hold()
            if not added:
                raise ProtocolError(
                    f"pool miss with no free slot: all {self.pool_size} "
                    "slab slots are held by rounds in progress"
                )

    def _hold(self) -> OfflineMaterial:
        """Pop the oldest pooled round and hold its slot (pool lock held)."""
        material = self._pool.popleft()
        self._held.add(material.slot)
        return material

    def _release(self, material: OfflineMaterial) -> None:
        """Return a spent round's slot to the free slots of its slab."""
        with self._pool_lock:
            if material.slab is self._slab:
                self._held.discard(material.slot)

    def _deliver_shares(self, coded: np.ndarray, slots: List[int]) -> int:
        """Deliver one refill's shares in place; returns the field
        elements the exchange put on the wire.

        ``coded`` is the slab's ``(pool_size, N_source, N_holder,
        share_dim)`` array and ``slots`` the rounds this refill encoded.
        The base session models the paper's abstract secure transport:
        each source sends each other holder its ``rounds * share_dim``
        elements (the one-shot path's per-round share exchange, times
        ``rounds``), and the material arrives as it was sent.  ``refill``
        adds the count to the running total under the pool lock.
        """
        _, n, _, share_dim = coded.shape
        return len(slots) * share_dim * n * (n - 1)

    # ------------------------------------------------------------------
    def _canonical(self, values, shape: Tuple[int, ...], what: str) -> np.ndarray:
        """Uploads of ``shape`` as canonical residues.

        Copy-free when ``gf.is_valid`` holds (what the quantizer, the
        HTTP edge and the shard wire produce; on a worker, its one check
        of a peer's words); anything else integer goes through
        ``gf.array``.  ``what`` names the input in the refusal.
        """
        arr = np.asarray(values)
        if arr.shape != shape:
            raise ProtocolError(f"{what} shape {arr.shape} != {shape}")
        if self.gf.is_valid(arr):
            return arr
        if not np.issubdtype(arr.dtype, np.integer):
            raise ProtocolError(f"{what} dtype {arr.dtype} is not an integer")
        return self.gf.array(arr)

    def _require_survivors(self, survivors) -> None:
        """Refuse a round or drain that leaves fewer than ``U`` survivors
        to answer the recovery phase."""
        u = self.params.target_survivors
        if len(survivors) < u:
            raise DropoutError(
                f"session round {self.stats.rounds}: only {len(survivors)} "
                f"survivors remain, need U={u} to recover the aggregate mask"
            )

    def _unit_sums(self, rows, material: OfflineMaterial, picks, responders):
        """The unit-weight kernel rounds and 0/1-weight drains share.

        Sums the masked uploads ``rows[b] + z_b`` of the picked slots
        ``b`` and, for each responder ``j``, the aggregated coded share
        ``sum_b [~z_b]_j`` — lazily: every term enters one uint64
        accumulator as a raw add (``<u4`` uploads and the pool's ``<u4``
        words widen inside the add) and each accumulator is reduced once.
        Summing whole ``coded[b]`` rows and keeping the responders'
        avoids gathering a ``(B, U, share_dim)`` copy.  ``rows`` must be
        canonical residues.
        """
        gf = self.gf
        masked_acc = np.zeros(self.model_dim, dtype=np.uint64)
        share_acc = np.zeros(
            (self.num_users, self.encoder.share_dim), dtype=np.uint64
        )
        for b in picks:
            masked_acc += rows[b]
            masked_acc += material.masks[b]
            share_acc += material.coded[b]
        masked_sum = gf.reducer.reduce_bounded(
            masked_acc, lazy_sum_bound(gf.q, 2 * len(picks)), out=masked_acc
        )
        agg_shares = gf.reducer.reduce_bounded(
            share_acc[responders],  # (U, share_dim)
            lazy_sum_bound(gf.q, len(picks)),
        )
        return masked_sum, {j: agg_shares[r] for r, j in enumerate(responders)}

    def run_round(
        self,
        updates: Dict[int, np.ndarray],
        dropouts: Set[int],
        rng: Optional[np.random.Generator] = None,
        offline_dropouts: Optional[Set[int]] = None,
    ) -> AggregationResult:
        """One online round served from the pool.

        Semantics match the one-shot
        :meth:`~repro.protocols.lightsecagg.protocol.LightSecAgg.run_round`
        exactly: same worst-case dropout point, same survivor rules, and a
        bit-identical field-sum (the aggregate is the exact sum of the
        surviving users' updates regardless of which masks were drawn).
        An empty pool triggers a synchronous inline refill (a pool miss).

        The aggregate is computed as the protocol defines it — the sum of
        the survivors' masked uploads minus the decode of the coded
        shares the first ``U`` responders hold — never as the plain sum
        of updates; only the reductions are lazy (one per accumulator).
        A malformed round (ids, shape, dtype, too few survivors) raises
        :class:`ProtocolError` before any pooled material is taken.
        """
        self._require_open()
        offline_dropouts = set(offline_dropouts or set())
        survivors = self.protocol._validate_round_inputs(
            updates, set(dropouts) | offline_dropouts
        )
        self._require_survivors(survivors)
        # Worst case: everyone who made it through the offline phase
        # uploads, including users about to drop; offline dropouts never
        # upload at all.  Every upload is validated before any pooled
        # material is spent, so a rejected round costs the pool nothing.
        live = [i for i in range(self.num_users) if i not in offline_dropouts]
        residues = {
            i: self._canonical(updates[i], (self.model_dim,), f"user {i}: update")
            for i in live
        }
        material = self._take_material()
        transcript = Transcript()
        for i in live:
            transcript.record(i, SERVER, "upload", self.model_dim)
        # One-shot aggregate-mask recovery from the first U survivors
        # (lowest ids, matching the one-shot path).  The kernel's sums
        # are fresh arrays, so the slot is free again once it returns.
        try:
            masked_sum, agg_shares = self._unit_sums(
                residues, material, survivors,
                survivors[: self.params.target_survivors],
            )
        finally:
            self._release(material)
        return self._recover(masked_sum, agg_shares, survivors, transcript)

    def drain(
        self,
        weights,
        updates,
        recovery_dropouts: Optional[Set[int]] = None,
    ) -> AggregationResult:
        """One buffer drain: weighted secure aggregation of ``B`` updates.

        Parameters
        ----------
        weights:
            ``(B,)`` non-negative integer weights, one per upload in
            slot order; anything else is refused, never cast.  A
            weight-0 upload is recorded in the transcript and left out
            of the sum, its mask never entering the decoded aggregate —
            which is how a synchronous round is this drain: ``B = N``
            member rows weighted 1 on survivors and 0 on dropouts.
        updates:
            ``(B, model_dim)`` integer matrix, or a sequence of ``B``
            integer rows, of *unweighted* quantized updates.  Row order
            is load-bearing: row ``b`` consumes pooled mask slot ``b``.
        recovery_dropouts:
            Member slots (``0..N-1``) that do not answer the recovery
            phase; at least ``U`` must remain.

        Returns the usual :class:`AggregationResult` whose aggregate is
        the exact field value ``sum_b w_b * updates_b (mod q)``: it is
        ``sum_b w_b (x_b + z_b) - decode(sum_b w_b [~z_b])``, and MDS
        decoding is linear, so the masks cancel exactly whichever pooled
        masks were spent.  That is what makes a drain bit-identical to
        the one-shot :class:`~repro.asyncfl.secure_aggregator.
        AsyncSecureAggregator` oracle, across transports and re-keys.
        0/1 weights take the lazy unit-weight kernel :meth:`run_round`
        uses; any other weights are applied in-field by ``gf.matmul``.
        A rejected drain raises before any pooled material is taken.
        """
        self._require_open()
        recovery_dropouts = set(recovery_dropouts or set())
        weights = np.asarray(weights)
        if weights.ndim != 1 or weights.size == 0:
            raise ProtocolError("drain needs a non-empty 1-D weight vector")
        batch = int(weights.size)
        if isinstance(updates, np.ndarray):
            rows = self._canonical(
                updates, (batch, self.model_dim), "drain updates"
            )
        elif len(updates) != batch:
            raise ProtocolError(
                f"drain updates hold {len(updates)} rows for {batch} weights"
            )
        else:
            rows = [
                self._canonical(row, (self.model_dim,), f"drain row {b}")
                for b, row in enumerate(updates)
            ]
        if not np.issubdtype(weights.dtype, np.integer) or np.any(weights < 0):
            raise ProtocolError(
                f"drain weights must be non-negative integers, got "
                f"{weights.dtype} {weights[:4].tolist()}"
            )
        n = self.num_users
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
        responders = [j for j in range(n) if j not in recovery_dropouts]
        self._require_survivors(responders)
        # Everything that can reject the drain is above this line, so a
        # rejected drain spends no pooled material.
        gf = self.gf
        u = self.params.target_survivors
        material = self._take_material()
        transcript = Transcript()
        for b in range(batch):
            transcript.record(b, SERVER, "upload", self.model_dim)
        try:
            if np.all(weights <= 1):
                masked_sum, agg_shares = self._unit_sums(
                    rows, material, np.flatnonzero(weights).tolist(),
                    responders[:u],
                )
            else:
                # Each upload arrives masked by its slot's pooled mask
                # (two residues: one conditional subtract); the server
                # applies the public weights in-field as one (1, B) @
                # (B, d) product, and weights every holder's coded row in
                # one more, keeping the responders'.  gf.matmul reads the
                # pool's <u4 coded rows as they are: no widened copy.  The
                # add widens (two <u4 residues can overflow 32 bits).
                w = gf.array(weights)[None, :]  # (1, B)
                masked = gf.reducer.reduce_semi(
                    np.add(rows, material.masks[:batch], dtype=np.uint64)
                )
                masked_sum = gf.matmul(w, masked)[0]
                share_dim = self.encoder.share_dim
                coded = material.coded[:batch].reshape(batch, n * share_dim)
                shares = gf.matmul(w, coded).reshape(n, share_dim)
                agg_shares = {j: shares[j] for j in responders[:u]}
        finally:
            self._release(material)
        return self._recover(
            masked_sum, agg_shares, responders, transcript,
            drain_batch=float(batch),
        )

    def _recover(
        self,
        masked_sum: np.ndarray,
        agg_shares: Dict[int, np.ndarray],
        survivors,
        transcript: Transcript,
        **extra: float,
    ) -> AggregationResult:
        """The tail rounds and drains share: one-shot recovery and result.

        ``agg_shares`` maps each of the first ``U`` responders to its
        aggregated coded share; their one-shot decode is the aggregate
        mask (weighted, for a drain), which ``masked_sum`` carries.
        """
        share_dim = self.encoder.share_dim
        u = len(agg_shares)
        for j in agg_shares:
            transcript.record(j, SERVER, "recovery", share_dim)
        agg_mask = self.encoder.decode_aggregate(agg_shares)
        aggregate = self.gf.sub(masked_sum, agg_mask)

        metrics = RoundMetrics(
            server_decode_ops=u * u * share_dim,
            server_prg_elements=0,
            # Online rounds and drains do no mask encoding; the amortized
            # cost lives in the refill and is surfaced via ``extra``.
            user_encode_ops=0,
            extra={
                "pool_level": float(len(self._pool)),
                "amortized_encode_ops": float(self.num_users * u * share_dim),
                **extra,
            },
        )
        self.stats.rounds += 1
        return AggregationResult(
            aggregate=aggregate,
            survivors=survivors,
            transcript=transcript,
            metrics=metrics,
        )

    # ------------------------------------------------------------------
    def rekey(self, num_users: int) -> int:
        """Re-key the session for a new member count.

        Rebuilds the protocol geometry (``U`` re-derived from the same
        ``(T, D)`` guarantees, so any party can reproduce the parameters
        from ``num_users`` alone), swaps in a fresh encoder, and drops
        the pooled material and its slab — it was encoded for the old
        member set and its share grid no longer matches; the next refill
        allocates a slab of the new shape.  Returns the number of pooled
        rounds invalidated; re-encoding is intentionally *not* done here
        so a background refiller can warm the pool off the drain path.

        Serialized against refills under ``_refill_lock`` so a refill in
        flight lands (and is discarded) atomically relative to the swap,
        never half-encoded for a stale geometry.
        """
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
            encoder = _mask_encoder(protocol)
            with self._pool_lock:
                invalidated = len(self._pool)
                self._drop_slab()
                self.protocol = protocol
                self.params = params
                self.encoder = encoder
        return invalidated


class EncryptedLightSecAggSession(LightSecAggSession):
    """Pooled session with a persistent DH channel mesh.

    Key agreement runs once when the session opens; every refill seals
    each (source, holder) pair's shares for the whole batch in one
    authenticated message, relayed through the server.  The per-round
    online path is identical to the base session.
    """

    def __init__(self, protocol, pool_size=4, rng=None, low_water=0):
        super().__init__(
            protocol, pool_size=pool_size, rng=rng, low_water=low_water
        )
        n = self.num_users
        keypairs = [protocol.dh.generate_keypair(self.rng) for _ in range(n)]
        for i in range(n):
            self.offline_transcript.record(
                i, SERVER, "offline", 1, is_key_sized=True
            )
            self.offline_transcript.record(
                SERVER, i, "offline", n - 1, is_key_sized=True
            )
        self._channels: Dict[Tuple[int, int], SecureChannel] = {}
        for i in range(n):
            for j in range(n):
                if i != j:
                    key = protocol.dh.agree(
                        keypairs[i].secret, keypairs[j].public
                    )
                    self._channels[(i, j)] = SecureChannel(
                        self.gf, key, sender=i, receiver=j
                    )

    def _deliver_shares(self, coded: np.ndarray, slots: List[int]) -> int:
        """Seal every source->holder share batch and relay it via server.

        Each pair's opened shares are written back into their slots: the
        holder's copy replaces the source's, with no whole-batch copy.
        """
        _, n, _, share_dim = coded.shape
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue  # own share never leaves the device
                flat = coded[slots, i, j, :].reshape(-1)
                sealed = self._channels[(i, j)].seal(flat)
                opened = self._channels[(i, j)].open(sealed)
                coded[slots, i, j, :] = opened.reshape(len(slots), share_dim)
        # user -> server -> peer; both hops carry the whole batch.
        return 2 * len(slots) * share_dim * n * (n - 1)

    def run_round(
        self,
        updates: Dict[int, np.ndarray],
        dropouts: Set[int],
        rng: Optional[np.random.Generator] = None,
        offline_dropouts: Optional[Set[int]] = None,
    ) -> AggregationResult:
        if offline_dropouts:
            raise NotImplementedError(
                "offline dropouts are modelled by the base protocol; the "
                "encrypted variant covers the worst-case dropout point only"
            )
        return super().run_round(updates, dropouts, rng)

    def rekey(self, num_users: int) -> int:
        raise NotImplementedError(
            "re-keying is modelled by the base protocol; the encrypted "
            "variant's DH channel mesh is fixed when the session opens"
        )

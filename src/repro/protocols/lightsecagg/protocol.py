"""One-round LightSecAgg orchestration (paper Alg. 1 end to end).

Drives :class:`LSAUser` instances and an :class:`LSAServer` through the
three phases, recording every message in a :class:`Transcript`.  The
orchestration models the paper's worst-case dropout point: dropped users
complete the offline phase and upload masked models, then become
unreachable before the recovery phase.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np

from repro.field.arithmetic import FiniteField
from repro.protocols.base import (
    SERVER,
    AggregationResult,
    RoundMetrics,
    SecureAggregationProtocol,
    Transcript,
)
from repro.protocols.lightsecagg.params import LSAParams
from repro.protocols.lightsecagg.server import LSAServer
from repro.protocols.lightsecagg.user import LSAUser


class LightSecAgg(SecureAggregationProtocol):
    """The paper's protocol: one-shot aggregate-mask reconstruction."""

    name = "lightsecagg"

    def __init__(
        self,
        gf: FiniteField,
        params: LSAParams,
        model_dim: int,
        generator: str = "lagrange",
    ):
        super().__init__(gf, params.num_users)
        self.params = params
        self.model_dim = model_dim
        self.generator = generator

    def session(self, pool_size: int = 4, rng=None, low_water: int = 0):
        """Open a pooled multi-round session (amortized offline phase)."""
        from repro.protocols.lightsecagg.session import LightSecAggSession

        return LightSecAggSession(
            self, pool_size=pool_size, rng=rng, low_water=low_water
        )

    def run_round(
        self,
        updates: Dict[int, np.ndarray],
        dropouts: Set[int],
        rng: Optional[np.random.Generator] = None,
        offline_dropouts: Optional[Set[int]] = None,
    ) -> AggregationResult:
        """Run one round.

        ``dropouts`` drop at the paper's worst-case point (after uploading
        their masked model).  ``offline_dropouts`` model Remark 2's earlier
        failure: those users vanish *during* the offline phase — they never
        finish distributing shares nor upload a model, and are excluded
        from the surviving set entirely.  The protocol tolerates any mix as
        long as at least ``U`` users remain.
        """
        offline_dropouts = set(offline_dropouts or set())
        survivors = self._validate_round_inputs(
            updates, dropouts | offline_dropouts
        )
        rng = rng if rng is not None else np.random.default_rng()
        transcript = Transcript()

        users = [
            LSAUser(i, self.gf, self.params, self.model_dim, self.generator)
            for i in range(self.num_users)
        ]
        server = LSAServer(self.gf, self.params, self.model_dim, self.generator)
        share_dim = users[0].encoder.share_dim

        # Phase 1 — offline encoding and sharing of local masks.  Offline
        # dropouts deliver only a prefix of their shares before vanishing;
        # since they never join U1, their partial shares are never used.
        for user in users:
            shares = user.offline_encode(rng)
            delivered = 0
            cutoff = (
                self.num_users // 2
                if user.user_id in offline_dropouts
                else self.num_users
            )
            for j, share in shares.items():
                if delivered >= cutoff:
                    break
                users[j].receive_share(user.user_id, share)
                delivered += 1
                if j != user.user_id:
                    transcript.record(user.user_id, j, "offline", share_dim)

        return self._run_online(
            users, server, transcript, updates, survivors, offline_dropouts
        )

    def _run_online(
        self, users, server, transcript, updates, survivors, never_upload=()
    ) -> AggregationResult:
        """Phases 2–3 and the result, shared with the encrypted variant:
        upload, fix survivors, collect the first U aggregated shares,
        decode.  ``never_upload`` ids vanished before masking."""
        share_dim = users[0].encoder.share_dim
        # Phase 2 — masking and uploading of local models.  Worst case:
        # everyone still reachable (including soon-to-drop users) uploads.
        for user in users:
            if user.user_id in never_upload:
                continue
            masked = user.mask_update(updates[user.user_id])
            server.receive_masked_update(user.user_id, masked)
            transcript.record(user.user_id, SERVER, "upload", self.model_dim)

        # Server fixes the surviving set U1 (dropped users are excluded).
        server.identify_survivors(survivors)

        # Phase 3 — one-shot aggregate-mask recovery.  Only the first U
        # responders need to answer; we take the lowest-id survivors to be
        # deterministic.
        responders = survivors[: self.params.target_survivors]
        for j in responders:
            agg_share = users[j].aggregate_encoded_masks(survivors)
            server.receive_aggregated_shares(j, agg_share)
            transcript.record(j, SERVER, "recovery", share_dim)

        aggregate = server.recover_aggregate()

        u = self.params.target_survivors
        metrics = RoundMetrics(
            # MDS decode of a U-dim code over share_dim-wide symbols; the
            # paper counts this as O(U log U) per element -> U log U / (U-T) * d.
            server_decode_ops=u * u * share_dim,
            server_prg_elements=0,
            user_encode_ops=self.params.num_users * u * share_dim,
        )
        return AggregationResult(
            aggregate=aggregate,
            survivors=survivors,
            transcript=transcript,
            metrics=metrics,
        )

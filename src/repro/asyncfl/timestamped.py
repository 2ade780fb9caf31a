"""Timestamped mask bookkeeping for asynchronous LightSecAgg (App. F.3.1).

:mod:`repro.asyncfl.secure_aggregator` draws masks lazily at aggregation
time, which is distributionally identical but does not exercise the real
protocol schedule.  This module implements the faithful version:

* When a user *downloads* the global model at round ``t_i`` it immediately
  generates ``z_i^{(t_i)}``, encodes it, and distributes the shares tagged
  with the timestamp — all *before* training finishes (the offline phase).
* Every user keeps a :class:`TimestampedMaskStore` of shares keyed by
  ``(source, round)``.
* At aggregation time the server announces ``{(i, t_i)}`` for the buffered
  updates plus the quantized staleness weights; each responder combines
  exactly the announced shares — which were encoded in *different rounds*
  — and one-shot decoding still works because MDS encoding commutes with
  addition.

The end-to-end test pins the commutativity claim: decode(sum of weighted
cross-round shares) equals the weighted sum of the original masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.coding.mask_encoding import MaskEncoder
from repro.exceptions import DropoutError, ProtocolError
from repro.field.arithmetic import FiniteField
from repro.protocols.lightsecagg.params import LSAParams


@dataclass(frozen=True)
class MaskAnnouncement:
    """Server broadcast before recovery: which (user, round) masks to sum,
    with which integer staleness weights (paper's {S(t), {t_i}, c_g})."""

    entries: Tuple[Tuple[int, int, int], ...]  # (user, round, weight)


class TimestampedMaskStore:
    """Per-user storage of received coded shares keyed by (source, round)."""

    def __init__(self, gf: FiniteField, share_dim: int):
        self.gf = gf
        self.share_dim = share_dim
        self._shares: Dict[Tuple[int, int], np.ndarray] = {}

    def put(self, source: int, round_index: int, share: np.ndarray) -> None:
        key = (source, round_index)
        if key in self._shares:
            raise ProtocolError(f"duplicate share for {key}")
        share = self.gf.array(share)
        if share.shape != (self.share_dim,):
            raise ProtocolError(
                f"share for {key} has shape {share.shape}, "
                f"expected ({self.share_dim},)"
            )
        self._shares[key] = share

    def has(self, source: int, round_index: int) -> bool:
        return (source, round_index) in self._shares

    def combine(self, announcement: MaskAnnouncement) -> np.ndarray:
        """``sum_i w_i * [~z_i^{(t_i)}]_j`` over the announced entries."""
        if not announcement.entries:
            raise ProtocolError("empty announcement")
        acc = self.gf.zeros(self.share_dim)
        for user, round_index, weight in announcement.entries:
            key = (user, round_index)
            if key not in self._shares:
                raise ProtocolError(f"missing share for {key}")
            if weight < 0:
                raise ProtocolError("weights must be non-negative")
            acc = self.gf.add(acc, self.gf.mul(self._shares[key], weight))
        return acc

    def evict_before(self, round_index: int) -> int:
        """Drop shares older than ``round_index`` (bounded staleness lets
        users garbage-collect; returns the number evicted)."""
        old = [k for k in self._shares if k[1] < round_index]
        for k in old:
            del self._shares[k]
        return len(old)

    def __len__(self) -> int:
        return len(self._shares)


class TimestampedAsyncNetwork:
    """A fleet of users exchanging timestamped mask shares.

    Drives the faithful asynchronous schedule: ``begin_round(i, t)``
    performs user *i*'s offline phase for its round-``t`` download;
    ``recover(announcement, responders)`` performs one-shot recovery on the
    server side from any ``U`` responders' combined shares.
    """

    def __init__(self, gf: FiniteField, params: LSAParams, model_dim: int):
        self.gf = gf
        self.params = params
        self.model_dim = model_dim
        self.encoder = MaskEncoder(
            gf,
            num_users=params.num_users,
            target_survivors=params.target_survivors,
            privacy=params.privacy,
            model_dim=model_dim,
        )
        self.stores = [
            TimestampedMaskStore(gf, self.encoder.share_dim)
            for _ in range(params.num_users)
        ]
        # The user's own masks, keyed by round (needed to mask the update
        # it eventually uploads).  Private to each user in a deployment.
        self._own_masks: Dict[Tuple[int, int], np.ndarray] = {}

    def begin_round(
        self, user: int, round_index: int,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """User's offline phase at download time; returns ``z_i^{(t)}``."""
        if not 0 <= user < self.params.num_users:
            raise ProtocolError(f"user {user} out of range")
        key = (user, round_index)
        if key in self._own_masks:
            raise ProtocolError(f"user {user} already started round {round_index}")
        mask = self.encoder.generate_mask(rng)
        shares = self.encoder.encode(mask, rng)
        for j in range(self.params.num_users):
            self.stores[j].put(user, round_index, shares[j])
        self._own_masks[key] = mask
        return mask

    def mask_update(
        self, user: int, round_index: int, quantized_update: np.ndarray
    ) -> np.ndarray:
        """``~Delta = Delta-bar + z_i^{(t_i)}`` for upload with timestamp."""
        key = (user, round_index)
        if key not in self._own_masks:
            raise ProtocolError(f"user {user} has no mask for round {round_index}")
        update = self.gf.array(quantized_update)
        if update.shape != (self.model_dim,):
            raise ProtocolError("update dimension mismatch")
        return self.gf.add(update, self._own_masks[key])

    def recover(
        self,
        announcement: MaskAnnouncement,
        responders: Sequence[int],
    ) -> np.ndarray:
        """Server-side one-shot recovery of the weighted aggregate mask."""
        if len(set(responders)) < self.params.target_survivors:
            raise DropoutError(
                f"need U={self.params.target_survivors} responders, got "
                f"{len(set(responders))}"
            )
        chosen = sorted(set(responders))[: self.params.target_survivors]
        combined = {j: self.stores[j].combine(announcement) for j in chosen}
        return self.encoder.decode_aggregate(combined)

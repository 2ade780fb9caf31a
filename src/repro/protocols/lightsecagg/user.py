"""LightSecAgg user-side state machine (paper Alg. 1, user lines).

A user proceeds through three steps in a round:

1. :meth:`offline_encode` — draw the local mask ``z_i``, encode it into
   ``N`` coded shares ``[~z_i]_j`` (one per peer).
2. :meth:`mask_update` — upload ``~x_i = x_i + z_i``.
3. :meth:`aggregate_encoded_masks` — after the server announces the
   surviving set ``U1``, sum the held shares ``sum_{i in U1} [~z_i]_j`` and
   upload the single aggregate.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import ProtocolError
from repro.coding.mask_encoding import MaskEncoder
from repro.field.arithmetic import FiniteField
from repro.protocols.lightsecagg.params import LSAParams


class LSAUser:
    """State and behaviour of a single LightSecAgg participant."""

    def __init__(
        self,
        user_id: int,
        gf: FiniteField,
        params: LSAParams,
        model_dim: int,
        generator: str = "lagrange",
    ):
        if not 0 <= user_id < params.num_users:
            raise ProtocolError(f"user id {user_id} out of range")
        self.user_id = user_id
        self.gf = gf
        self.params = params
        self.model_dim = model_dim
        self.encoder = MaskEncoder(
            gf,
            num_users=params.num_users,
            target_survivors=params.target_survivors,
            privacy=params.privacy,
            model_dim=model_dim,
            generator=generator,
        )
        self.mask: Optional[np.ndarray] = None
        self._received_shares: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # phase 1: offline encoding and sharing of local masks
    # ------------------------------------------------------------------
    def offline_encode(
        self, rng: Optional[np.random.Generator] = None
    ) -> Dict[int, np.ndarray]:
        """Generate ``z_i`` and return the coded shares keyed by recipient.

        The share for this user itself (``j = i``) is kept locally and also
        returned for uniformity; the caller delivers the rest.
        """
        self.mask = self.encoder.generate_mask(rng)
        coded = self.encoder.encode(self.mask, rng)  # (N, share_dim)
        return {j: coded[j] for j in range(self.params.num_users)}

    def receive_share(self, source: int, share: np.ndarray) -> None:
        """Store ``[~z_source]_{self.user_id}`` received from a peer."""
        if source in self._received_shares:
            raise ProtocolError(
                f"user {self.user_id} already holds a share from {source}"
            )
        expected = (self.encoder.share_dim,)
        if share.shape != expected:
            raise ProtocolError(
                f"share from {source} has shape {share.shape}, expected {expected}"
            )
        self._received_shares[source] = self.gf.array(share)

    # ------------------------------------------------------------------
    # phase 2: masking and uploading of local models
    # ------------------------------------------------------------------
    def mask_update(self, update: np.ndarray) -> np.ndarray:
        """Return ``~x_i = x_i + z_i`` for upload."""
        if self.mask is None:
            raise ProtocolError("offline_encode must run before mask_update")
        update = self.gf.array(update)
        if update.shape != (self.model_dim,):
            raise ProtocolError(
                f"update has shape {update.shape}, expected ({self.model_dim},)"
            )
        return self.gf.add(update, self.mask)

    # ------------------------------------------------------------------
    # phase 3: one-shot aggregate-mask recovery (user side)
    # ------------------------------------------------------------------
    def aggregate_encoded_masks(self, survivors: Sequence[int]) -> np.ndarray:
        """Compute ``sum_{i in U1} [~z_i]_{self.user_id}`` for upload."""
        missing = [i for i in survivors if i not in self._received_shares]
        if missing:
            raise ProtocolError(
                f"user {self.user_id} lacks shares from survivors {missing}"
            )
        return self.encoder.aggregate_shares(
            {i: self._received_shares[i] for i in survivors}
        )

"""LightSecAgg with server-relayed, channel-encrypted share exchange.

The base :class:`~repro.protocols.lightsecagg.protocol.LightSecAgg` treats
the pairwise share delivery as an abstract secure transport (footnote 3).
This variant makes the transport concrete: users bootstrap pairwise keys
with Diffie-Hellman, seal every coded share in an authenticated one-time-
pad channel, and route all ciphertexts *through the server* — the
realistic star topology, under which the server relays everything yet
learns nothing (ciphertexts are uniform field elements).

The extra fidelity costs one DH keypair per user and N-1 agreements, and
shows up in the transcript as server-relayed offline traffic.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.crypto.channels import SealedMessage, SecureChannel
from repro.crypto.dh import DiffieHellman
from repro.field.arithmetic import FiniteField
from repro.protocols.base import SERVER, AggregationResult, Transcript
from repro.protocols.lightsecagg.params import LSAParams
from repro.protocols.lightsecagg.protocol import LightSecAgg
from repro.protocols.lightsecagg.server import LSAServer
from repro.protocols.lightsecagg.user import LSAUser


class EncryptedLightSecAgg(LightSecAgg):
    """LightSecAgg with concrete end-to-end-encrypted share relay."""

    name = "lightsecagg-encrypted"

    def __init__(
        self,
        gf: FiniteField,
        params: LSAParams,
        model_dim: int,
        generator: str = "lagrange",
    ):
        super().__init__(gf, params, model_dim, generator)
        self.dh = DiffieHellman()

    def session(self, pool_size: int = 4, rng=None, low_water: int = 0):
        """Open a pooled session with a persistent DH channel mesh."""
        from repro.protocols.lightsecagg.session import (
            EncryptedLightSecAggSession,
        )

        return EncryptedLightSecAggSession(
            self, pool_size=pool_size, rng=rng, low_water=low_water
        )

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
        survivors = self._validate_round_inputs(updates, dropouts)
        rng = rng if rng is not None else np.random.default_rng()
        transcript = Transcript()
        n = self.num_users

        users = [
            LSAUser(i, self.gf, self.params, self.model_dim, self.generator)
            for i in range(n)
        ]
        server = LSAServer(self.gf, self.params, self.model_dim, self.generator)
        share_dim = users[0].encoder.share_dim

        # Round 0 — DH key advertisement through the server.
        keypairs = [self.dh.generate_keypair(rng) for _ in range(n)]
        for i in range(n):
            transcript.record(i, SERVER, "offline", 1, is_key_sized=True)
            transcript.record(SERVER, i, "offline", n - 1, is_key_sized=True)
        # Directed channels: channels[(i, j)] carries i -> j.
        channels: Dict[Tuple[int, int], SecureChannel] = {}
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                key = self.dh.agree(keypairs[i].secret, keypairs[j].public)
                channels[(i, j)] = SecureChannel(
                    self.gf, key, sender=i, receiver=j
                )

        # Phase 1 — encode masks; seal and relay shares via the server.
        mailbox: Dict[int, list] = {j: [] for j in range(n)}
        for user in users:
            shares = user.offline_encode(rng)
            for j, share in shares.items():
                if j == user.user_id:
                    user.receive_share(user.user_id, share)  # kept locally
                    continue
                sealed = channels[(user.user_id, j)].seal(share)
                # user -> server -> peer; both hops are share-sized.
                transcript.record(user.user_id, SERVER, "offline", share_dim)
                transcript.record(SERVER, j, "offline", share_dim)
                mailbox[j].append(sealed)
        for j, deliveries in mailbox.items():
            for sealed in deliveries:
                plaintext = _open_as(channels, sealed)
                users[j].receive_share(sealed.sender, plaintext)

        # Phases 2 and 3 are the base protocol's.
        return self._run_online(users, server, transcript, updates, survivors)


def _open_as(
    channels: Dict[Tuple[int, int], SecureChannel], sealed: SealedMessage
) -> np.ndarray:
    """Receiver-side open using the shared directed channel object.

    In a deployment sender and receiver hold separate channel instances
    derived from the same DH secret; the simulation shares the object,
    which is keystream-identical.
    """
    return channels[(sealed.sender, sealed.receiver)].open(sealed)

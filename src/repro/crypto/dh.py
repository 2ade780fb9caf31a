"""Finite-field Diffie-Hellman key agreement.

SecAgg's pairwise seeds ``a_{i,j} = Key.Agree(sk_i, pk_j)`` (paper Sec. 3)
are modeled with textbook Diffie-Hellman over the multiplicative group of a
prime modulus.  The derived shared secret is hashed into a PRG seed, so
both endpoints of a pair expand identical masks.

The default group uses a 256-bit safe-prime-style modulus, which keeps the
cost of the ``O(N^2)`` pairwise agreements manageable in simulation while
exercising exactly the code path of a production deployment (a production
system would swap in an RFC 3526 group or X25519).  The RFC 3526 2048-bit
MODP group is included for fidelity tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ProtocolError

#: 256-bit prime p = 2^256 - 189 (p and the group are fixed, public values).
SIMULATION_PRIME: int = (1 << 256) - 189
SIMULATION_GENERATOR: int = 2

#: RFC 3526 group 14 (2048-bit MODP); used for fidelity checks.
RFC3526_PRIME_2048: int = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8"
    "FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C"
    "180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFF"
    "FFFFFFFF",
    16,
)
RFC3526_GENERATOR: int = 2


@dataclass(frozen=True)
class KeyPair:
    """A Diffie-Hellman key pair; ``public = g^secret mod p``."""

    secret: int
    public: int


class DiffieHellman:
    """Key generation and pairwise agreement in a fixed DH group."""

    def __init__(
        self,
        prime: int = SIMULATION_PRIME,
        generator: int = SIMULATION_GENERATOR,
    ):
        if prime <= 3:
            raise ProtocolError("DH modulus must be a large prime")
        self.prime = prime
        self.generator = generator

    def generate_keypair(
        self, rng: Optional[np.random.Generator] = None
    ) -> KeyPair:
        """Draw a random secret exponent and compute the public key."""
        rng = rng if rng is not None else np.random.default_rng()
        # 32 random bytes -> exponent in [2, p-2].
        raw = int.from_bytes(rng.bytes(32), "little")
        secret = 2 + raw % (self.prime - 3)
        return KeyPair(secret=secret, public=pow(self.generator, secret, self.prime))

    def agree(self, my_secret: int, their_public: int) -> int:
        """Shared secret ``their_public ** my_secret mod p``, hashed to a seed.

        Hashing matches deployed practice (a KDF over the DH output) and
        gives a uniform 256-bit PRG seed.  Symmetric by construction:
        ``agree(sk_i, pk_j) == agree(sk_j, pk_i)``.
        """
        if not 1 < their_public < self.prime - 1:
            raise ProtocolError("invalid DH public key")
        shared = pow(their_public, my_secret, self.prime)
        digest = hashlib.sha256(
            shared.to_bytes((self.prime.bit_length() + 7) // 8, "little")
        ).digest()
        return int.from_bytes(digest, "little")

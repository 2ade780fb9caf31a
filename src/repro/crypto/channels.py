"""Secure (private, authenticated) pairwise channels — paper footnote 3.

LightSecAgg, like SecAgg/SecAgg+, assumes coded shares travel over secure
channels so the server relaying them learns nothing.  This module builds
that substrate from the primitives already in the library: a Diffie-Hellman
agreement bootstraps a per-pair key, payloads are one-time-padded with a
PRG stream over GF(q) (information-theoretically hiding given a fresh
nonce), and a SHA-256 MAC authenticates ciphertext and metadata.

This is a simulation-grade construction (the nonce discipline and the
encrypt-then-MAC composition mirror deployed AEADs; a production system
would use a vetted AEAD).  What matters for the reproduction is that the
relay-visible bytes are uniform field elements, which the tests check.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.crypto.prg import PRG, seed_from_bytes
from repro.exceptions import ProtocolError
from repro.field.arithmetic import FiniteField


@dataclass(frozen=True)
class SealedMessage:
    """Ciphertext + authentication tag + public metadata."""

    sender: int
    receiver: int
    nonce: int
    ciphertext: np.ndarray  # uint64 field elements
    tag: bytes

    @property
    def num_elements(self) -> int:
        return int(self.ciphertext.shape[0])


class SecureChannel:
    """One direction of an authenticated-encryption channel over GF(q).

    Both endpoints construct the channel from the same DH-agreed
    ``shared_key``; each ``seal`` consumes a fresh nonce (enforced
    monotonically per channel instance).
    """

    def __init__(
        self,
        gf: FiniteField,
        shared_key: int,
        sender: int,
        receiver: int,
        prg_backend: str = "pcg64",
    ):
        if shared_key < 0:
            raise ProtocolError("shared key must be non-negative")
        self.gf = gf
        self.sender = sender
        self.receiver = receiver
        self._key = shared_key
        self._prg = PRG(gf, backend=prg_backend)
        self._next_nonce = 0

    # ------------------------------------------------------------------
    def _stream_seed(self, nonce: int) -> int:
        payload = f"{self._key}:{self.sender}:{self.receiver}:{nonce}".encode()
        return seed_from_bytes(b"stream|" + payload)

    def _mac(self, nonce: int, ciphertext: np.ndarray) -> bytes:
        h = hashlib.sha256()
        h.update(b"mac|")
        h.update(str(self._key).encode())
        h.update(f"|{self.sender}|{self.receiver}|{nonce}|".encode())
        h.update(ciphertext.tobytes())
        return h.digest()

    # ------------------------------------------------------------------
    def seal(self, plaintext: np.ndarray, nonce: Optional[int] = None) -> SealedMessage:
        """Encrypt-then-MAC a field vector."""
        plaintext = self.gf.array(plaintext)
        if plaintext.ndim != 1:
            raise ProtocolError("can only seal 1-D field vectors")
        if nonce is None:
            nonce = self._next_nonce
        if nonce < self._next_nonce:
            raise ProtocolError(f"nonce {nonce} already used on this channel")
        self._next_nonce = nonce + 1
        stream = self._prg.expand(self._stream_seed(nonce), plaintext.shape[0])
        ciphertext = self.gf.add(plaintext, stream)
        return SealedMessage(
            sender=self.sender,
            receiver=self.receiver,
            nonce=nonce,
            ciphertext=ciphertext,
            tag=self._mac(nonce, ciphertext),
        )

    def open(self, message: SealedMessage) -> np.ndarray:
        """Verify the MAC and decrypt; raises on any tampering."""
        if (message.sender, message.receiver) != (self.sender, self.receiver):
            raise ProtocolError("message addressed to a different channel")
        expected = self._mac(message.nonce, message.ciphertext)
        if not _constant_time_eq(expected, message.tag):
            raise ProtocolError("authentication tag mismatch")
        stream = self._prg.expand(
            self._stream_seed(message.nonce), message.num_elements
        )
        return self.gf.sub(message.ciphertext, stream)


def _constant_time_eq(a: bytes, b: bytes) -> bool:
    if len(a) != len(b):
        return False
    acc = 0
    for x, y in zip(a, b):
        acc |= x ^ y
    return acc == 0

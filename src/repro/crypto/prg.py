"""Seeded pseudo-random generators expanding a seed into GF(q) vectors.

SecAgg masks are ``PRG(seed)`` vectors of the model dimension (paper
Sec. 3); both parties to a pairwise agreement must expand the same seed to
the identical vector, so determinism across calls and processes is the
contract here.

Two backends:

* ``"pcg64"`` (default) — ``FiniteField.random`` over
  ``numpy.random.Generator(PCG64(seed))``, whose output is exactly
  ``integers(0, q)``'s: exactly uniform on ``[0, q)`` and very fast.
  This models the role a fast stream cipher plays in a production system.
* ``"sha256"`` — SHA-256 in counter mode with vectorized rejection
  sampling, a construction whose security argument mirrors deployed PRGs.
  Slower; used to cross-check backend-independence of the protocols.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict

import numpy as np

from repro.exceptions import FieldError
from repro.field.arithmetic import FiniteField

BACKENDS = ("pcg64", "sha256")


def _expand_pcg64(seed: int, length: int, gf: FiniteField) -> np.ndarray:
    return gf.random(length, np.random.Generator(np.random.PCG64(seed)))


def _expand_sha256(seed: int, length: int, gf: FiniteField) -> np.ndarray:
    """SHA-256 counter-mode expansion with rejection sampling.

    Each 32-byte digest yields four uint64 words; words are rejected when
    they fall in the biased tail ``[limit, 2**64)`` where
    ``limit = 2**64 - 2**64 % q``, making the output exactly uniform mod q.
    The final full-range uint64 reduction runs through the field's
    selected reduction kernel (division-free for the default modulus).
    """
    q = gf.q
    limit = (1 << 64) - ((1 << 64) % q)
    seed_bytes = seed.to_bytes(32, "little", signed=False)
    out = np.empty(length, dtype=np.uint64)
    filled = 0
    counter = 0
    while filled < length:
        # Generate a batch of digests; oversample ~10% for rejections.
        need = length - filled
        n_blocks = max(1, (need + 3) // 4 + (need // 32) + 1)
        words = np.empty(n_blocks * 4, dtype=np.uint64)
        buf = bytearray()
        for b in range(n_blocks):
            h = hashlib.sha256(seed_bytes + (counter + b).to_bytes(8, "little"))
            buf += h.digest()
        counter += n_blocks
        words = np.frombuffer(bytes(buf), dtype="<u8")
        accepted = words[words < np.uint64(limit)]
        take = min(need, accepted.size)
        gf.reducer.reduce(accepted[:take], out=out[filled : filled + take])
        filled += take
    return out


_EXPANDERS: Dict[str, Callable[[int, int, FiniteField], np.ndarray]] = {
    "pcg64": _expand_pcg64,
    "sha256": _expand_sha256,
}


class PRG:
    """Deterministic seed-to-field-vector expander.

    >>> gf = FiniteField()
    >>> prg = PRG(gf)
    >>> bool(np.array_equal(prg.expand(42, 8), prg.expand(42, 8)))
    True
    """

    def __init__(self, gf: FiniteField, backend: str = "pcg64"):
        if backend not in BACKENDS:
            raise FieldError(f"unknown PRG backend {backend!r}; use {BACKENDS}")
        self.gf = gf
        self.backend = backend
        self._expand = _EXPANDERS[backend]

    def expand(self, seed: int, length: int) -> np.ndarray:
        """Expand ``seed`` into ``length`` uniform field elements.

        The same ``(seed, length, q, backend)`` always yields the same
        vector; a prefix property additionally holds for the sha256 backend
        (``expand(s, n)[:m] == expand(s, m)``).
        """
        if length < 0:
            raise FieldError(f"length must be non-negative, got {length}")
        if seed < 0:
            # Map arbitrary ints (e.g. signed hashes) into the seed domain.
            seed = seed % (1 << 256)
        return self._expand(seed, length, self.gf)

    def __repr__(self) -> str:
        return f"PRG(q={self.gf.q}, backend={self.backend!r})"


def seed_from_bytes(data: bytes) -> int:
    """Derive a 256-bit integer seed from arbitrary bytes via SHA-256."""
    return int.from_bytes(hashlib.sha256(data).digest(), "little")

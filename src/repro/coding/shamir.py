"""Shamir secret sharing over GF(q) (Shamir, 1979).

Used by the SecAgg / SecAgg+ baselines to share each user's private PRG
seed ``b_i`` and private key ``sk_i`` (paper Sec. 3).  A ``(t, n)`` scheme
hides the secret from any ``t`` shares and reconstructs from any ``t + 1``.

Secrets may be scalars or vectors; vector secrets are shared
coordinate-wise with an independent random polynomial per coordinate
(vectorized across coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import CodingError, NotEnoughSharesError
from repro.field.arithmetic import FiniteField
from repro.field.vandermonde import lagrange_coeffs


@dataclass(frozen=True)
class ShamirShare:
    """A single share: the evaluation point ``x`` and value(s) ``y``."""

    x: int
    y: np.ndarray


class ShamirSecretSharing:
    """``(threshold, num_shares)`` Shamir scheme over GF(q).

    ``threshold`` is the privacy parameter ``t``: any ``t`` shares reveal
    nothing; any ``t + 1`` reconstruct.
    """

    def __init__(self, gf: FiniteField, num_shares: int, threshold: int):
        if threshold < 0:
            raise CodingError(f"threshold must be >= 0, got {threshold}")
        if num_shares <= threshold:
            raise CodingError(
                f"need num_shares > threshold, got n={num_shares}, t={threshold}"
            )
        if num_shares >= gf.q:
            raise CodingError(f"field size {gf.q} too small for {num_shares} shares")
        self.gf = gf
        self.num_shares = num_shares
        self.threshold = threshold
        # Evaluation points 1..n; the secret lives at x = 0.
        self.points = np.arange(1, num_shares + 1, dtype=np.uint64)

    def share(
        self, secret, rng: Optional[np.random.Generator] = None
    ) -> Dict[int, ShamirShare]:
        """Split ``secret`` into shares keyed by evaluation point.

        ``secret`` may be an int or a 1-D integer array; the polynomial
        ``f(x) = secret + c_1 x + ... + c_t x^t`` has independent uniform
        coefficients per coordinate, and share ``x`` is ``f(x)``.
        """
        secret_arr = self.gf.array(
            np.atleast_1d(np.asarray(secret, dtype=np.int64))
        )
        width = secret_arr.shape[0]
        coeffs = self.gf.random((self.threshold, width), rng)  # c_1..c_t
        gf = self.gf
        # All n evaluations at once: powers[j, row] = x_j ** (row + 1), so
        # f(x_j) = secret + powers[j] @ coeffs.  One field matmul replaces
        # the per-point Horner loop (n * t small vector ops) and rides the
        # blocked lazy-reduction kernel.
        values = np.broadcast_to(secret_arr, (self.num_shares, width))
        if self.threshold:
            powers = np.empty((self.num_shares, self.threshold), dtype=np.uint64)
            col = gf.array(self.points)
            powers[:, 0] = col
            for row in range(1, self.threshold):
                col = gf.mul(col, self.points)
                powers[:, row] = col
            values = gf.add(values, gf.matmul(powers, coeffs))
        return {
            int(x): ShamirShare(x=int(x), y=values[j].copy())
            for j, x in enumerate(self.points.tolist())
        }

    def reconstruct(self, shares: Sequence[ShamirShare]) -> np.ndarray:
        """Recover the secret from any ``threshold + 1`` shares.

        Extra shares are ignored deterministically (lowest ``x`` first).
        """
        needed = self.threshold + 1
        unique = {s.x: s for s in shares}
        if len(unique) < needed:
            raise NotEnoughSharesError(
                f"need {needed} distinct shares, got {len(unique)}"
            )
        chosen = [unique[x] for x in sorted(unique)[:needed]]
        xs = self.gf.array([s.x for s in chosen])
        ys = np.stack([self.gf.array(s.y) for s in chosen], axis=0)
        coeffs = lagrange_coeffs(self.gf, xs, [0])  # evaluate at x = 0
        return self.gf.matmul(coeffs, ys)[0]

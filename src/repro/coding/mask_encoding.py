"""T-private mask encoding — the core primitive of LightSecAgg.

Implements eq. (5)/(28) of the paper.  A user's random mask ``z`` (length
``d``) is partitioned into ``U - T`` sub-masks; ``T`` extra sub-masks are
drawn uniformly at random; the ``U`` rows are encoded with an ``(N, U)``
MDS code into ``N`` coded shares, one per user.  Properties:

* **Linearity** — the share-wise sum of several users' encodings is a valid
  encoding of the summed masks, which is what enables the server's one-shot
  aggregate-mask recovery from any ``U`` aggregated shares.
* **T-privacy** — any ``T`` shares are statistically independent of ``z``
  because the ``T`` random padding rows are mixed in through an invertible
  ``T x T`` sub-matrix (the generator is *T-private MDS* in the paper's
  terminology; for a Vandermonde/Lagrange generator with distinct nonzero
  points the required sub-matrices are generalized Vandermonde / Cauchy and
  hence invertible).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.exceptions import CodingError
from repro.coding.mds import MDSCode
from repro.coding.partition import partition, piece_length, unpartition
from repro.field.arithmetic import FIELD_WORD, FiniteField


def word_out(out: Optional[np.ndarray], shape, what: str) -> np.ndarray:
    """``out`` checked as the C-contiguous :data:`FIELD_WORD` array of
    ``shape`` a kernel writes into, or a fresh one when it is None.

    The same refusal ``gf.random(out=)`` makes, as a :class:`CodingError`
    naming ``what``: a kernel never casts, reshapes or copies its way
    into an output it was handed.
    """
    if out is None:
        return np.empty(shape, dtype=FIELD_WORD)
    if not (
        isinstance(out, np.ndarray)
        and out.dtype == FIELD_WORD
        and out.shape == tuple(shape)
        and out.flags.c_contiguous
    ):
        raise CodingError(
            f"{what} out must be a C-contiguous {FIELD_WORD.str} array of "
            f"shape {tuple(shape)}"
        )
    return out


class MaskEncoder:
    """Encode/decode LightSecAgg masks for ``num_users`` users.

    Parameters
    ----------
    gf:
        Finite field for all operations.
    num_users:
        ``N``, the number of users (= number of coded shares).
    target_survivors:
        ``U``, the number of aggregated shares needed for recovery.
    privacy:
        ``T``, the number of colluding users tolerated; requires ``U > T``.
    model_dim:
        ``d``, the length of the mask vector being encoded.
    generator:
        MDS generator construction, ``"lagrange"`` or ``"vandermonde"``.
    """

    #: Generator-input elements ``encode_batch`` stages per ``gf.matmul``
    #: call (4 MiB of uint64).
    STAGING_ELEMS = 1 << 19

    def __init__(
        self,
        gf: FiniteField,
        num_users: int,
        target_survivors: int,
        privacy: int,
        model_dim: int,
        generator: str = "lagrange",
    ):
        if privacy < 0:
            raise CodingError(f"privacy T must be >= 0, got {privacy}")
        if not privacy < target_survivors <= num_users:
            raise CodingError(
                f"require T < U <= N, got T={privacy}, U={target_survivors}, "
                f"N={num_users}"
            )
        if model_dim <= 0:
            raise CodingError(f"model_dim must be positive, got {model_dim}")
        self.gf = gf
        self.num_users = num_users
        self.target_survivors = target_survivors
        self.privacy = privacy
        self.model_dim = model_dim
        self.num_submasks = target_survivors - privacy  # U - T data rows
        self.share_dim = piece_length(model_dim, self.num_submasks)
        self.code = MDSCode(gf, n=num_users, k=target_survivors, generator=generator)

    # ------------------------------------------------------------------
    def generate_mask(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw a fresh uniform mask ``z`` of length ``model_dim``."""
        return self.gf.random(self.model_dim, rng)

    def encode(
        self, mask: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Encode a mask into ``N`` coded shares of shape ``(N, share_dim)``.

        Row ``j`` of the result is ``[~z]_j``, the share destined for user
        ``j``.  The ``T`` random padding rows are drawn from ``rng``.
        """
        mask = self.gf.array(mask)
        if mask.shape != (self.model_dim,):
            raise CodingError(
                f"mask must have shape ({self.model_dim},), got {mask.shape}"
            )
        sub_masks = partition(mask, self.num_submasks)  # (U-T, share_dim)
        padding = self.gf.random((self.privacy, self.share_dim), rng)
        data = np.concatenate([sub_masks, padding], axis=0)  # (U, share_dim)
        return self.code.encode(data)

    def encode_batch(
        self,
        masks: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Encode ``B`` masks at once as a single batched field matmul.

        ``masks`` has shape ``(B, model_dim)``; the result is a
        C-contiguous ``(B, N, share_dim)`` array of :data:`FIELD_WORD`
        residues (half the bytes of uint64; values are canonical, so the
        width loses nothing) where slice ``b`` equals ``encode(masks[b])``
        up to the random padding draw.  The ``B`` generator inputs are
        staged a chunk at a time as a ``(g, U, share_dim)`` stack and go
        through ``gf.matmul``, which narrows each block into the result:
        no whole-batch uint64 copy of the input or the output is made,
        which is what lets a multi-round session precompute its whole
        offline pool in one shot.  Masks that are already
        :data:`FIELD_WORD` (the pool's draw) are read as they are.

        ``out``, when given, is the array to encode into (checked by
        :func:`word_out`) and is returned; a pooled session passes its
        slab's free slots, so a refill allocates no result.
        """
        masks = np.asarray(masks)
        if masks.dtype not in (np.uint64, FIELD_WORD):
            masks = self.gf.array(masks)
        if masks.ndim != 2 or masks.shape[1] != self.model_dim:
            raise CodingError(
                f"masks must have shape (B, {self.model_dim}), got {masks.shape}"
            )
        b = masks.shape[0]
        if b == 0:
            raise CodingError("cannot encode an empty batch")
        # Mask b's U-T sub-mask rows (the rows partition() cuts) are the
        # first model_dim entries of its flat U*share_dim row, then the
        # zero tail of the last sub-mask, then its T padding rows — one
        # draw for the whole batch, T rows of B*share_dim, placed per
        # mask.  The input is staged a chunk of masks at a time in one
        # reused uint64 buffer: a cache-sized copy, never a second whole
        # batch.  gf.matmul reduces a chunk holding non-canonical uint64
        # masks, which commutes with the placement.
        u, share_dim = self.target_survivors, self.share_dim
        padding = np.empty((self.privacy, b * share_dim), dtype=FIELD_WORD)
        self.gf.random(padding.shape, rng, out=padding)
        padding = padding.reshape(self.privacy, b, share_dim)
        coded = word_out(out, (b, self.num_users, share_dim), "coded")
        chunk = min(b, max(1, self.STAGING_ELEMS // (u * share_dim)))
        flat = np.empty((chunk, u * share_dim), dtype=np.uint64)
        flat[:, self.model_dim : self.num_submasks * share_dim] = 0
        for lead in range(0, b, chunk):
            g = min(chunk, b - lead)
            flat[:g, : self.model_dim] = masks[lead : lead + g]
            data = flat[:g].reshape(g, u, share_dim)
            data[:, self.num_submasks :] = padding[:, lead : lead + g].transpose(1, 0, 2)
            self.code.encode(data, out=coded[lead : lead + g])
        return coded

    def decode_aggregate(self, aggregated_shares: Dict[int, np.ndarray]) -> np.ndarray:
        """One-shot recovery of the aggregate mask (paper Alg. 1, line 26).

        ``aggregated_shares`` maps a user index ``j`` to
        ``sum_{i in U1} [~z_i]_j`` — the sum, over the surviving set, of the
        coded shares held by user ``j``.  Any ``U`` entries suffice.  Returns
        the aggregate mask ``sum_{i in U1} z_i`` of length ``model_dim``.
        """
        data = self.code.decode(aggregated_shares)  # (U, share_dim)
        sub_masks = data[: self.num_submasks]
        return unpartition(sub_masks, self.model_dim)

    def aggregate_shares(self, shares: Dict[int, np.ndarray]) -> np.ndarray:
        """Sum the coded shares a user holds for a set of source users.

        ``shares`` maps source-user index ``i`` to ``[~z_i]_j`` (this user's
        share of user ``i``'s mask).  Used by surviving users in the
        recovery phase.
        """
        if not shares:
            raise CodingError("cannot aggregate an empty share set")
        stacked = np.stack([self.gf.array(v) for v in shares.values()], axis=0)
        return self.gf.sum(stacked, axis=0)

    def __repr__(self) -> str:
        return (
            f"MaskEncoder(N={self.num_users}, U={self.target_survivors}, "
            f"T={self.privacy}, d={self.model_dim}, q={self.gf.q})"
        )

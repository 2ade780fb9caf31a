"""Vectorized arithmetic over the prime field GF(q).

The central object is :class:`FiniteField`.  Field elements are represented
as ``numpy.uint64`` arrays whose entries are *reduced residues* in
``[0, q)``; every public method returns arrays satisfying that contract and
accepts arbitrary integer arrays (which are reduced on entry).  Bulk
material and uploads can be held at :data:`FIELD_WORD` instead, half the
bytes: :meth:`FiniteField.is_valid` accepts it, :meth:`FiniteField.random`
draws into it and :meth:`FiniteField.matmul` reads and writes it.

All binary operations are elementwise-vectorized.  Because the modulus is
validated to be below ``2**32`` (:func:`repro.field.prime.validate_modulus`),
the product of two reduced residues fits exactly in uint64, so
``(a * b) % q`` in uint64 never overflows.

Reduction itself is delegated to a :class:`repro.field.reduce.Reducer`
strategy chosen at construction (Mersenne shift-fold for ``q = 2**k - 1``,
the ``split_fold`` reducer for general ``q``, or the ``np.mod``
oracle) — see :mod:`repro.field.reduce`.
With a reducer whose fold is division-free selected,
:meth:`FiniteField.matmul` runs a 16-bit limb-split kernel over float64
BLAS with fold-based lazy accumulation; with the oracle it runs the
historical lazy-``np.mod`` rank-1 kernel, preserved byte-for-byte as the
A/B baseline.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np

from repro.exceptions import FieldError
from repro.field.prime import DEFAULT_PRIME, validate_modulus
from repro.field.reduce import Reducer, select_reducer

ArrayLike = Union[int, Iterable[int], np.ndarray]

_U64_MAX = (1 << 64) - 1
#: Largest integer float64 accumulates exactly (2**53).
_F64_EXACT = 1 << 53
_SHIFT16 = np.uint64(16)
_MASK16 = np.uint64(0xFFFF)

#: The narrowest word that holds every residue of every accepted modulus
#: (all are below ``2**32``): the width of pooled offline material and
#: of field words on every shard hop.
FIELD_WORD = np.dtype("<u4")
_WORD_DTYPES = (np.dtype(np.uint64), FIELD_WORD)


class FiniteField:
    """The prime field GF(q) with vectorized numpy arithmetic.

    Parameters
    ----------
    q:
        A prime modulus below ``2**32``.  Defaults to the Mersenne prime
        ``2**31 - 1``.
    reducer:
        Reduction-kernel selection: ``"auto"`` (default; Mersenne when the
        modulus allows, split-fold otherwise), ``"mersenne"``,
        ``"split_fold"``, or ``"numpy_mod"``.  ``None`` means ``"auto"``.

    Examples
    --------
    >>> gf = FiniteField()
    >>> int(gf.mul(gf.array(3), gf.array(5)))
    15
    >>> int(gf.inv(gf.array(2)))  # (q+1)//2
    1073741824
    """

    __slots__ = ("q", "_q64", "reducer")

    def __init__(self, q: int = DEFAULT_PRIME, reducer: Optional[str] = None):
        self.q: int = validate_modulus(q)
        self._q64 = np.uint64(self.q)
        self.reducer: Reducer = select_reducer(self.q, reducer)

    # ------------------------------------------------------------------
    # construction / conversion
    # ------------------------------------------------------------------
    def array(self, values: ArrayLike) -> np.ndarray:
        """Convert integers to reduced residues as a uint64 array.

        Negative inputs are mapped to their canonical representatives, e.g.
        ``-1`` becomes ``q - 1``.
        """
        arr = np.asarray(values)
        if arr.dtype == np.uint64:
            # reduce() always allocates a fresh buffer (np.mod semantics).
            return self.reducer.reduce(arr)
        if not np.issubdtype(arr.dtype, np.integer):
            raise FieldError(
                f"field elements must be integers, got dtype {arr.dtype}"
            )
        # numpy signed mod with a positive modulus yields non-negative
        # results.  Narrow dtypes are widened first: the modulus itself
        # does not fit an int8..int32 (numpy raises OverflowError rather
        # than promote a Python int), and every value they hold fits int64.
        if arr.dtype.itemsize < 8:
            arr = arr.astype(np.int64)
        return np.mod(arr, self.q).astype(np.uint64)

    def zeros(self, shape) -> np.ndarray:
        """All-zero field array of the given shape."""
        return np.zeros(shape, dtype=np.uint64)

    def ones(self, shape) -> np.ndarray:
        """All-one field array of the given shape."""
        return np.ones(shape, dtype=np.uint64)

    def is_valid(self, a: np.ndarray) -> bool:
        """True when ``a`` is a uint64 or :data:`FIELD_WORD` array of
        reduced residues: what callers read in place, uncopied."""
        return (
            isinstance(a, np.ndarray)
            and a.dtype in _WORD_DTYPES
            and (a.size == 0 or bool(a.max() < self.q))
        )

    def to_signed(self, a: np.ndarray) -> np.ndarray:
        """Interpret residues as signed integers in ``(-q/2, q/2]``.

        This is the inverse of the two's-complement embedding used by the
        quantizer (paper eq. 36): residues above ``(q-1)/2`` map to negative
        integers.
        """
        a = self.array(a)
        half = (self.q - 1) // 2
        signed = a.astype(np.int64)
        signed[a > half] -= self.q
        return signed

    # ------------------------------------------------------------------
    # elementwise arithmetic
    # ------------------------------------------------------------------
    def add(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Elementwise ``a + b (mod q)``."""
        a = self.array(a)
        b = self.array(b)
        return self.reducer.reduce_semi(a + b)

    def sub(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Elementwise ``a - b (mod q)``."""
        a = self.array(a)
        b = self.array(b)
        return self.reducer.reduce_semi(a + (self._q64 - b))

    def mul(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Elementwise ``a * b (mod q)``; exact because q < 2**32."""
        a = self.array(a)
        b = self.array(b)
        return self.reducer.reduce(a * b)

    def pow(self, a: ArrayLike, e: int) -> np.ndarray:
        """Elementwise ``a ** e (mod q)`` by binary exponentiation.

        Negative exponents are supported via Fermat's little theorem
        (``a**(q-1) == 1`` for nonzero ``a``): the exponent is mapped to
        its representative in ``[0, q-1)`` and a *single* binary
        exponentiation runs — not an inversion pass (31 squarings for the
        default modulus) followed by a second exponentiation.  Negative
        exponents require every base to be nonzero.
        """
        a = self.array(a)
        if e < 0:
            if a.size and np.any(a == 0):
                raise FieldError("zero has no multiplicative inverse")
            e = e % (self.q - 1)
        red = self.reducer
        result = np.ones_like(a)
        base = a.copy()
        while e:
            if e & 1:
                result = red.reduce(result * base)
            e >>= 1
            if e:
                base = red.reduce(base * base)
        return result

    def inv(self, a: ArrayLike) -> np.ndarray:
        """Elementwise multiplicative inverse via Fermat's little theorem."""
        a = self.array(a)
        if a.size and np.any(a == 0):
            raise FieldError("zero has no multiplicative inverse")
        return self.pow(a, self.q - 2)

    # ------------------------------------------------------------------
    # reductions / linear algebra helpers
    # ------------------------------------------------------------------
    def sum(self, a: ArrayLike, axis: Optional[int] = None) -> np.ndarray:
        """Field sum along an axis.

        Sums are computed in Python-object space only when overflow is
        possible; for typical sizes a chunked uint64 accumulation is exact:
        we reduce every ``2**31`` additions, far below any realistic chunk.
        """
        a = self.array(a)
        # Each residue < 2**32, so up to 2**32 terms can be accumulated in
        # uint64 without overflow.  numpy sums of that length are infeasible
        # in memory anyway, so a single np.sum is always exact here.
        total = np.sum(a, axis=axis, dtype=np.uint64)
        return self.reducer.reduce(total)

    # Width-axis blocking for matmul: the rank-1 accumulation below makes
    # k passes over the (m, n) accumulator, so once a row block exceeds
    # cache, every pass streams it from DRAM.  Bounding the per-block
    # accumulator + operand footprint to ~2 MiB of uint64 keeps all k
    # passes cache-resident, which is what makes large-width offline
    # refills ((N, U) @ (U, K*N*share_dim) in MaskEncoder.encode_batch)
    # compute-bound instead of memory-bound.
    MATMUL_BLOCK_ELEMS = 1 << 18

    # Block budget for the limb-split float64 kernel, in 8-byte elements
    # (2 MiB): one block's f64 operand (k rows), f64 product and uint64
    # limb sums (2m rows each), so the dozen passes between the GEMM and
    # the caller's array run out of L2 instead of streaming the whole
    # product from DRAM each.  1.5-3 MiB measured alike at the refill
    # shape; 512 KiB and 4 MiB were both slower.
    MATMUL_F64_BLOCK_ELEMS = 1 << 18

    def matmul(
        self, a: ArrayLike, b: ArrayLike, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Matrix product over GF(q).

        ``a`` is ``(m, k)``; ``b`` is ``(k, n)`` or a stack ``(B, k, n)``
        with ``np.matmul`` semantics (``result[i] = a @ b[i]``).  ``out``,
        when given, is the uint64 or :data:`FIELD_WORD` array of the
        result's shape to write into; it must not overlap ``a`` or ``b``.
        Operands that already are canonical residues, as uint64 or
        :data:`FIELD_WORD`, are used as they are (one compare pass);
        anything else is reduced on entry through :meth:`array`.

        With a division-free reducer (the default), products run through
        a 16-bit limb-split kernel: each operand block is lifted to
        float64, BLAS GEMMs compute the exact high/low limb contractions
        (every partial sum stays below ``2**53``, so the float arithmetic
        is exact and bit-reproducible), and the limbs are recombined in
        uint64 with fold-based lazy accumulation — no integer division
        inside the contraction.  With the ``numpy_mod`` oracle
        reducer the historical width-blocked lazy-``np.mod`` rank-1
        kernel runs instead, preserved as the A/B baseline.  Both paths
        return identical canonical residues, and both narrow into a
        :data:`FIELD_WORD` ``out`` a block at a time.
        """
        a = a if self.is_valid(a) else self.array(a)
        b = b if self.is_valid(b) else self.array(b)
        if a.ndim != 2 or b.ndim not in (2, 3) or a.shape[1] != b.shape[-2]:
            raise FieldError(f"incompatible matmul shapes {a.shape} x {b.shape}")
        m, n = a.shape[0], b.shape[-1]
        shape = b.shape[:-2] + (m, n)
        if out is None:
            out = np.empty(shape, dtype=np.uint64)
        elif not (
            isinstance(out, np.ndarray)
            and out.dtype in _WORD_DTYPES
            and out.shape == shape
        ):
            raise FieldError(
                f"matmul out must be a uint64 or {FIELD_WORD.str} array of "
                f"shape {shape}"
            )
        if out.size == 0:
            return out
        b3, out3 = (b[None], out[None]) if b.ndim == 2 else (b, out)
        if self.reducer.division_free:
            self._matmul_limbsplit(a, b3, out3)
            return out
        # The oracle kernel computes in uint64: each block of ``b`` widens
        # (so every product does), and a narrower ``out`` is filled
        # through one reused block.
        width_block = max(1, self.MATMUL_BLOCK_ELEMS // m)
        narrow = out.dtype != np.uint64
        if narrow:
            scratch = np.empty((m, min(width_block, n)), dtype=np.uint64)
        for b2, out2 in zip(b3, out3):
            for col in range(0, n, width_block):
                dest = out2[:, col : col + width_block]
                acc = scratch[:, : dest.shape[1]] if narrow else dest
                b_block = b2[:, col : col + width_block]
                self._matmul_block(a, b_block.astype(np.uint64, copy=False), acc)
                if narrow:
                    np.copyto(dest, acc)
        return out

    def _matmul_limbsplit(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        """Exact 16-bit limb-split GEMM over float64, reduced division-free.

        ``a`` is ``(m, k)``, ``b`` ``(B, k, n)`` and ``out`` ``(B, m, n)``,
        all canonical, each uint64 or :data:`FIELD_WORD`.  ``a`` is split
        as ``a = a_hi * 2**16 + a_lo`` and the limbs stacked into one
        ``(2m, k)`` float64 operand; for a contraction chunk of ``s``
        terms the float64 products satisfy ``s * max(a_limb) * (q-1) <=
        2**53``, so each GEMM is exact integer arithmetic in float64.  Chunk results add
        up raw in uint64 over a *span* of chunks, are recombined as
        ``(reduce(c_hi) << 16) + c_lo`` and lazily accumulated, with one
        reducer *fold* between spans to stay clear of overflow.  ``b`` is
        walked in cache-sized blocks — a run of columns of one stack
        entry, or several narrow entries side by side — and every pass
        over a block is in place in per-call scratch: one cast in, the
        GEMMs, the uint64 passes, one copy into the caller's block (which
        narrows into a :data:`FIELD_WORD` ``out``: the values are below
        ``q``, so the cast is exact).
        """
        red = self.reducer
        m, k = a.shape
        batch, _, n = b.shape
        if k == 0:  # empty contraction sums to zero
            out[...] = 0
            return
        qm1 = self.q - 1
        hi_max = qm1 >> 16
        lo_max = min(qm1, 0xFFFF)
        # Largest exact contraction chunk (at least 32 terms for any
        # q < 2**32; one chunk covers typical coded-computing shapes),
        # and the run of chunks whose raw limb sums stay below 2**63
        # (at least 2**15 terms: one span covers everything realistic).
        step = max(1, min(k, _F64_EXACT // (lo_max * qm1)))
        span = step * max(1, (1 << 63) // (step * lo_max * qm1))
        terms = min(k, span)
        # Recombining the high limb needs it congruent, not canonical: a
        # cheap fold is enough whenever the fold-bounded value, shifted
        # 16 bits and stacked on the low limb plus a folded accumulator,
        # provably stays in uint64.  Both bounds are exact Python-int
        # arithmetic; when the cheap fold cannot be proven safe (large
        # 2**32 mod q), fall back to a full reduction of the high limb.
        c_lo_max = terms * lo_max * qm1
        hi_fold_max = red.fold_bound(terms * hi_max * qm1) if hi_max else 0
        hi_fold_ok = (
            hi_max and red.fold_max + (hi_fold_max << 16) + c_lo_max <= _U64_MAX
        )
        hi_red_max = hi_fold_max if hi_fold_ok else qm1
        span_max = (hi_red_max << 16) + c_lo_max
        fold_ok = red.fold_max + span_max <= _U64_MAX
        # Exact bound on the finished accumulator, so the final
        # reduction can run the cheapest chain its magnitude admits.
        if k > span:
            acc_max = (red.fold_max if fold_ok else qm1) + span_max
        else:
            acc_max = span_max
        reduce_hi = red.fold if hi_fold_ok else red.reduce
        reduce_acc = red.fold if fold_ok else red.reduce
        rows = 2 * m if hi_max else m
        limbs = np.empty((rows, k), dtype=np.float64)
        np.copyto(limbs[:m], a & _MASK16, casting="unsafe")
        if hi_max:
            np.copyto(limbs[m:], a >> _SHIFT16, casting="unsafe")
        # Block geometry: ``group`` stack entries of ``cols`` columns each
        # per block.  Scratch is flat and re-cut per block, so a short
        # last block is still contiguous for BLAS.
        per_col = k + 2 * rows + rows * (k > step) + m * (k > span)
        cols = max(1, self.MATMUL_F64_BLOCK_ELEMS // per_col)
        group = min(batch, max(1, cols // n))
        cols = min(cols, n)
        bf_flat = np.empty(k * group * cols, dtype=np.float64)
        prod_flat = np.empty(rows * group * cols, dtype=np.float64)
        sums_flat, raw_flat, acc_flat = (
            np.empty(height * group * cols, dtype=np.uint64)
            for height in (rows, rows * (k > step), m * (k > span))
        )
        # Residues and exact products are below 2**63: the signed casts
        # are the same bits and twice as fast as the unsigned ones.  A
        # FIELD_WORD residue may not fit int32, so it is cast as it is.
        if b.dtype == np.uint64:
            b = b.view(np.int64)
        for lead in range(0, batch, group):
            g = min(group, batch - lead)
            for col in range(0, n, cols):
                w = min(cols, n - col)
                bf = bf_flat[: k * g * w].reshape(k, g * w)
                np.copyto(
                    bf.reshape(k, g, w),
                    b[lead : lead + g, :, col : col + w].transpose(1, 0, 2),
                    casting="unsafe",
                )
                prod = prod_flat[: rows * g * w].reshape(rows, g * w)
                sums = sums_flat[: prod.size].reshape(prod.shape)
                acc = lo = sums[:m]
                for first in range(0, k, span):
                    for start in range(first, min(first + span, k), step):
                        stop = min(start + step, k)
                        np.matmul(limbs[:, start:stop], bf[start:stop], out=prod)
                        if start == first:
                            np.copyto(sums.view(np.int64), prod, casting="unsafe")
                        else:
                            raw = raw_flat[: prod.size].reshape(prod.shape)
                            np.copyto(raw.view(np.int64), prod, casting="unsafe")
                            sums += raw
                    if hi_max:
                        hi = sums[m:]
                        reduce_hi(hi, out=hi)
                        hi <<= _SHIFT16
                        lo += hi
                    if first:
                        reduce_acc(acc, out=acc)
                        acc += lo
                    elif k > span:
                        acc = acc_flat[: lo.size].reshape(lo.shape)
                        acc[...] = lo
                red.reduce_bounded(acc, acc_max, out=acc)
                np.copyto(
                    out[lead : lead + g, :, col : col + w].transpose(1, 0, 2),
                    acc.reshape(m, g, w),
                )

    def _matmul_block(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        """One width block of the baseline (``numpy_mod``) matmul kernel."""
        k = a.shape[1]
        out[:] = 0
        if k <= 256:
            # Short contraction axis (the coded-computing common case):
            # accumulate one rank-1 product at a time, keeping the
            # working set at O(m * width_block) instead of materializing
            # the full (m, k, n) product tensor.  Reduction is *lazy*:
            # each raw product of reduced residues is < (q-1)**2, so
            # ``batch`` of them accumulate exactly in uint64 before one
            # shared ``np.mod`` — integer division dominates this kernel,
            # and for the default q = 2**31 - 1 this cuts it 4x.  The
            # outer accumulator then holds one reduced (< q) term per
            # batch, at most 256 of them, far from overflow.
            batch = _U64_MAX // ((self.q - 1) ** 2)
            if batch < 2:
                for kk in range(k):
                    out += np.mod(a[:, kk, None] * b[None, kk, :], self._q64)
            else:
                for start in range(0, k, batch):
                    acc = a[:, start, None] * b[None, start, :]
                    for kk in range(start + 1, min(start + batch, k)):
                        acc += a[:, kk, None] * b[None, kk, :]
                    out += np.mod(acc, self._q64, out=acc)
            np.mod(out, self._q64, out=out)
            return
        # Long contraction axis: chunk it so uint64 accumulation cannot
        # overflow; products are reduced (mod q) before accumulation, so
        # each term < 2**32 and up to 2**32 terms fit.
        step = 4096
        for start in range(0, k, step):
            stop = min(start + step, k)
            prod = np.mod(
                a[:, start:stop, None] * b[None, start:stop, :], self._q64
            )
            np.mod(
                out + np.sum(prod, axis=1, dtype=np.uint64), self._q64, out=out
            )

    # ------------------------------------------------------------------
    # randomness
    # ------------------------------------------------------------------
    # Draws of fewer elements go straight to ``rng.integers``: the
    # sampler's fixed cost (two state reads and a write, ~14 us on PCG64)
    # beats integers' per-element cost only from 1536-2048 elements up at
    # the default prime (bench_field_reduction.py's ``random_sizes`` rows).
    # At least 2, so a sampled draw always reads a raw word.
    RANDOM_MIN_SIZE = 1 << 11
    # Raw 64-bit words per pass of :meth:`random` (256 KiB, two field
    # elements each).  Blocks bound what a rejection allocates (its mask
    # and the compacted half-words): compacting a whole multi-MB draw
    # instead left the facade workload's peak RSS at 450-600 MiB in 7 of
    # 15 runs of one seed, against 0 of 9 with blocks (395 MiB).
    RANDOM_BLOCK_WORDS = 1 << 15

    def random(
        self,
        shape,
        rng: Optional[np.random.Generator] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Uniformly random field elements of the given shape.

        The values *and* the bit generator's state afterwards are exactly
        those of ``rng.integers(0, q, size=shape, dtype=np.uint64)``:
        numpy draws each element with Lemire's 32-bit multiply-shift from
        one half-word of its bit generator (low half, then high half, of
        each raw word; a left-over high half stays buffered in the state's
        ``has_uint32`` / ``uinteger``): half-word ``w`` gives ``(w * q) >>
        32``, and is rejected and redrawn when the low 32 bits of ``w * q``
        fall below ``2**32 % q``.  Here the same algorithm runs as numpy
        passes: one ``random_raw`` call draws every word numpy reads if
        nothing is rejected, the passes walk it a block at a time into one
        reused block of 64-bit products ``w * q``, whose high halves are
        the elements and whose low halves decide rejection; each block's
        accepted elements are copied straight into the output, and a
        block holding a rejected one (probability about ``5e-10`` per
        element at the default prime) drops exactly the rejected
        half-words, as the redraw does, and the shortfall is drawn next.
        The raw words are the only scratch beyond one block: half the
        bytes of a uint64 output, as many as a :data:`FIELD_WORD` one.
        Draws smaller than ``RANDOM_MIN_SIZE``, and bit generators
        without the buffered half-word (MT19937), are delegated to
        ``rng.integers`` itself.

        ``out``, when given, is the C-contiguous uint64 or
        :data:`FIELD_WORD` array of ``shape`` to draw into, and is
        returned; a :data:`FIELD_WORD` ``out`` holds the same values at
        half the bytes, with no uint64 copy of the draw in between.

        Unlike ``integers`` the sampler reads the state, draws, and writes
        the state back, so it is not atomic under the bit generator's
        lock: every caller must own its Generator (no two threads may
        draw from one concurrently).
        """
        rng = rng if rng is not None else np.random.default_rng()
        if out is not None and not (
            isinstance(out, np.ndarray)
            and out.dtype in _WORD_DTYPES
            and out.shape == np.broadcast_to(0, shape).shape
            and out.flags.c_contiguous
        ):
            raise FieldError(
                f"random out must be a C-contiguous uint64 or "
                f"{FIELD_WORD.str} array of shape {shape}"
            )
        bitgen = rng.bit_generator
        size = 1 if shape is None else int(np.prod(shape))
        if size < self.RANDOM_MIN_SIZE or "has_uint32" not in (state := bitgen.state):
            drawn = rng.integers(0, self.q, size=shape, dtype=np.uint64)
            if out is None:
                return drawn
            np.copyto(out, drawn)
            return out
        if out is None:
            out = np.empty(shape, dtype=np.uint64)
        flat = out.reshape(-1)
        threshold = (1 << 32) % self.q
        filled = 0
        if state["has_uint32"]:
            product = state["uinteger"] * self.q
            if product & 0xFFFFFFFF >= threshold:
                flat[0] = product >> 32
                filled = 1
        block = self.RANDOM_BLOCK_WORDS
        products = np.empty(2 * block, dtype="<u8")
        pool = np.empty(0, dtype=np.uint64)
        while filled < size:
            need = size - filled
            if not pool.size:
                # Never more words than ``need`` half-words: numpy draws
                # a word only once its buffered half is spent.  One call,
                # not one per block: a buffer allocated and freed per
                # block shifted where glibc placed the pool material of
                # the threaded shard host, whose peak RSS rose ~40 % in
                # the end-to-end socket workload (2-core x86, glibc 2.36).
                pool = bitgen.random_raw((need + 1) // 2)
            raw, pool = pool[:block], pool[block:]
            halves = raw.astype("<u8", copy=False).view("<u4")
            product = products[: halves.size]
            np.multiply(halves, self._q64, out=product)  # w * q, exact
            words = product.view("<u4")
            lows, highs = words[0::2], words[1::2]
            if lows[:need].min() >= threshold:
                # No rejection among the half-words numpy would read; an
                # unread trailing high half stays buffered.
                taken = highs[:need]
                buffered = taken.size < halves.size
            else:
                # A rejection means numpy reads more than ``need``
                # half-words, so every half-word of this block.
                taken = highs[lows >= threshold]
                buffered = False
            np.copyto(flat[filled : filled + taken.size], taken)
            filled += taken.size
        state = bitgen.state
        state["has_uint32"] = int(buffered)
        # numpy keeps the last word's high half even once it is read.
        state["uinteger"] = int(raw[-1]) >> 32
        bitgen.state = state
        return out

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        # Reducers are bit-identical by contract, so fields compare (and
        # hash) on the modulus alone.
        return isinstance(other, FiniteField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("FiniteField", self.q))

    def __repr__(self) -> str:
        return f"FiniteField(q={self.q}, reducer={self.reducer.kind})"

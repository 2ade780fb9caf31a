"""Vectorized arithmetic over the prime field GF(q).

The central object is :class:`FiniteField`.  Field elements are represented
as ``numpy.uint64`` arrays whose entries are *reduced residues* in
``[0, q)``; every public method returns arrays satisfying that contract and
accepts arbitrary integer arrays (which are reduced on entry).

All binary operations are elementwise-vectorized.  Because the modulus is
validated to be below ``2**32`` (:func:`repro.field.prime.validate_modulus`),
the product of two reduced residues fits exactly in uint64, so
``(a * b) % q`` in uint64 never overflows.

Reduction itself is delegated to a :class:`repro.field.reduce.Reducer`
strategy chosen at construction (Mersenne shift-fold for ``q = 2**k - 1``,
the split-fold ``barrett`` reducer for general ``q``, or the ``np.mod``
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


class FiniteField:
    """The prime field GF(q) with vectorized numpy arithmetic.

    Parameters
    ----------
    q:
        A prime modulus below ``2**32``.  Defaults to the Mersenne prime
        ``2**31 - 1``.
    reducer:
        Reduction-kernel selection: ``"auto"`` (default; Mersenne when the
        modulus allows, Barrett otherwise), ``"mersenne"``, ``"barrett"``,
        or ``"numpy_mod"``.  ``None`` means ``"auto"``.

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
        """True when ``a`` is a uint64 array of reduced residues."""
        return (
            isinstance(a, np.ndarray)
            and a.dtype == np.uint64
            and (a.size == 0 or bool(np.all(a < self._q64)))
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

    def neg(self, a: ArrayLike) -> np.ndarray:
        """Elementwise additive inverse ``-a (mod q)``."""
        a = self.array(a)
        return self.reducer.reduce_semi(self._q64 - a)

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

    def div(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Elementwise ``a / b (mod q)``."""
        return self.mul(a, self.inv(b))

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

    def dot(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Inner product of two 1-D field arrays."""
        a = self.array(a)
        b = self.array(b)
        if a.shape != b.shape or a.ndim != 1:
            raise FieldError("dot requires two 1-D arrays of equal length")
        return self.sum(self.mul(a, b))

    # Width-axis blocking for matmul: the rank-1 accumulation below makes
    # k passes over the (m, n) accumulator, so once a row block exceeds
    # cache, every pass streams it from DRAM.  Bounding the per-block
    # accumulator + operand footprint to ~2 MiB of uint64 keeps all k
    # passes cache-resident, which is what makes large-width offline
    # refills ((N, U) @ (U, K*N*share_dim) in MaskEncoder.encode_batch)
    # compute-bound instead of memory-bound.
    MATMUL_BLOCK_ELEMS = 1 << 18

    # Width-block budget for the limb-split float64 kernel: the f64
    # operand block (k rows) plus two f64 product blocks (m rows each)
    # are bounded by ~3 * this many elements.  Bigger blocks amortize
    # the per-block conversion and BLAS call overhead; this setting
    # measured fastest at the refill shape on the dev container.
    MATMUL_F64_BLOCK_ELEMS = 1 << 21

    def matmul(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Matrix product over GF(q).

        With a division-free reducer (the default), products run through
        a 16-bit limb-split kernel: each operand column block is lifted
        to float64, two BLAS GEMMs compute the exact high/low limb
        contractions (every partial sum stays below ``2**53``, so the
        float arithmetic is exact and bit-reproducible), and the limbs
        are recombined in uint64 with fold-based lazy accumulation — no
        integer division inside the contraction.  With the ``numpy_mod`` oracle
        reducer the historical width-blocked lazy-``np.mod`` rank-1
        kernel runs instead, preserved as the A/B baseline.  Both paths
        return identical canonical residues.
        """
        a = self.array(a)
        b = self.array(b)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise FieldError(f"incompatible matmul shapes {a.shape} x {b.shape}")
        m, k = a.shape
        n = b.shape[1]
        out = np.empty((m, n), dtype=np.uint64)
        if self.reducer.division_free:
            self._matmul_limbsplit(a, b, out)
            return out
        width_block = max(1, self.MATMUL_BLOCK_ELEMS // max(m, 1))
        for col in range(0, n, width_block):
            self._matmul_block(a, b[:, col : col + width_block],
                               out[:, col : col + width_block])
        return out

    def _matmul_limbsplit(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        """Exact 16-bit limb-split GEMM over float64, reduced division-free.

        ``a`` is split as ``a = a_hi * 2**16 + a_lo``; for a contraction
        chunk of ``s`` terms the float64 products satisfy
        ``s * max(a_limb) * (q-1) <= 2**53``, so both GEMMs are exact
        integer arithmetic in float64.  Chunk results are recombined as
        ``(reduce(c_hi) << 16) + c_lo`` (< 2**54) and lazily accumulated
        in uint64, with one reducer *fold* between chunks to stay clear
        of overflow — the fold-based accumulator that replaces the old
        per-term-division branch for moduli near ``2**32``.
        """
        red = self.reducer
        m, k = a.shape
        n = b.shape[1]
        qm1 = self.q - 1
        hi_max = qm1 >> 16
        lo_max = min(qm1, 0xFFFF)
        # Largest exact contraction chunk per limb (at least 32 for any
        # q < 2**32; one chunk covers typical coded-computing shapes).
        step = k or 1
        if lo_max:
            step = min(step, _F64_EXACT // (lo_max * qm1))
        if hi_max:
            step = min(step, _F64_EXACT // (hi_max * qm1))
        step = max(1, step)
        a_lo = (a & _MASK16).astype(np.float64)
        a_hi = (a >> _SHIFT16).astype(np.float64) if hi_max else None
        # Recombining the high limb needs it congruent, not canonical: a
        # cheap fold is enough whenever the fold-bounded value, shifted
        # 16 bits and stacked on the low limb plus a folded accumulator,
        # provably stays in uint64.  Both bounds are exact Python-int
        # arithmetic; when the cheap fold cannot be proven safe (large
        # 2**32 mod q), fall back to a full reduction of the high limb.
        c_lo_max = step * lo_max * qm1
        hi_fold_max = red.fold_bound(step * hi_max * qm1) if hi_max else 0
        hi_fold_ok = (
            hi_max and red.fold_max + (hi_fold_max << 16) + c_lo_max <= _U64_MAX
        )
        hi_red_max = hi_fold_max if hi_fold_ok else qm1
        chunk_max = (hi_red_max << 16) + c_lo_max
        fold_ok = red.fold_max + chunk_max <= _U64_MAX
        # Exact bound on the finished accumulator, so the final
        # reduction can run the cheapest chain its magnitude admits.
        if k > step:
            acc_max = (red.fold_max if fold_ok else qm1) + chunk_max
        else:
            acc_max = chunk_max
        width_block = max(1, self.MATMUL_F64_BLOCK_ELEMS // max(m + k, 1))
        for col in range(0, n, width_block):
            w = min(width_block, n - col)
            bf = b[:, col : col + w].astype(np.float64)
            acc: Optional[np.ndarray] = None
            for start in range(0, k, step):
                stop = min(start + step, k)
                c_lo = a_lo[:, start:stop] @ bf[start:stop]
                term = c_lo.astype(np.uint64)
                if a_hi is not None:
                    c_hi = a_hi[:, start:stop] @ bf[start:stop]
                    hi_red = (red.fold if hi_fold_ok else red.reduce)(
                        c_hi.astype(np.uint64)
                    )
                    hi_red <<= _SHIFT16
                    term += hi_red
                if acc is None:
                    acc = term
                else:
                    (red.fold if fold_ok else red.reduce)(acc, out=acc)
                    acc += term
            if acc is None:  # k == 0: empty contraction sums to zero
                out[:, col : col + w] = 0
            else:
                red.reduce_bounded(acc, acc_max, out=out[:, col : col + w])

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

    def matvec(self, a: ArrayLike, x: ArrayLike) -> np.ndarray:
        """Matrix-vector product over GF(q)."""
        x = self.array(x)
        if x.ndim != 1:
            raise FieldError("matvec requires a 1-D vector")
        return self.matmul(a, x[:, None])[:, 0]

    # ------------------------------------------------------------------
    # randomness
    # ------------------------------------------------------------------
    def random(self, shape, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Uniformly random field elements of the given shape."""
        rng = rng if rng is not None else np.random.default_rng()
        return rng.integers(0, self.q, size=shape, dtype=np.uint64)

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

"""Modular reduction kernels for GF(q).

Every hot path in the field layer funnels through one of three
:class:`Reducer` strategies, selected at :class:`FiniteField`
construction:

* :class:`MersenneReducer` — for ``q = 2**k - 1`` (the library default
  ``2**31 - 1``): ``x mod q`` by repeated shift-and-add folds
  ``(x & mask) + (x >> k)``, exploiting ``2**k ≡ 1 (mod q)``.  No
  integer division anywhere.
* :class:`SplitFoldReducer` — for any prime ``q < 2**32``: a cheap
  high/low split fold (``x ≡ (x >> 32) * (2**32 mod q) + (x & 0xffffffff)``)
  that keeps lazy accumulators clear of uint64 overflow, which is what
  unlocks lazy (batched) accumulation for moduli near ``2**32`` where a
  raw-product batch of two already overflows.  Its full-range reduction
  is ``np.mod``: a limb-emulated Barrett multiply lost to one integer
  division at every size measured and was removed.
* :class:`NumpyModReducer` — the ``np.mod`` integer-division oracle the
  other two are property-tested and benchmarked against; it also
  preserves the pre-reducer kernel byte-for-byte as the A/B baseline.

All three return canonical residues in ``[0, q)``, so results are
bit-identical across reducers by construction; the test suite pins this
(``tests/field/test_reduce.py``).

Selection is ``"auto"`` (Mersenne when the modulus allows, split-fold
otherwise) unless overridden by the constructor argument (``auto`` /
``mersenne`` / ``split_fold`` / ``numpy_mod``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import FieldError

_U64_MAX = (1 << 64) - 1
_WORD = 1 << 32
_MASK32 = np.uint64(_WORD - 1)
_SHIFT32 = np.uint64(32)


class Reducer:
    """Strategy interface: reduce uint64 arrays to residues in ``[0, q)``.

    Public entry points (:meth:`reduce`, :meth:`fold`,
    :meth:`reduce_semi`) accept anything coercible to uint64 — including
    numpy scalars and 0-d arrays, for which they return numpy scalars,
    matching ``np.mod`` semantics — and dispatch to the subclass
    ``_reduce`` / ``_fold`` / ``_reduce_semi`` kernels, which may assume
    an ndarray of ndim >= 1.

    * ``reduce`` — full reduction, valid for the entire uint64 range.
    * ``fold`` — *partial* reduction: returns a value congruent to the
      input bounded by :attr:`fold_max`; used to keep lazy accumulators
      from overflowing without paying for a full reduction.
    * ``reduce_semi`` — inputs known to be below ``2q`` (e.g. the sum of
      two residues); a single branch-free conditional subtract.
    """

    kind: str = "abstract"
    #: True when :meth:`fold` contains no integer division, which is
    #: what the limb-split matmul's lazy accumulator in
    #: :class:`FiniteField` needs; gates that fast path.
    division_free: bool = True

    def __init__(self, q: int):
        self.q = int(q)
        if not 2 <= self.q < _WORD:
            raise FieldError(f"reducer modulus must be in [2, 2**32), got {q}")
        self._q64 = np.uint64(self.q)
        #: Inclusive upper bound on what :meth:`fold` can return.
        self.fold_max: int = self.q - 1

    # -- public entry points (scalar-safe) ------------------------------
    def reduce(self, x, out: Optional[np.ndarray] = None):
        """``x mod q`` for any uint64 input; new array unless ``out`` given."""
        return self._dispatch(self._reduce, x, out)

    def fold(self, x, out: Optional[np.ndarray] = None):
        """A value congruent to ``x`` mod q, bounded by :attr:`fold_max`."""
        return self._dispatch(self._fold, x, out)

    def reduce_semi(self, x, out: Optional[np.ndarray] = None):
        """``x mod q`` for inputs below ``2q``."""
        return self._dispatch(self._reduce_semi, x, out)

    def reduce_bounded(self, x, x_max: int, out: Optional[np.ndarray] = None):
        """``x mod q`` for inputs bounded by ``x_max``.

        Picks the cheapest chain the bound admits: when a few folds
        provably land below ``2q`` (checked with exact Python-int
        arithmetic via :meth:`fold_bound`), runs them plus one
        conditional subtract — far fewer array passes than the
        full-range kernel; otherwise falls back to :meth:`reduce`.
        """
        q2 = 2 * self.q
        bound = int(x_max)
        folds = 0
        while bound >= q2 and folds < 3:
            next_bound = self.fold_bound(bound)
            if next_bound >= bound:
                break
            bound = next_bound
            folds += 1
        if bound >= q2:
            return self.reduce(x, out=out)
        for _ in range(folds):
            x = self.fold(x, out=out)
            if out is None and isinstance(x, np.ndarray):
                out = x  # keep the remaining passes in place
        return self.reduce_semi(x, out=out)

    #: Elementwise kernels run over flat blocks of this many elements
    #: (512 KiB of uint64).  The multi-pass kernels allocate a temporary
    #: or two per call and sweep each several times; block-sized
    #: temporaries come from the allocator's free lists and stay
    #: cache-resident between passes, where whole-array ones stream from
    #: DRAM on every pass (Mersenne ``reduce`` of 262k elements: 2.4 ms
    #: at ``1 << 20``, 0.6 ms here, ``np.mod`` 0.9 ms) and, once huge,
    #: are mmap'd afresh and page-faulted on every call.
    BLOCK_ELEMS = 1 << 16

    def _dispatch(self, impl, x, out: Optional[np.ndarray]):
        x = np.asarray(x, dtype=np.uint64)
        if not x.ndim:
            scalar = impl(x.reshape(1), None)[0]
            if out is not None:
                out[...] = scalar
                return out
            return scalar
        if x.size > self.BLOCK_ELEMS:
            xc = x if x.flags.c_contiguous else np.ascontiguousarray(x)
            if out is None:
                out = np.empty_like(xc)
            if out.flags.c_contiguous:
                xf = xc.reshape(-1)
                of = out.reshape(-1)
                for i in range(0, xf.size, self.BLOCK_ELEMS):
                    impl(xf[i : i + self.BLOCK_ELEMS],
                         of[i : i + self.BLOCK_ELEMS])
                return out
            # Non-contiguous destination: single-shot kernel call.
        return impl(x, out)

    # -- kernels (ndim >= 1 ndarrays) -----------------------------------
    def _reduce(self, x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        # Default: one integer division.  A subclass overrides this only
        # with a kernel that measures faster (Mersenne's shift-fold does).
        if out is None:
            return np.mod(x, self._q64)
        np.mod(x, self._q64, out=out)
        return out

    def _fold(self, x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        # Default: a full reduction is a (maximally tight) fold.
        return self._reduce(x, out)

    def _reduce_semi(self, x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        # Below 2q, ``x - q`` wraps past ``x`` exactly when ``x < q``, so
        # the minimum is the residue: two straight passes, where a masked
        # ``subtract(where=x >= q)`` measured 7x slower at (16, 16384).
        wrapped = np.subtract(x, self._q64)
        return np.minimum(x, wrapped, out=wrapped if out is None else out)

    # -- lazy-accumulation geometry -------------------------------------
    def fold_bound(self, x_max: int) -> int:
        """Upper bound on ``fold(x)`` given ``x <= x_max``.

        Exact Python-int arithmetic, used by callers (the limb-split
        matmul) to prove a fold-then-accumulate sequence cannot wrap
        uint64 before choosing the cheap fold over a full reduction.
        """
        return min(x_max, self.q - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(q={self.q})"


class NumpyModReducer(Reducer):
    """``np.mod`` integer-division oracle and pre-reducer A/B baseline."""

    kind = "numpy_mod"
    division_free = False

    # The oracle reduces exactly the way the pre-reducer field layer
    # did: one integer division everywhere, so A/B timings are honest.
    def _reduce_semi(self, x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        return self._reduce(x, out)


def mersenne_exponent(q: int) -> Optional[int]:
    """``k`` when ``q == 2**k - 1`` (k >= 2), else None."""
    k = int(q).bit_length()
    return k if k >= 2 and q == (1 << k) - 1 else None


class MersenneReducer(Reducer):
    """Shift-and-add reduction for Mersenne moduli ``q = 2**k - 1``.

    ``2**k ≡ 1 (mod q)`` makes ``x ≡ (x & mask) + (x >> k)`` a
    contraction: each fold shortens ``x`` by ``k`` bits.  The number of
    folds needed to bring a full-range uint64 below ``2q`` is computed
    once at construction (2 folds for the default ``k = 31``), after
    which a single conditional subtract lands in ``[0, q)``.
    """

    kind = "mersenne"

    def __init__(self, q: int):
        k = mersenne_exponent(q)
        if k is None:
            raise FieldError(
                f"MersenneReducer requires q = 2**k - 1, got {q}; "
                f"use the split_fold reducer for general moduli"
            )
        super().__init__(q)
        self._k = k
        self._k64 = np.uint64(k)
        self._mask = np.uint64(q)
        # Static fold count: bound tracks the max value after each fold
        # ((x >> k) <= bound >> k, (x & mask) <= q); stop once a single
        # conditional subtract suffices.
        bound = _U64_MAX
        passes = 0
        while bound > 2 * self.q - 1:
            new_bound = (bound >> k) + self.q
            if new_bound >= bound:  # pragma: no cover - k >= 2 contracts
                break
            bound = new_bound
            passes += 1
        self._passes = max(1, passes)
        self.fold_max = (_U64_MAX >> k) + self.q

    def _reduce(self, x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        hi = np.right_shift(x, self._k64)
        if out is None:
            acc = np.bitwise_and(x, self._mask)
        else:
            np.bitwise_and(x, self._mask, out=out)
            acc = out
        acc += hi
        for _ in range(self._passes - 1):
            np.right_shift(acc, self._k64, out=hi)
            acc &= self._mask
            acc += hi
        np.subtract(acc, self._q64, out=hi)
        return np.minimum(acc, hi, out=acc)  # see Reducer._reduce_semi

    def _fold(self, x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        hi = np.right_shift(x, self._k64)
        if out is None:
            acc = np.bitwise_and(x, self._mask)
        else:
            np.bitwise_and(x, self._mask, out=out)
            acc = out
        acc += hi
        return acc

    def fold_bound(self, x_max: int) -> int:
        # fold(x) = (x & mask) + (x >> k) <= min(x_max, q) + (x_max >> k).
        return min(self.fold_max, min(x_max, self.q) + (x_max >> self._k))


class SplitFoldReducer(Reducer):
    """Split-fold lazy accumulation for arbitrary moduli ``q < 2**32``.

    :meth:`fold` uses the split identity
    ``x ≡ (x >> 32) * (2**32 mod q) + (x & 0xffffffff)`` whose output is
    bounded by ``(2**32 - 1) * (2**32 mod q) + 2**32 - 1``; for every
    ``q < 2**32`` that bound leaves room for at least one more raw
    product of residues in uint64 (``fold_max + (q-1)**2 < 2**64``),
    which is what makes lazy accumulation work even for moduli near
    ``2**32``.  Bounded inputs finish with folds plus one conditional
    subtract (:meth:`reduce_bounded`).

    The full-range :meth:`reduce` is the inherited ``np.mod``: a
    Barrett quotient estimate needs the high half of a 64x64 product,
    which numpy can only emulate with four 32-bit limb multiplies, and
    that kernel measured 2x slower than one integer division at every
    size (1.9 ms vs 0.9 ms at 16x16384, 7.6 ms vs 3.2 ms at 1M;
    ``benchmarks/results/field_reduction.json``).
    """

    kind = "split_fold"

    def __init__(self, q: int):
        super().__init__(q)
        c = _WORD % self.q
        self._c = c
        self._c64 = np.uint64(c)
        self.fold_max = (_WORD - 1) * c + (_WORD - 1)
        # fold_max + (q-1)**2 = 2**64 - q*(2**32 - q + 1) - ... < 2**64
        # for all q in [2, 2**32); pin the algebra at construction time.
        assert self.fold_max + (self.q - 1) ** 2 <= _U64_MAX

    def _fold(self, x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        hi = np.right_shift(x, _SHIFT32)
        hi *= self._c64
        if out is None:
            acc = np.bitwise_and(x, _MASK32)
        else:
            np.bitwise_and(x, _MASK32, out=out)
            acc = out
        acc += hi
        return acc

    def fold_bound(self, x_max: int) -> int:
        # fold(x) = (x >> 32) * c + (x & 0xffffffff)
        #        <= (x_max >> 32) * c + min(x_max, 2**32 - 1).
        return min(
            self.fold_max,
            (x_max >> 32) * self._c + min(x_max, _WORD - 1),
        )


_REDUCERS = {
    NumpyModReducer.kind: NumpyModReducer,
    MersenneReducer.kind: MersenneReducer,
    SplitFoldReducer.kind: SplitFoldReducer,
}


def available_reducer_kinds(q: int) -> Tuple[str, ...]:
    """Reducer kinds valid for modulus ``q`` (always includes the oracle)."""
    kinds = []
    if mersenne_exponent(q) is not None:
        kinds.append(MersenneReducer.kind)
    kinds.append(SplitFoldReducer.kind)
    kinds.append(NumpyModReducer.kind)
    return tuple(kinds)


def select_reducer(q: int, kind: Optional[str] = None) -> Reducer:
    """Build the reduction kernel for ``q``.

    ``kind`` is one of ``auto`` / ``mersenne`` / ``split_fold`` /
    ``numpy_mod``; None means ``auto``, which picks Mersenne when the
    modulus has the right shape and split-fold otherwise.  Requesting
    ``mersenne`` for a non-Mersenne modulus raises :class:`FieldError`.
    """
    kind = (kind or "auto").strip().lower()
    if kind == "auto":
        kind = (
            MersenneReducer.kind
            if mersenne_exponent(q) is not None
            else SplitFoldReducer.kind
        )
    try:
        cls = _REDUCERS[kind]
    except KeyError:
        raise FieldError(
            f"unknown reducer {kind!r}; use one of "
            f"{('auto',) + tuple(_REDUCERS)}"
        ) from None
    return cls(q)

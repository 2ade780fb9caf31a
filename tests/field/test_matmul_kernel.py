"""Equivalence suite for the blocked limb-split ``gf.matmul`` kernel.

The kernel walks its right operand in cache-sized blocks, takes a
stacked ``(B, k, n)`` operand and an ``out=`` array, and reads canonical
operands in place.  The whole-width kernel it replaced is kept here as
:func:`reference_matmul_limbsplit`, and every case checks

    blocked kernel  ==  reference kernel  ==  ``numpy_mod`` oracle

bit for bit, over both benchmark moduli and every reducer each admits,
contraction sizes on both sides of the exact-float chunk limit, widths on
both sides of a block edge, and the operand forms a caller can hand in.
No test here reads a clock; the scratch bound is pinned with
``tracemalloc``.
"""

import tracemalloc
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FieldError
from repro.field import DEFAULT_PRIME, FIELD_WORD, PAPER_PRIME, FiniteField
from repro.field.reduce import available_reducer_kinds

CONFIGS = [
    (q, kind)
    for q in (DEFAULT_PRIME, PAPER_PRIME)
    for kind in available_reducer_kinds(q)
]
#: Contraction sizes: the exact-float chunk holds 64 terms at 2**31 - 1
#: and 32 at 2**32 - 5, so 65 / 97 / 130 take two to five chunks.
KS = (1, 5, 44, 64, 65, 97, 130)

_U64_MAX = (1 << 64) - 1
_F64_EXACT = 1 << 53
_SHIFT16 = np.uint64(16)
_MASK16 = np.uint64(0xFFFF)


def reference_matmul_limbsplit(gf: FiniteField, a, b) -> np.ndarray:
    """The whole-width limb-split kernel the blocked one replaced: two
    GEMMs per width block of up to 2**21 elements, ``astype``
    temporaries, out-of-place folds.  Division-free reducers only."""
    red = gf.reducer
    assert red.division_free
    m, k = a.shape
    n = b.shape[1]
    out = np.empty((m, n), dtype=np.uint64)
    qm1 = gf.q - 1
    hi_max = qm1 >> 16
    lo_max = min(qm1, 0xFFFF)
    step = k or 1
    if lo_max:
        step = min(step, _F64_EXACT // (lo_max * qm1))
    if hi_max:
        step = min(step, _F64_EXACT // (hi_max * qm1))
    step = max(1, step)
    a_lo = (a & _MASK16).astype(np.float64)
    a_hi = (a >> _SHIFT16).astype(np.float64) if hi_max else None
    c_lo_max = step * lo_max * qm1
    hi_fold_max = red.fold_bound(step * hi_max * qm1) if hi_max else 0
    hi_fold_ok = (
        hi_max and red.fold_max + (hi_fold_max << 16) + c_lo_max <= _U64_MAX
    )
    hi_red_max = hi_fold_max if hi_fold_ok else qm1
    chunk_max = (hi_red_max << 16) + c_lo_max
    fold_ok = red.fold_max + chunk_max <= _U64_MAX
    if k > step:
        acc_max = (red.fold_max if fold_ok else qm1) + chunk_max
    else:
        acc_max = chunk_max
    width_block = max(1, (1 << 21) // max(m + k, 1))
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
        if acc is None:
            out[:, col : col + w] = 0
        else:
            red.reduce_bounded(acc, acc_max, out=out[:, col : col + w])
    return out


def expected_product(gf: FiniteField, a, b) -> np.ndarray:
    """``a @ b`` (``b`` 2-D or stacked) by the ``numpy_mod`` oracle
    field, cross-checked against the reference kernel where it runs."""
    oracle = FiniteField(gf.q, "numpy_mod")
    entries = b[None] if b.ndim == 2 else b
    want = np.stack([oracle.matmul(a, entry) for entry in entries])
    if gf.reducer.division_free:
        for entry, product in zip(entries, want):
            assert np.array_equal(
                reference_matmul_limbsplit(gf, a, entry), product
            )
    return want[0] if b.ndim == 2 else want


def block_budget(elems: int):
    """Run with the limb-split kernel's block budget set to ``elems``."""
    return mock.patch.object(FiniteField, "MATMUL_F64_BLOCK_ELEMS", elems)


def per_column_elems(gf: FiniteField, m: int, k: int) -> int:
    """Scratch elements one output column costs the kernel: the f64
    operand column, the stacked-limb product and limb-sum columns, and a
    second limb-sum column once the contraction takes several exact-float
    chunks.  ``test_block_count`` pins this to the kernel."""
    qm1 = gf.q - 1
    step = max(1, min(k, _F64_EXACT // (min(qm1, 0xFFFF) * qm1)))
    rows = 2 * m if qm1 >> 16 else m
    return k + 2 * rows + rows * (k > step)


def draw_operand(rng, gf, shape, extreme: bool) -> np.ndarray:
    if extreme:  # worst-case residues: every raw product is (q-1)**2
        return np.full(shape, gf.q - 1, dtype=np.uint64)
    return gf.random(shape, rng)


@st.composite
def products(draw):
    q, kind = draw(st.sampled_from(CONFIGS))
    gf = FiniteField(q, kind)
    m = draw(st.integers(1, 5))
    k = draw(st.sampled_from(KS))
    n = draw(st.integers(1, 24))
    batch = draw(st.none() | st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = draw_operand(rng, gf, (m, k), draw(st.booleans()))
    b_shape = (k, n) if batch is None else (batch, k, n)
    b = draw_operand(rng, gf, b_shape, draw(st.booleans()))
    # Budgets from one column per block up to everything in one block.
    budget = per_column_elems(gf, m, k) * draw(st.integers(1, 6 * n))
    return gf, a, b, budget, draw(st.booleans())


class TestKernelEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(case=products())
    def test_blocked_equals_reference_equals_numpy_mod(self, case):
        gf, a, b, budget, give_out = case
        want = expected_product(gf, a, b)
        out = np.empty(want.shape, dtype=np.uint64) if give_out else None
        with block_budget(budget):
            got = gf.matmul(a, b, out=out)
        if give_out:
            assert got is out
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("q,kind", CONFIGS)
    def test_widths_around_a_block_edge(self, q, kind, k, rng):
        gf = FiniteField(q, kind)
        m, cols = 3, 7
        a = gf.random((m, k), rng)
        for n in (cols - 1, cols, cols + 1, 3 * cols + 2):
            b = gf.random((k, n), rng)
            with block_budget(cols * per_column_elems(gf, m, k)):
                got = gf.matmul(a, b)
            assert np.array_equal(got, expected_product(gf, a, b)), n

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("q,kind", CONFIGS)
    def test_all_qm1_operands(self, q, kind, k):
        gf = FiniteField(q, kind)
        a = np.full((4, k), q - 1, dtype=np.uint64)
        b = np.full((2, k, 9), q - 1, dtype=np.uint64)
        with block_budget(4 * per_column_elems(gf, 4, k)):
            got = gf.matmul(a, b)
        assert np.all(got.astype(object) == (k * (q - 1) ** 2) % q)
        assert np.array_equal(got, expected_product(gf, a, b))

    @pytest.mark.parametrize(
        "q,kind", [c for c in CONFIGS if c[1] != "numpy_mod"]
    )
    def test_contraction_longer_than_one_uint64_span(self, q, kind, rng):
        """Raw limb sums are folded between spans of 2**15 (2**32 - 5)
        or 2**16 (2**31 - 1) terms; two and a bit spans, worst case."""
        gf = FiniteField(q, kind)
        k = 2 * (65_536 if q == DEFAULT_PRIME else 32_768) + 77
        a = np.full((2, k), q - 1, dtype=np.uint64)
        b = np.full((k, 3), q - 1, dtype=np.uint64)
        assert np.all(gf.matmul(a, b).astype(object) == (k * (q - 1) ** 2) % q)
        a, b = gf.random((2, k), rng), gf.random((k, 3), rng)
        want = (a.astype(object) @ b.astype(object)) % q
        assert np.all(gf.matmul(a, b).astype(object) == want)
        assert np.array_equal(reference_matmul_limbsplit(gf, a, b), want)

    @pytest.mark.parametrize(
        "q,kind", [c for c in CONFIGS if c[1] != "numpy_mod"]
    )
    @pytest.mark.parametrize("k", (5, 130))
    def test_block_count(self, q, kind, k, rng):
        """``per_column_elems`` is the kernel's geometry, so the edge
        cases above do sit on block edges: one final reduction per block."""
        gf = FiniteField(q, kind)
        m, cols, n = 3, 7, 3 * 7 + 2
        a, b = gf.random((m, k), rng), gf.random((k, n), rng)
        calls = []
        real = gf.reducer.reduce_bounded
        gf.reducer.reduce_bounded = lambda *args, **kw: (
            calls.append(args[0].shape), real(*args, **kw))[1]
        with block_budget(cols * per_column_elems(gf, m, k)):
            gf.matmul(a, b)
        assert calls == [(m, cols)] * 3 + [(m, 2)]
        # Narrow stack entries ride several to a block.
        del calls[:]
        with block_budget(cols * per_column_elems(gf, m, k)):
            gf.matmul(a, gf.random((5, k, 3), rng))
        assert calls == [(m, 6), (m, 6), (m, 3)]


class TestOperandForms:
    def test_stacked_b_matches_per_entry_products(self, gf_any, rng):
        a = gf_any.random((4, 6), rng)
        b = gf_any.random((5, 6, 11), rng)
        for budget in (1, 40, 200, 1 << 18):  # wide and narrow grouping
            with block_budget(budget):
                got = gf_any.matmul(a, b)
            assert got.shape == (5, 4, 11)
            assert got.flags.c_contiguous
            for entry, product in zip(b, got):
                assert np.array_equal(product, gf_any.matmul(a, entry))

    def test_out_is_filled_and_returned(self, gf_any, rng):
        a = gf_any.random((3, 4), rng)
        b = gf_any.random((2, 4, 5), rng)
        want = gf_any.matmul(a, b)
        out = np.full((2, 3, 5), 7, dtype=np.uint64)
        assert gf_any.matmul(a, b, out=out) is out
        assert np.array_equal(out, want)
        # A strided destination (a column window of a wider array).
        wide = np.zeros((3, 40), dtype=np.uint64)
        gf_any.matmul(a, b[0], out=wide[:, 10:20:2])
        assert np.array_equal(wide[:, 10:20:2], want[0])
        assert not wide[:, :10].any() and not wide[:, 11:20:2].any()

    @pytest.mark.parametrize(
        "out",
        [
            np.empty((3, 6), dtype=np.uint64),
            np.empty((5, 3), dtype=np.uint64),
            np.empty((3, 5), dtype=np.int64),
            np.empty((1, 3, 5), dtype=np.uint64),
            [[0] * 5] * 3,
        ],
    )
    def test_bad_out_rejected(self, gf, out):
        with pytest.raises(FieldError):
            gf.matmul(gf.zeros((3, 4)), gf.zeros((4, 5)), out=out)

    @pytest.mark.parametrize(
        "a_shape,b_shape",
        [((2, 3), (2, 3)), ((2, 3), (4, 2, 3)), ((3,), (3, 2)),
         ((2, 3), (3,)), ((2, 3), (1, 1, 3, 2))],
    )
    def test_shape_errors(self, gf, a_shape, b_shape):
        with pytest.raises(FieldError):
            gf.matmul(gf.zeros(a_shape), gf.zeros(b_shape))

    @pytest.mark.parametrize("q,kind", CONFIGS)
    def test_noncanonical_uint64_is_reduced_on_entry(self, q, kind, rng):
        gf = FiniteField(q, kind)
        a = rng.integers(q, 1 << 64, size=(3, 65), dtype=np.uint64)
        b = rng.integers(q, 1 << 64, size=(2, 65, 9), dtype=np.uint64)
        a[0, 0], b[0, 0, 0] = _U64_MAX, _U64_MAX
        want = expected_product(gf, a % np.uint64(q), b % np.uint64(q))
        with block_budget(4 * per_column_elems(gf, 3, 65)):
            assert np.array_equal(gf.matmul(a, b), want)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.int64])
    def test_narrow_and_signed_dtypes(self, gf_any, rng, dtype):
        info = np.iinfo(dtype)
        lo, hi = max(info.min, -1000), min(info.max, 1000)
        a = rng.integers(lo, hi, size=(3, 5), endpoint=True).astype(dtype)
        b = rng.integers(lo, hi, size=(5, 4), endpoint=True).astype(dtype)
        want = (a.astype(object) @ b.astype(object)) % gf_any.q
        assert np.all(gf_any.matmul(a, b).astype(object) == want)

    def test_float_operands_rejected(self, gf):
        with pytest.raises(FieldError):
            gf.matmul(np.ones((2, 2)), gf.ones((2, 2)))
        with pytest.raises(FieldError):
            gf.matmul(gf.ones((2, 2)), np.ones((2, 2)))

    def test_noncontiguous_operands(self, gf_any, rng):
        a_wide = gf_any.random((7, 12), rng)
        b_wide = gf_any.random((3, 12, 30), rng)
        a = a_wide.T[::2, 1:6]              # (6, 5), both strides odd
        b = b_wide[::2, 2:7, ::3]           # (2, 5, 10)
        want = expected_product(
            gf_any, np.ascontiguousarray(a), np.ascontiguousarray(b)
        )
        with block_budget(60):
            assert np.array_equal(gf_any.matmul(a, b), want)

    def test_canonical_operands_are_not_copied_or_touched(
        self, gf, rng, monkeypatch
    ):
        a, b = gf.random((4, 6), rng), gf.random((3, 6, 50), rng)
        a_before, b_before = a.copy(), b.copy()
        want = gf.matmul(a, b)

        def no_reducing_copy(self, values):
            raise AssertionError("gf.array called on a canonical operand")

        monkeypatch.setattr(FiniteField, "array", no_reducing_copy)
        assert np.array_equal(gf.matmul(a, b), want)
        assert np.array_equal(a, a_before) and np.array_equal(b, b_before)

    def test_empty_dimensions(self, gf_any):
        assert gf_any.matmul(gf_any.zeros((3, 0)), gf_any.zeros((0, 4))).tolist() \
            == [[0] * 4] * 3
        assert gf_any.matmul(gf_any.zeros((0, 2)), gf_any.zeros((2, 4))).shape \
            == (0, 4)
        assert gf_any.matmul(gf_any.zeros((3, 2)), gf_any.zeros((2, 0))).shape \
            == (3, 0)
        assert gf_any.matmul(gf_any.zeros((3, 2)), gf_any.zeros((0, 2, 4))).shape \
            == (0, 3, 4)


class TestFieldWordOut:
    """``out=`` and operands at the pools' ``<u4`` width: the same
    residues as the uint64 product, narrowed block by block, on the
    division-free kernel and the ``numpy_mod`` oracle alike."""

    @pytest.mark.parametrize("q,kind", CONFIGS)
    @pytest.mark.parametrize("extreme", [False, True], ids=["random", "q-1"])
    @pytest.mark.parametrize("b_shape", [(44, 37), (3, 44, 37)], ids=["2d", "stack"])
    def test_word_out_equals_uint64_product(self, q, kind, extreme, b_shape, rng):
        gf = FiniteField(q, kind)
        a = draw_operand(rng, gf, (9, 44), extreme)
        b = draw_operand(rng, gf, b_shape, extreme)
        want = gf.matmul(a, b)
        assert want.dtype == np.uint64
        out = np.full(want.shape, 7, dtype=FIELD_WORD)
        with block_budget(2 * per_column_elems(gf, 9, 44)):
            assert gf.matmul(a, b, out=out) is out
        assert np.array_equal(out, want)
        # <u4 operands are read as they are, into either width of out.
        a4, b4 = a.astype(FIELD_WORD), b.astype(FIELD_WORD)
        assert np.array_equal(gf.matmul(a4, b4), want)
        wide = np.empty(want.shape, dtype=np.uint64)
        assert np.array_equal(gf.matmul(a, b4, out=wide), want)

    @pytest.mark.parametrize("q,kind", CONFIGS)
    @pytest.mark.parametrize("b_shape", [(1, 37), (2, 1, 37)], ids=["2d", "stack"])
    def test_results_at_q_minus_1_fill_the_word(self, q, kind, b_shape):
        gf = FiniteField(q, kind)
        a = gf.ones((3, 1))
        b = np.full(b_shape, q - 1, dtype=np.uint64)
        out = np.zeros(b_shape[:-2] + (3, 37), dtype=FIELD_WORD)
        gf.matmul(a, b, out=out)
        assert (out == q - 1).all()

    @pytest.mark.parametrize("q,kind", CONFIGS)
    def test_oracle_width_blocks_narrow_into_word_out(self, q, kind, rng):
        gf = FiniteField(q, kind)
        a = draw_operand(rng, gf, (5, 7), True)
        b = draw_operand(rng, gf, (2, 7, 23), True)
        out = np.empty((2, 5, 23), dtype=FIELD_WORD)
        with mock.patch.object(FiniteField, "MATMUL_BLOCK_ELEMS", 5 * 4):
            gf.matmul(a, b, out=out)
        assert np.array_equal(out, expected_product(gf, a, b))

    def test_word_operands_are_not_copied(self, gf, rng, monkeypatch):
        a = gf.random((4, 6), rng).astype(FIELD_WORD)
        b = gf.random((3, 6, 50), rng).astype(FIELD_WORD)
        want = gf.matmul(a, b)

        def no_reducing_copy(self, values):
            raise AssertionError("gf.array called on a canonical operand")

        monkeypatch.setattr(FiniteField, "array", no_reducing_copy)
        assert np.array_equal(gf.matmul(a, b), want)

    def test_noncanonical_word_operand_is_reduced(self, gf_paper):
        q = gf_paper.q
        b = np.full((2, 3), 0xFFFFFFFF, dtype=FIELD_WORD)  # q + 4
        a = gf_paper.ones((1, 2))
        got = gf_paper.matmul(a, b)
        assert got.tolist() == [[2 * (0xFFFFFFFF - q) % q] * 3]

    @pytest.mark.parametrize(
        "out",
        [
            np.empty((3, 6), dtype=FIELD_WORD),
            np.empty((1, 3, 5), dtype=FIELD_WORD),
            np.empty((3, 5), dtype=">u4"),
            np.empty((3, 5), dtype=np.int32),
            np.empty((3, 5), dtype=np.uint16),
            np.empty((3, 5), dtype=np.float64),
        ],
        ids=["shape", "rank", "big-endian", "int32", "uint16", "float64"],
    )
    @pytest.mark.parametrize("kind", ["split_fold", "numpy_mod"])
    def test_bad_out_rejected(self, kind, out):
        gf = FiniteField(PAPER_PRIME, kind)
        with pytest.raises(FieldError):
            gf.matmul(gf.zeros((3, 4)), gf.zeros((4, 5)), out=out)


class TestScratchIsBlockBounded:
    """No whole-width temporaries, pinned without a stopwatch."""

    def test_refill_shape_matmul_allocates_output_plus_blocks(self, gf, rng):
        a = gf.random((64, 44), rng)
        b = gf.random((44, 58_368), rng)  # N=64, U=44, d=8192, pool 4
        gf.matmul(a, b[:, :2048])  # imports and BLAS set-up stay untraced
        tracemalloc.start()
        try:
            out = gf.matmul(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + (8 << 20)

    def test_field_keeps_no_scratch(self, gf, rng):
        # One FiniteField is shared by every shard and thread: scratch
        # is per call, there is nowhere on the field to keep it.
        assert FiniteField.__slots__ == ("q", "_q64", "reducer")
        before = dict(vars(gf.reducer))
        gf.matmul(gf.random((3, 70), rng), gf.random((70, 9), rng))
        assert vars(gf.reducer).keys() == before.keys()

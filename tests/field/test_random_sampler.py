"""Equivalence suite for the stream-exact ``FiniteField.random`` sampler.

``gf.random(shape, rng)`` must return exactly what
``rng.integers(0, q, size=shape, dtype=np.uint64)`` returns *and* leave
the bit generator in exactly the state ``integers`` leaves it in — the
raw-word position, the buffered half-word flag ``has_uint32`` and the
``uinteger`` it holds — so every later draw from the Generator is
unchanged too.  Every case runs the same call sequence on two Generators
seeded alike, one through ``gf.random`` and one through ``integers``,
and compares after each call.

Moduli: both benchmark primes, a small prime, and ``2**31 + 11``, whose
rejection threshold ``2**32 % q`` is just under ``q``: about half of all
half-words are rejected, so the sampler's redraw path runs in every
block.  Most cases lower the small-draw cutoff (``RANDOM_MIN_SIZE``) and
shrink the block (``RANDOM_BLOCK_WORDS``), so the sampler itself runs at
tiny sizes and block edges, multi-block draws and the carried half-word
are cheap to reach; a few run at the shipped sizes, on both sides of the
cutoff.  No test reads a clock; the scratch bound is pinned with
``tracemalloc``.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FieldError
from repro.field import DEFAULT_PRIME, FIELD_WORD, PAPER_PRIME, FiniteField

MODULI = (DEFAULT_PRIME, PAPER_PRIME, 97, (1 << 31) + 11)
BIT_GENERATORS = {
    "PCG64": np.random.PCG64,
    "PCG64DXSM": np.random.PCG64DXSM,
    "Philox": np.random.Philox,
    "SFC64": np.random.SFC64,
    "MT19937": np.random.MT19937,  # no buffered half-word: delegated
}
CUTOFF = FiniteField.RANDOM_MIN_SIZE
BLOCK = FiniteField.RANDOM_BLOCK_WORDS
#: Element count of one refill's mask and padding draws on the
#: refill-bound benchmark cohort (N=64, U=44, T=8, d=8192, pool 4, so
#: share_dim 228).
RB_DRAW = 4 * 64 * 8192 + 8 * 4 * 64 * 228


def generators(name, seed):
    make = BIT_GENERATORS[name]
    return np.random.Generator(make(seed)), np.random.Generator(make(seed))


def same(x, y):
    """Deep equality of bit-generator state dicts (some hold arrays)."""
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(same(x[k], y[k]) for k in x)
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    return x == y


def assert_same_state(a, b):
    sa, sb = a.bit_generator.state, b.bit_generator.state
    assert sa.get("has_uint32") == sb.get("has_uint32")
    assert sa.get("uinteger") == sb.get("uinteger")
    assert same(sa, sb)


def assert_same_future(a, b):
    """Same state, and the next raw draws agree."""
    assert_same_state(a, b)
    assert np.array_equal(a.bit_generator.random_raw(3), b.bit_generator.random_raw(3))


def draw_both(gf, shape, a, b):
    got = gf.random(shape, a)
    want = b.integers(0, gf.q, size=shape, dtype=np.uint64)
    assert got.dtype == np.uint64 and got.shape == want.shape
    assert np.array_equal(got, want)
    assert_same_state(a, b)


@st.composite
def shapes(draw, cutoff, block):
    """Sizes around the cutoff and around block edges (one block is
    ``2 * block`` elements), odd and even."""
    edge = 2 * block
    size = draw(
        st.sampled_from([0, 1, 2, 3, cutoff - 1, cutoff, cutoff + 1,
                         edge - 1, edge, edge + 1, 3 * edge + 5])
        | st.integers(0, 4 * edge + 3)
    )
    if draw(st.booleans()):
        return size
    return (draw(st.integers(1, 4)), size)


@st.composite
def call_sequences(draw, cutoff, block):
    """Field draws interleaved with other draws from the same Generator;
    an odd ``integers`` draw leaves a half-word buffered for the next."""
    calls = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["field", "field", "integers", "random"]))
        size = draw(shapes(cutoff, block)) if kind == "field" else draw(st.integers(0, 5))
        calls.append((kind, size))
    return calls


class TestMatchesIntegers:
    @settings(max_examples=200, deadline=None)
    @given(
        q=st.sampled_from(MODULI),
        name=st.sampled_from(sorted(BIT_GENERATORS)),
        seed=st.integers(0, 2**32 - 1),
        cutoff=st.sampled_from([2, 3, 8, 32]),
        block=st.sampled_from([1, 2, 3, 8, 32]),
        data=st.data(),
    )
    def test_interleaved_calls_match_integers(
        self, q, name, seed, cutoff, block, data
    ):
        gf = FiniteField(q)
        a, b = generators(name, seed)
        calls = data.draw(call_sequences(cutoff, block))
        with mock.patch.multiple(
            FiniteField, RANDOM_MIN_SIZE=cutoff, RANDOM_BLOCK_WORDS=block
        ):
            for kind, size in calls:
                if kind == "field":
                    draw_both(gf, size, a, b)
                elif kind == "integers":
                    for g in (a, b):
                        g.integers(0, q, size=size, dtype=np.uint64)
                else:
                    assert np.array_equal(a.random(size), b.random(size))
        assert_same_future(a, b)

    @pytest.mark.parametrize("q", MODULI)
    @pytest.mark.parametrize(
        "shape",
        [None, (), 0, 1, CUTOFF - 1, CUTOFF, CUTOFF + 1, 2 * BLOCK - 1,
         2 * BLOCK, 2 * BLOCK + 1, 6 * BLOCK + 7, (3, 2 * BLOCK + 1)],
        ids=["scalar", "0d", "0", "1", "cutoff-1", "cutoff", "cutoff+1",
             "block-1", "block", "block+1", "multi-block", "2d"],
    )
    @pytest.mark.parametrize("buffered", [False, True])
    def test_shipped_sizes(self, q, shape, buffered):
        gf = FiniteField(q)
        a, b = generators("PCG64", 2024)
        if buffered:  # one 32-bit draw leaves the high half buffered
            for g in (a, b):
                g.integers(0, q, dtype=np.uint64)
            assert a.bit_generator.state["has_uint32"] == 1
        draw_both(gf, shape, a, b)
        draw_both(gf, CUTOFF + 3, a, b)
        assert_same_future(a, b)

    def test_rejections_in_every_block(self):
        """At q = 2**31 + 11 about half the half-words are rejected."""
        gf = FiniteField((1 << 31) + 11)
        assert (1 << 32) % gf.q > gf.q // 2
        a, b = generators("PCG64", 5)
        draw_both(gf, 5 * BLOCK + 1, a, b)
        assert_same_future(a, b)


class TestSamplerPath:
    def test_draws_at_the_cutoff_do_not_call_integers(self):
        """The equality above is not vacuous: a draw of ``RANDOM_MIN_SIZE``
        elements or more reads raw words itself and never calls
        ``integers``."""

        class RawOnly:
            def __init__(self, rng):
                self.bit_generator = rng.bit_generator

            def integers(self, *args, **kwargs):
                raise AssertionError("delegated to integers")

        gf = FiniteField()
        a, b = generators("PCG64", 9)
        got = gf.random(CUTOFF, RawOnly(a))
        assert np.array_equal(got, b.integers(0, gf.q, size=CUTOFF, dtype=np.uint64))
        assert_same_future(a, b)

    def test_default_rng(self):
        out = FiniteField().random((2, CUTOFF))
        assert out.shape == (2, CUTOFF) and out.max() < DEFAULT_PRIME

    def test_refill_draw_scratch_is_its_raw_words(self):
        """Scratch is the raw words (half the output) and nothing that
        grows with the block count; the products that decide rejection
        are computed in one reused block."""
        gf = FiniteField()
        rng = np.random.default_rng(1)
        gf.random(CUTOFF, rng)  # first-call set-up stays untraced
        tracemalloc.start()
        try:
            out = gf.random(RB_DRAW, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + out.nbytes // 2 + (1 << 20)


def draw_words_both(gf, shape, a, b):
    """``gf.random`` into a ``<u4`` ``out`` against ``integers``."""
    out = np.empty(shape, dtype=FIELD_WORD)
    assert gf.random(shape, a, out=out) is out
    want = b.integers(0, gf.q, size=shape, dtype=np.uint64)
    assert out.shape == want.shape
    assert np.array_equal(out, want)
    assert_same_state(a, b)


class TestFieldWordOut:
    """Drawn into a ``<u4`` array, the values and the stream are those of
    the uint64 draw: the pools draw their masks this way."""

    @settings(max_examples=100, deadline=None)
    @given(
        q=st.sampled_from(MODULI),
        name=st.sampled_from(sorted(BIT_GENERATORS)),
        seed=st.integers(0, 2**32 - 1),
        cutoff=st.sampled_from([2, 3, 8, 32]),
        block=st.sampled_from([1, 2, 3, 8, 32]),
        data=st.data(),
    )
    def test_interleaved_word_draws_match_integers(
        self, q, name, seed, cutoff, block, data
    ):
        gf = FiniteField(q)
        a, b = generators(name, seed)
        calls = data.draw(call_sequences(cutoff, block))
        with mock.patch.multiple(
            FiniteField, RANDOM_MIN_SIZE=cutoff, RANDOM_BLOCK_WORDS=block
        ):
            for kind, size in calls:
                if kind == "field":
                    draw_words_both(gf, size, a, b)
                elif kind == "integers":
                    for g in (a, b):
                        g.integers(0, q, size=size, dtype=np.uint64)
                else:
                    assert np.array_equal(a.random(size), b.random(size))
        assert_same_future(a, b)

    @pytest.mark.parametrize("q", MODULI)
    @pytest.mark.parametrize(
        "shape", [(), 1, CUTOFF - 1, CUTOFF, 2 * BLOCK + 1, (3, 6 * BLOCK + 7)]
    )
    @pytest.mark.parametrize("buffered", [False, True])
    def test_shipped_sizes(self, q, shape, buffered):
        gf = FiniteField(q)
        a, b = generators("PCG64", 2025)
        if buffered:
            for g in (a, b):
                g.integers(0, q, dtype=np.uint64)
        draw_words_both(gf, shape, a, b)
        draw_words_both(gf, CUTOFF + 3, a, b)
        assert_same_future(a, b)

    def test_rejections_in_every_block(self):
        gf = FiniteField((1 << 31) + 11)
        a, b = generators("PCG64", 6)
        draw_words_both(gf, 5 * BLOCK + 1, a, b)
        assert_same_future(a, b)

    def test_uint64_out_is_filled_in_place(self):
        gf = FiniteField()
        a, b = generators("PCG64", 7)
        out = np.empty((2, CUTOFF), dtype=np.uint64)
        assert gf.random(out.shape, a, out=out) is out
        assert np.array_equal(out, gf.random(out.shape, b))

    def test_word_draw_scratch_is_its_raw_words(self):
        """Into ``<u4`` the raw words are as many bytes as the output, and
        they are all the scratch beyond one block: no uint64 draw."""
        gf = FiniteField()
        rng = np.random.default_rng(1)
        gf.random(CUTOFF, rng)  # first-call set-up stays untraced
        out = np.empty(RB_DRAW, dtype=FIELD_WORD)
        tracemalloc.start()
        try:
            gf.random(RB_DRAW, rng, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + (1 << 20)

    @pytest.mark.parametrize(
        "out",
        [
            np.empty(CUTOFF + 1, dtype=FIELD_WORD),
            np.empty((2, CUTOFF), dtype=FIELD_WORD).T,
            np.empty(2 * CUTOFF, dtype=FIELD_WORD)[::2],
            np.empty(CUTOFF, dtype=np.int64),
            np.empty(CUTOFF, dtype=">u4"),
            np.empty(CUTOFF, dtype=np.float64),
            [0] * CUTOFF,
        ],
        ids=["shape", "transposed", "strided", "int64", "big-endian",
             "float64", "list"],
    )
    def test_bad_out_rejected(self, out):
        shape = (CUTOFF, 2) if np.ndim(out) == 2 else CUTOFF
        with pytest.raises(FieldError):
            FiniteField().random(shape, np.random.default_rng(0), out=out)

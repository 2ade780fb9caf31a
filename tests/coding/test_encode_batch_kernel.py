"""Equivalence suite for the staged, contiguous ``encode_batch``.

``MaskEncoder.encode_batch`` stages its generator input a chunk of masks
at a time and has ``gf.matmul`` write straight into the contiguous
``(B, N, share_dim)`` array it returns.  The body it replaced — a
zero-padded copy, a transposed ``(U, B * share_dim)`` copy, one 2-D
product and a transposed view back out — is kept here as
:func:`reference_encode_batch`, multiplying through the ``numpy_mod``
oracle field, and every case checks values *and* the rng state after
the call against it.  The offline pool a session precomputes is pinned
byte for byte against the parent commit at the two benchmark geometries.
"""

import hashlib
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.mask_encoding import MaskEncoder
from repro.exceptions import CodingError, FieldError
from repro.field import DEFAULT_PRIME, FIELD_WORD, PAPER_PRIME, FiniteField
from repro.field.reduce import available_reducer_kinds
from repro.protocols.lightsecagg.session import precompute_offline_pool

CONFIGS = [
    (q, kind)
    for q in (DEFAULT_PRIME, PAPER_PRIME)
    for kind in available_reducer_kinds(q)
]


def reference_encode_batch(encoder: MaskEncoder, masks, rng) -> np.ndarray:
    """The whole-batch staging ``encode_batch`` used to do, with the
    generator product taken by the ``numpy_mod`` oracle field."""
    gf = encoder.gf
    masks = gf.array(masks)
    b = masks.shape[0]
    padded = encoder.num_submasks * encoder.share_dim
    if padded != encoder.model_dim:
        wide = np.zeros((b, padded), dtype=masks.dtype)
        wide[:, : encoder.model_dim] = masks
        masks = wide
    width = b * encoder.share_dim
    data = np.empty((encoder.target_survivors, width), dtype=np.uint64)
    sub = masks.reshape(b, encoder.num_submasks, encoder.share_dim)
    data[: encoder.num_submasks] = sub.transpose(1, 0, 2).reshape(
        encoder.num_submasks, width
    )
    if encoder.privacy:
        data[encoder.num_submasks :] = gf.random((encoder.privacy, width), rng)
    generator = encoder.code.generator_matrix.T.copy()  # (N, U)
    coded = FiniteField(gf.q, "numpy_mod").matmul(generator, data)
    return coded.reshape(encoder.num_users, b, encoder.share_dim).transpose(
        1, 0, 2
    )


def staging_budget(elems: int):
    """Run with ``encode_batch`` staging ``elems`` elements per chunk."""
    return mock.patch.object(MaskEncoder, "STAGING_ELEMS", elems)


def assert_same_as_reference(encoder, masks, seed, chunk_masks=None):
    """New == reference, values and rng state, staging ``chunk_masks``
    masks at a time (None: the built-in budget)."""
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    want = reference_encode_batch(encoder, masks, rng_ref)
    row = encoder.target_survivors * encoder.share_dim
    budget = MaskEncoder.STAGING_ELEMS if chunk_masks is None else chunk_masks * row
    with staging_budget(budget):
        got = encoder.encode_batch(masks, rng_new)
    assert np.array_equal(got, want)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return got


@st.composite
def batches(draw):
    q, kind = draw(st.sampled_from(CONFIGS))
    n = draw(st.integers(2, 7))
    u = draw(st.integers(1, n))
    t = draw(st.integers(0, u - 1))
    d = draw(st.integers(1, 40))
    b = draw(st.integers(1, 9))
    chunk = draw(st.integers(1, b + 1))
    generator = draw(st.sampled_from(["lagrange", "vandermonde"]))
    seed = draw(st.integers(0, 2**32 - 1))
    encoder = MaskEncoder(FiniteField(q, kind), n, u, t, d, generator=generator)
    return encoder, b, chunk, seed


class TestEncodeBatchEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(case=batches())
    def test_new_equals_reference_values_and_rng_state(self, case):
        encoder, b, chunk, seed = case
        masks = encoder.gf.random(
            (b, encoder.model_dim), np.random.default_rng(seed + 1)
        )
        assert_same_as_reference(encoder, masks, seed, chunk)

    def test_batch_not_a_multiple_of_the_chunk(self, gf, rng):
        enc = MaskEncoder(gf, 6, target_survivors=4, privacy=2, model_dim=10)
        masks = gf.random((7, 10), rng)
        for chunk in (1, 2, 3, 5, 7, 8):
            assert_same_as_reference(enc, masks, seed=3, chunk_masks=chunk)

    def test_dim_not_divisible_by_submask_count(self, gf_any, rng):
        # 10 into U-T=3 pieces -> padded to 12: a zero tail per mask.
        enc = MaskEncoder(gf_any, 6, target_survivors=5, privacy=2, model_dim=10)
        assert enc.num_submasks * enc.share_dim != enc.model_dim
        masks = gf_any.random((5, 10), rng)
        # Three passes over the reused staging buffer: the tail stays zero.
        got = assert_same_as_reference(enc, masks, seed=4, chunk_masks=2)
        for b in range(5):
            shares = {j: got[b, j] for j in range(1, 6)}
            assert np.array_equal(enc.decode_aggregate(shares), masks[b])

    def test_no_privacy_rows_draws_nothing(self, gf_any, rng):
        enc = MaskEncoder(gf_any, 5, target_survivors=3, privacy=0, model_dim=9)
        draws = np.random.default_rng(8)
        before = draws.bit_generator.state
        got = enc.encode_batch(gf_any.random((4, 9), rng), draws)
        assert draws.bit_generator.state == before
        assert got.shape == (4, 5, 3)
        assert_same_as_reference(enc, gf_any.random((4, 9), rng), seed=8)

    def test_slices_decode_back_to_their_masks(self, gf, rng):
        enc = MaskEncoder(gf, 7, target_survivors=5, privacy=2, model_dim=11)
        masks = gf.random((6, 11), rng)
        with staging_budget(2 * 5 * enc.share_dim):
            coded = enc.encode_batch(masks, rng)
        for b in range(6):
            shares = {j: coded[b, j] for j in (0, 2, 3, 5, 6)}
            assert np.array_equal(enc.decode_aggregate(shares), masks[b])

    def test_result_is_contiguous_and_owns_its_memory(self, gf, rng):
        enc = MaskEncoder(gf, 6, target_survivors=4, privacy=1, model_dim=10)
        masks = gf.random((5, 10), rng)
        coded = enc.encode_batch(masks, rng)
        assert coded.shape == (5, 6, enc.share_dim)
        assert coded.dtype == FIELD_WORD
        assert coded.flags.c_contiguous and coded.flags.owndata
        assert not np.shares_memory(coded, masks)
        # What the pool keeps per round is a contiguous view of it.
        masks3, coded4 = precompute_offline_pool(enc, 2, rng)
        assert masks3[1].flags.c_contiguous and coded4[1].flags.c_contiguous
        assert coded4[1][3].flags.c_contiguous

    @pytest.mark.parametrize("q,kind", CONFIGS)
    def test_noncanonical_and_signed_masks_are_reduced(self, q, kind, rng):
        enc = MaskEncoder(FiniteField(q, kind), 5, 4, 1, 9)
        big = rng.integers(q, 1 << 64, size=(5, 9), dtype=np.uint64)
        big[0, 0] = (1 << 64) - 1
        assert_same_as_reference(enc, big, seed=5, chunk_masks=2)
        signed = rng.integers(-(1 << 40), 1 << 40, size=(5, 9))
        assert_same_as_reference(enc, signed, seed=6, chunk_masks=2)
        narrow = rng.integers(-128, 127, size=(5, 9)).astype(np.int8)
        assert_same_as_reference(enc, narrow, seed=7, chunk_masks=2)
        assert_same_as_reference(enc, big[::2, :], seed=9)  # strided rows

    def test_input_validation_is_unchanged(self, gf, rng):
        enc = MaskEncoder(gf, 5, 4, 1, 9)
        with pytest.raises(CodingError):
            enc.encode_batch(gf.zeros((0, 9)), rng)
        with pytest.raises(CodingError):
            enc.encode_batch(gf.zeros((3, 8)), rng)
        with pytest.raises(CodingError):
            enc.encode_batch(gf.zeros(9), rng)
        with pytest.raises(FieldError):
            enc.encode_batch(np.zeros((3, 9)), rng)


class TestEncodeIntoOut:
    """``out=`` fills a caller's array (a session slab's free slots) with
    exactly what a fresh encode returns, and refuses anything it would
    have to cast, reshape or copy into."""

    def test_encode_batch_fills_out(self, gf, rng):
        enc = MaskEncoder(gf, 6, target_survivors=4, privacy=1, model_dim=10)
        masks = gf.random((5, 10), rng)
        fresh_rng, out_rng = np.random.default_rng(3), np.random.default_rng(3)
        want = enc.encode_batch(masks, fresh_rng)
        slab = np.zeros((7, 6, enc.share_dim), dtype=FIELD_WORD)
        got = enc.encode_batch(masks, out_rng, out=slab[1:6])
        assert np.shares_memory(got, slab) and np.array_equal(got, want)
        assert out_rng.bit_generator.state == fresh_rng.bit_generator.state
        assert not slab[0].any() and not slab[6].any()

    def test_pool_fills_out(self, gf):
        enc = MaskEncoder(gf, 6, target_survivors=4, privacy=1, model_dim=10)
        want = precompute_offline_pool(enc, 2, np.random.default_rng(4))
        out = (
            np.empty((2, 6, 10), dtype=FIELD_WORD),
            np.empty((2, 6, 6, enc.share_dim), dtype=FIELD_WORD),
        )
        got = precompute_offline_pool(enc, 2, np.random.default_rng(4), out=out)
        assert got[0] is out[0] and got[1] is out[1]
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("bad", [
        np.empty((5, 6, 4), dtype=np.uint64),
        np.empty((5, 6, 4), dtype=">u4"),
        np.empty((5, 6, 4), dtype=np.int32),
        np.empty((4, 6, 4), dtype=FIELD_WORD),
        np.empty((5, 6, 8), dtype=FIELD_WORD)[:, :, ::2],
        np.empty((5, 24), dtype=FIELD_WORD),
        [[[0] * 4] * 6] * 5,
    ], ids=["uint64", "big-endian", "int32", "shape", "strided", "rank", "list"])
    def test_bad_out_is_refused(self, gf, rng, bad):
        enc = MaskEncoder(gf, 6, target_survivors=4, privacy=1, model_dim=10)
        assert enc.share_dim == 4
        masks = gf.random((5, 10), rng)
        with pytest.raises(CodingError, match="coded out"):
            enc.encode_batch(masks, rng, out=bad)
        good_masks = np.empty((5, 6, 10), dtype=FIELD_WORD)
        with pytest.raises(CodingError, match="masks out"):
            precompute_offline_pool(enc, 5, rng, out=(bad, bad))
        with pytest.raises(CodingError, match="coded out"):
            precompute_offline_pool(enc, 5, rng, out=(good_masks, bad))


class TestMDSEncodeForms:
    def test_generator_is_laid_out_once(self, gf, rng):
        enc = MaskEncoder(gf, 6, 4, 1, 10)
        operand = enc.code._encode_matrix
        assert operand.flags.c_contiguous and operand.shape == (6, 4)
        assert np.array_equal(operand, enc.code.generator_matrix.T)
        enc.code.encode(gf.random((4, 3), rng))
        assert enc.code._encode_matrix is operand

    @pytest.mark.parametrize("generator", ["lagrange", "vandermonde"])
    def test_stacked_scalar_and_out_forms_agree(self, gf_any, rng, generator):
        enc = MaskEncoder(gf_any, 6, 4, 1, 10, generator=generator)
        data = gf_any.random((3, 4, 5), rng)
        stacked = enc.code.encode(data)
        assert stacked.shape == (3, 6, 5)
        for block, coded in zip(data, stacked):
            assert np.array_equal(enc.code.encode(block), coded)
            assert np.array_equal(enc.code.encode(block[:, 0]), coded[:, 0])
        out = np.empty((6, 5), dtype=np.uint64)
        assert enc.code.encode(data[1], out=out) is out
        assert np.array_equal(out, stacked[1])
        column = np.empty(6, dtype=np.uint64)
        enc.code.encode(data[1][:, 2], out=column)
        assert np.array_equal(column, stacked[1][:, 2])

    def test_wrong_row_count_rejected(self, gf):
        enc = MaskEncoder(gf, 6, 4, 1, 10)
        for shape in ((3, 5), (3,), (2, 3, 5), ()):
            with pytest.raises(CodingError):
                enc.code.encode(np.zeros(shape, dtype=np.uint64))


#: sha256 over (masks, coded, the next four rng draws) of
#: ``precompute_offline_pool`` on the parent commit (dcb3fae), default
#: field: the refill-bound benchmark cohort and one facade-inline shard.
GEOMETRIES = {
    "rb": dict(num_users=64, target_survivors=44, privacy=8, model_dim=8192, pool=4),
    "fi": dict(num_users=16, target_survivors=11, privacy=2, model_dim=16384, pool=8),
}
PARENT_POOL_SHA256 = {
    ("rb", 1): "909d41cc0eeac1bc44ba4565400c9523fee42c186cbcd171b8577edf6b552078",
    ("rb", 2): "090f2816ccf3487f5f1556f841767bfda65cc433f861c94b92081e84b3786d2f",
    ("rb", 3): "6b834312bb251297fc9587acd941119d74dabbaeac959d35dc77d44c633fee33",
    ("fi", 1): "146eae9e21e19bb5599845ecf06eaf336e25771c1289e62ad5c9561419a5531d",
    ("fi", 2): "4bc8e1ce83b82c3174580b09b0c2a2ced5aea4f8d1b0fec4f7229972924abf28",
    ("fi", 3): "94ca2d3189809fb05abc1c8b68bc98a33d094fa7d761e827fc13166980b44fd3",
}


class TestOfflinePoolPinnedAgainstParent:
    @pytest.mark.parametrize("geometry,seed", sorted(PARENT_POOL_SHA256))
    def test_masks_coded_and_rng_stream_are_bit_identical(
        self, gf, geometry, seed
    ):
        shape = dict(GEOMETRIES[geometry])
        pool = shape.pop("pool")
        encoder = MaskEncoder(gf, **shape)
        rng = np.random.default_rng(seed)
        masks, coded = precompute_offline_pool(encoder, pool, rng)
        n = encoder.num_users
        assert masks.shape == (pool, n, encoder.model_dim)
        assert coded.shape == (pool, n, n, encoder.share_dim)
        assert masks.dtype == coded.dtype == FIELD_WORD
        digest = hashlib.sha256()
        # The parent pooled uint64 words: widened, the <u4 pool must
        # hash to its digests, so values and rng stream are unchanged.
        for part in (masks, coded, rng.integers(0, 1 << 63, size=4)):
            assert part.flags.c_contiguous
            digest.update(part.astype(np.uint64).tobytes())
        assert digest.hexdigest() == PARENT_POOL_SHA256[geometry, seed]


class TestSharedFieldThreadSafety:
    def test_concurrent_encoders_and_matmul_give_serial_results(self, gf):
        """Two threads on one encoder and a third on the field they
        share: scratch is per call, so nothing bleeds between them."""
        enc = MaskEncoder(gf, 12, target_survivors=8, privacy=3, model_dim=700)
        seeds = (11, 12)
        masks = [
            gf.random((9, 700), np.random.default_rng(s + 100)) for s in seeds
        ]
        a = gf.random((12, 70), np.random.default_rng(1))
        b = gf.random((4, 70, 300), np.random.default_rng(2))
        rounds = 12
        with staging_budget(2 * 8 * enc.share_dim):
            want_coded = [
                [enc.encode_batch(m, rng) for _ in range(rounds)]
                for m, rng in zip(masks, map(np.random.default_rng, seeds))
            ]
        want_product = gf.matmul(a, b)
        errors, got_coded = [], [[], []]

        def encode(slot):
            rng = np.random.default_rng(seeds[slot])
            try:
                for _ in range(rounds):
                    got_coded[slot].append(enc.encode_batch(masks[slot], rng))
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        def multiply():
            try:
                for _ in range(4 * rounds):
                    assert np.array_equal(gf.matmul(a, b), want_product)
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=encode, args=(0,)),
            threading.Thread(target=encode, args=(1,)),
            threading.Thread(target=multiply),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # Many kernel blocks per call, so threads interleave inside one.
            small_blocks = mock.patch.object(
                FiniteField, "MATMUL_F64_BLOCK_ELEMS", 1 << 12
            )
            with staging_budget(2 * 8 * enc.share_dim), small_blocks:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for slot in (0, 1):
            assert len(got_coded[slot]) == rounds
            for got, want in zip(got_coded[slot], want_coded[slot]):
                assert np.array_equal(got, want)


"""Offline accounting and memory of a long-lived pooled session.

A daemon's session refills for as long as the daemon lives, so what one
refill leaves behind must not grow with the number of refills: the
share-exchange traffic is a running element total in closed form
(``rounds * share_dim * N * (N - 1)`` per refill, both hops for the
encrypted relay), not a list of per-pair messages, and a refill's peak
allocation is its material plus block-sized scratch — or, into a warm
slab, the scratch alone.
"""

import tracemalloc

import numpy as np

from repro.field import FIELD_WORD
from repro.protocols import EncryptedLightSecAgg, LightSecAgg, LSAParams

N, DIM, POOL, REFILLS = 10, 23, 3, 50


def one_shot_offline(gf, proto, key_sized):
    rng = np.random.default_rng(9)
    updates = {i: gf.random(DIM, rng) for i in range(N)}
    transcript = proto.run_round(updates, {1}, rng).transcript
    return transcript.elements(phase="offline", key_sized=key_sized)


def refill_many(session):
    """``REFILLS`` full refills; the transcript length after the first."""
    length_after_one = None
    for _ in range(REFILLS):
        assert session.refill() == POOL
        if length_after_one is None:
            length_after_one = len(session.offline_transcript)
        session._pool.clear()
    return length_after_one


class TestOfflineAccountingIsConstantSpace:
    def test_fifty_refills_retain_what_one_did(self, gf):
        params = LSAParams.from_guarantees(N, privacy=2, dropout_tolerance=3)
        proto = LightSecAgg(gf, params, DIM)
        session = proto.session(pool_size=POOL, rng=np.random.default_rng(0))
        assert refill_many(session) == len(session.offline_transcript) == 0
        per_round = one_shot_offline(gf, proto, key_sized=None)
        assert per_round == N * (N - 1) * session.encoder.share_dim
        assert session.offline_elements() == REFILLS * per_round * POOL

    def test_encrypted_keeps_key_agreement_once_and_both_hops(self, gf):
        params = LSAParams.from_guarantees(N, privacy=2, dropout_tolerance=3)
        proto = EncryptedLightSecAgg(gf, params, DIM)
        session = proto.session(pool_size=POOL, rng=np.random.default_rng(0))
        keys = one_shot_offline(gf, proto, key_sized=True)
        shares = one_shot_offline(gf, proto, key_sized=False)
        assert keys == N + N * (N - 1)  # one key up, N-1 keys down, per user
        assert shares == 2 * N * (N - 1) * session.encoder.share_dim
        assert session.offline_elements() == keys  # paid at open, once
        assert refill_many(session) == len(session.offline_transcript) == 2 * N
        assert session.offline_elements() == keys + REFILLS * shares * POOL

    def test_partial_refill_accounts_its_rounds_only(self, gf):
        params = LSAParams.from_guarantees(N, privacy=2, dropout_tolerance=3)
        proto = LightSecAgg(gf, params, DIM)
        session = proto.session(pool_size=POOL, rng=np.random.default_rng(0))
        assert session.refill(2) == 2
        per_round = N * (N - 1) * session.encoder.share_dim
        assert session.offline_elements() == 2 * per_round
        assert session.refill() == 1
        assert session.offline_elements() == 3 * per_round


class TestRefillPeakMemory:
    def test_refill_peaks_below_one_and_a_half_times_its_material(self, gf):
        """The refill-bound benchmark cohort (N=64, T=D=8, d=8192, pool
        4): no whole-batch staging copy, no whole-width temporaries, and
        no whole-batch uint64 copy of the <u4 material.  The whole-width
        kernel peaked at 4.1x."""
        params = LSAParams.from_guarantees(64, privacy=8, dropout_tolerance=8)
        proto = LightSecAgg(gf, params, 8192)
        session = proto.session(pool_size=4, rng=np.random.default_rng(1))
        session.refill(1)  # imports and BLAS set-up stay untraced
        session._pool.clear()
        tracemalloc.start()
        try:
            assert session.refill() == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        material = sum(m.masks.nbytes + m.coded.nbytes for m in session._pool)
        word = FIELD_WORD.itemsize  # the pool holds <u4 words
        assert material == 4 * 64 * word * (8192 + 64 * session.encoder.share_dim)
        assert peak <= 1.5 * material
        session.close()

    def test_warm_slab_refill_peaks_below_its_masks_plus_a_mebibyte(self, gf):
        """The same cohort refilling into the slab its first refill
        allocated: no material is allocated, and what is left is the
        mask sampler's raw words (as many bytes as the <u4 masks) plus
        one 512 KiB block."""
        params = LSAParams.from_guarantees(64, privacy=8, dropout_tolerance=8)
        proto = LightSecAgg(gf, params, 8192)
        session = proto.session(pool_size=4, rng=np.random.default_rng(1))
        session.refill()
        session._pool.clear()  # every slot free, the slab kept
        tracemalloc.start()
        try:
            assert session.refill() == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        masks = sum(m.masks.nbytes for m in session._pool)
        assert masks == 4 * 64 * 8192 * FIELD_WORD.itemsize
        assert peak <= masks + (1 << 20)
        session.close()

    def test_encrypted_warm_refill_allocates_no_coded_sized_array(self, gf):
        """The relay writes each opened pair back into its slots: at a
        geometry whose coded shares are five times its masks, the warm
        refill peaks below one coded array (a whole-batch copy of the
        delivered shares would peak above it)."""
        params = LSAParams.from_guarantees(20, privacy=2, dropout_tolerance=14)
        proto = EncryptedLightSecAgg(gf, params, 20000)
        session = proto.session(pool_size=2, rng=np.random.default_rng(1))
        session.refill()
        session._pool.clear()
        tracemalloc.start()
        try:
            assert session.refill() == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        coded = sum(m.coded.nbytes for m in session._pool)
        masks = sum(m.masks.nbytes for m in session._pool)
        assert coded == 5 * masks
        assert peak < coded
        session.close()

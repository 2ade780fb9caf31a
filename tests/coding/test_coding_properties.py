"""Property-based tests of the coding layer (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.mask_encoding import MaskEncoder
from repro.coding.mds import MDSCode
from repro.coding.partition import partition, piece_length, unpartition
from repro.coding.shamir import ShamirSecretSharing
from repro.field import FiniteField

GF = FiniteField()


@st.composite
def nk_params(draw):
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k, k + 6))
    return n, k


@st.composite
def lsa_params(draw):
    t = draw(st.integers(0, 3))
    u = draw(st.integers(t + 1, t + 4))
    n = draw(st.integers(u, u + 4))
    d = draw(st.integers(1, 40))
    return n, u, t, d


@given(nk_params(), st.integers(1, 8), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_mds_round_trip_random_subsets(params, width, pyrandom):
    n, k = params
    rng = np.random.default_rng(pyrandom.randint(0, 2**31))
    code = MDSCode(GF, n=n, k=k)
    data = GF.random((k, width), rng)
    coded = code.encode(data)
    subset = sorted(pyrandom.sample(range(n), k))
    out = code.decode({j: coded[j] for j in subset})
    assert np.array_equal(out, data)


@given(lsa_params(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_mask_encoder_aggregate_recovery(params, pyrandom):
    n, u, t, d = params
    rng = np.random.default_rng(pyrandom.randint(0, 2**31))
    enc = MaskEncoder(GF, n, u, t, d)
    num_survivors = pyrandom.randint(u, n)
    survivors = sorted(pyrandom.sample(range(n), num_survivors))
    masks = {i: enc.generate_mask(rng) for i in survivors}
    shares = {i: enc.encode(masks[i], rng) for i in survivors}
    responders = sorted(pyrandom.sample(survivors, u))
    agg = {
        j: enc.aggregate_shares({i: shares[i][j] for i in survivors})
        for j in responders
    }
    expected = GF.zeros(d)
    for i in survivors:
        expected = GF.add(expected, masks[i])
    assert np.array_equal(enc.decode_aggregate(agg), expected)


@given(
    st.integers(0, 4),
    st.integers(0, 2**31 - 2),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_shamir_round_trip(threshold, secret, pyrandom):
    n = threshold + 1 + pyrandom.randint(0, 3)
    rng = np.random.default_rng(pyrandom.randint(0, 2**31))
    sss = ShamirSecretSharing(GF, num_shares=n, threshold=threshold)
    shares = sss.share(secret, rng)
    chosen = pyrandom.sample(sorted(shares), threshold + 1)
    assert int(sss.reconstruct([shares[x] for x in chosen])[0]) == secret


@given(st.integers(0, 200), st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_partition_round_trip(d, pieces):
    if d == 0:
        return
    vec = np.arange(d, dtype=np.uint64)
    parts = partition(vec, pieces)
    assert parts.shape == (pieces, piece_length(d, pieces))
    assert np.array_equal(unpartition(parts, d), vec)


@given(lsa_params(), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_mask_encoding_linearity(params, pyrandom):
    """share-sum of encodings == encoding of mask-sum (with zero padding)."""
    n, u, t, d = params
    rng = np.random.default_rng(pyrandom.randint(0, 2**31))
    enc = MaskEncoder(GF, n, u, t, d)
    z1, z2 = enc.generate_mask(rng), enc.generate_mask(rng)
    s1 = enc.encode(z1, rng)
    s2 = enc.encode(z2, rng)
    summed_shares = GF.add(s1, s2)
    # Decoding the summed shares recovers z1 + z2.
    agg = {j: summed_shares[j] for j in range(u)}
    assert np.array_equal(enc.decode_aggregate(agg), GF.add(z1, z2))

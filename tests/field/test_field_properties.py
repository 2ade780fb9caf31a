"""Property-based tests of the field axioms (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field import DEFAULT_PRIME, PAPER_PRIME, FiniteField

FIELDS = [FiniteField(DEFAULT_PRIME), FiniteField(PAPER_PRIME), FiniteField(97)]

field_st = st.sampled_from(FIELDS)
elem_st = st.integers(min_value=0, max_value=2**40)
vec_st = st.lists(elem_st, min_size=1, max_size=16)


@given(field_st, vec_st, vec_st)
@settings(max_examples=60, deadline=None)
def test_addition_commutes(gf, xs, ys):
    n = min(len(xs), len(ys))
    a, b = gf.array(xs[:n]), gf.array(ys[:n])
    assert np.array_equal(gf.add(a, b), gf.add(b, a))


@given(field_st, vec_st, vec_st, vec_st)
@settings(max_examples=60, deadline=None)
def test_addition_associates(gf, xs, ys, zs):
    n = min(len(xs), len(ys), len(zs))
    a, b, c = gf.array(xs[:n]), gf.array(ys[:n]), gf.array(zs[:n])
    assert np.array_equal(gf.add(gf.add(a, b), c), gf.add(a, gf.add(b, c)))


@given(field_st, vec_st)
@settings(max_examples=60, deadline=None)
def test_additive_inverse(gf, xs):
    a = gf.array(xs)
    assert np.all(gf.add(a, gf.sub(gf.zeros(a.shape), a)) == 0)


@given(field_st, vec_st)
@settings(max_examples=60, deadline=None)
def test_sub_then_add_round_trips(gf, xs):
    a = gf.array(xs)
    b = gf.array(list(reversed(xs)))
    assert np.array_equal(gf.add(gf.sub(a, b), b), a)


@given(field_st, vec_st, vec_st)
@settings(max_examples=60, deadline=None)
def test_multiplication_commutes(gf, xs, ys):
    n = min(len(xs), len(ys))
    a, b = gf.array(xs[:n]), gf.array(ys[:n])
    assert np.array_equal(gf.mul(a, b), gf.mul(b, a))


@given(field_st, vec_st, vec_st, vec_st)
@settings(max_examples=60, deadline=None)
def test_distributivity(gf, xs, ys, zs):
    n = min(len(xs), len(ys), len(zs))
    a, b, c = gf.array(xs[:n]), gf.array(ys[:n]), gf.array(zs[:n])
    lhs = gf.mul(a, gf.add(b, c))
    rhs = gf.add(gf.mul(a, b), gf.mul(a, c))
    assert np.array_equal(lhs, rhs)


@given(field_st, vec_st)
@settings(max_examples=60, deadline=None)
def test_multiplicative_inverse(gf, xs):
    a = gf.array(xs)
    nz = a[a != 0]
    if nz.size:
        assert np.all(gf.mul(nz, gf.inv(nz)) == 1)


@given(field_st, st.integers(0, 2**40), st.integers(0, 50))
@settings(max_examples=60, deadline=None)
def test_pow_matches_python_pow(gf, base, exp):
    out = gf.pow(gf.array([base]), exp)
    assert int(out[0]) == pow(base % gf.q, exp, gf.q)


@given(field_st, vec_st)
@settings(max_examples=60, deadline=None)
def test_signed_embedding_round_trip(gf, xs):
    half = (gf.q - 1) // 2
    signed = np.asarray([x % (2 * half + 1) - half for x in xs], dtype=np.int64)
    assert np.array_equal(gf.to_signed(gf.array(signed)), signed)

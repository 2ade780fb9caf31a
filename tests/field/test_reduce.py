"""Property suite for the division-free reduction kernels.

Every reducer is checked against the ``np.mod`` integer-division oracle
over adversarial uint64 inputs — full-range random words, ``(q-1)**2``
boundary products, empty arrays, non-contiguous views — for moduli
covering the Mersenne default, small primes, and primes just below
``2**32`` (where lazy batching historically degraded to one division
per rank-1 term).  A second group pins the cross-reducer bit-identity
contract on the composite kernels (matmul, encode_batch) and the
single-pass negative-exponent ``pow``.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.mask_encoding import MaskEncoder
from repro.exceptions import FieldError
from repro.field import (
    DEFAULT_PRIME,
    PAPER_PRIME,
    FiniteField,
    MersenneReducer,
    NumpyModReducer,
    SplitFoldReducer,
    available_reducer_kinds,
    mersenne_exponent,
    select_reducer,
)

# Mersenne default, small primes (incl. small Mersennes 127 = 2**7-1 and
# 8191 = 2**13-1), and two primes just below 2**32.
MODULI = [DEFAULT_PRIME, 3, 97, 127, 8191, 65537, 4294967279, PAPER_PRIME]

U64_MAX = (1 << 64) - 1


def reducers_for(q):
    return [select_reducer(q, kind) for kind in available_reducer_kinds(q)]


def oracle(x, q):
    return np.mod(np.asarray(x, dtype=np.uint64), np.uint64(q))


# ---------------------------------------------------------------------------
# reduce() vs the oracle
# ---------------------------------------------------------------------------
class TestReduceVsOracle:
    @pytest.mark.parametrize("q", MODULI)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_uint64_inputs(self, q, data):
        words = data.draw(
            st.lists(st.integers(0, U64_MAX), min_size=0, max_size=64)
        )
        x = np.asarray(words, dtype=np.uint64)
        want = oracle(x, q)
        for red in reducers_for(q):
            got = red.reduce(x)
            assert np.array_equal(got, want), red.kind

    @pytest.mark.parametrize("q", MODULI)
    def test_boundary_values(self, q):
        boundary = [
            0, 1, q - 1, q, q + 1, 2 * q - 1, 2 * q,
            (q - 1) ** 2,            # max raw product of residues
            (q - 1) ** 2 + q - 1,    # product plus a residue
            (U64_MAX // max(1, (q - 1) ** 2)) * (q - 1) ** 2,  # max lazy batch
            U64_MAX - 1, U64_MAX,
        ]
        x = np.asarray(boundary, dtype=np.uint64)
        want = oracle(x, q)
        for red in reducers_for(q):
            assert np.array_equal(red.reduce(x), want), red.kind

    @pytest.mark.parametrize("q", MODULI)
    def test_empty_and_noncontiguous(self, q):
        rng = np.random.default_rng(7)
        base = rng.integers(0, U64_MAX, size=101, dtype=np.uint64)
        views = [
            np.empty(0, dtype=np.uint64),
            base[::2],
            base[::-1],
            base[:100].reshape(10, 10).T,
            base[:96].reshape(4, 4, 6)[:, 1:3, ::2],
        ]
        for x in views:
            want = oracle(x, q)
            for red in reducers_for(q):
                got = red.reduce(x)
                assert got.shape == want.shape
                assert np.array_equal(got, want), red.kind

    @pytest.mark.parametrize("q", MODULI)
    def test_scalar_inputs_match_np_mod(self, q):
        for value in (0, q - 1, q, (q - 1) ** 2, U64_MAX):
            want = np.mod(np.uint64(value), np.uint64(q))
            for red in reducers_for(q):
                got = red.reduce(np.uint64(value))
                assert got == want, red.kind

    @pytest.mark.parametrize("q", MODULI)
    def test_reduce_does_not_mutate_input(self, q):
        rng = np.random.default_rng(3)
        x = rng.integers(0, U64_MAX, size=64, dtype=np.uint64)
        keep = x.copy()
        for red in reducers_for(q):
            red.reduce(x)
            assert np.array_equal(x, keep), red.kind

    @pytest.mark.parametrize("q", MODULI)
    def test_reduce_out_aliasing_input(self, q):
        rng = np.random.default_rng(4)
        for red in reducers_for(q):
            x = rng.integers(0, U64_MAX, size=64, dtype=np.uint64)
            want = oracle(x, q)
            got = red.reduce(x, out=x)
            assert np.array_equal(got, want), red.kind
            assert np.array_equal(x, want), red.kind


# ---------------------------------------------------------------------------
# fold() / reduce_semi() contracts
# ---------------------------------------------------------------------------
class TestPartialReduction:
    @pytest.mark.parametrize("q", MODULI)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_fold_is_congruent_and_bounded(self, q, data):
        words = data.draw(
            st.lists(st.integers(0, U64_MAX), min_size=1, max_size=32)
        )
        x = np.asarray(words, dtype=np.uint64)
        for red in reducers_for(q):
            folded = red.fold(x)
            assert np.all(folded <= np.uint64(red.fold_max)), red.kind
            assert np.array_equal(oracle(folded, q), oracle(x, q)), red.kind

    @pytest.mark.parametrize("q", MODULI)
    def test_fold_leaves_room_for_a_product(self, q):
        # The lazy-accumulation invariant: after a fold, at least one
        # more raw product of residues fits without uint64 overflow.
        for red in reducers_for(q):
            assert red.fold_max + (q - 1) ** 2 <= U64_MAX, red.kind

    @pytest.mark.parametrize("q", MODULI)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_fold_bound_is_sound(self, q, data):
        # fold_bound(x_max) must dominate fold(x) for every x <= x_max;
        # the limb-split matmul relies on this to prove overflow safety.
        x_max = data.draw(st.integers(0, U64_MAX))
        words = data.draw(
            st.lists(st.integers(0, x_max), min_size=1, max_size=32)
        )
        x = np.asarray(words, dtype=np.uint64)
        for red in reducers_for(q):
            bound = red.fold_bound(x_max)
            assert bound <= red.fold_max, red.kind
            assert np.all(red.fold(x) <= np.uint64(bound)), red.kind

    @pytest.mark.parametrize("q", MODULI)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_reduce_bounded_matches_oracle(self, q, data):
        # reduce_bounded must be a full reduction for any declared bound
        # covering its inputs, whichever fold/semi chain it picks.
        x_max = data.draw(st.integers(0, U64_MAX))
        words = data.draw(
            st.lists(st.integers(0, x_max), min_size=0, max_size=32)
        )
        x = np.asarray(words, dtype=np.uint64)
        want = oracle(x, q)
        for red in reducers_for(q):
            assert np.array_equal(red.reduce_bounded(x, x_max), want), red.kind
            out = np.empty_like(x)
            red.reduce_bounded(x, x_max, out=out)
            assert np.array_equal(out, want), red.kind

    @pytest.mark.parametrize("q", MODULI)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_reduce_semi_below_2q(self, q, data):
        words = data.draw(
            st.lists(st.integers(0, 2 * q - 1), min_size=0, max_size=32)
        )
        x = np.asarray(words, dtype=np.uint64)
        want = oracle(x, q)
        for red in reducers_for(q):
            assert np.array_equal(red.reduce_semi(x), want), red.kind


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------
class TestSelection:
    def test_auto_picks_mersenne_for_mersenne_primes(self):
        assert isinstance(select_reducer(DEFAULT_PRIME), MersenneReducer)
        assert isinstance(select_reducer(8191), MersenneReducer)

    def test_auto_picks_split_fold_otherwise(self):
        assert isinstance(select_reducer(PAPER_PRIME), SplitFoldReducer)
        assert isinstance(select_reducer(97), SplitFoldReducer)

    def test_mersenne_exponent(self):
        assert mersenne_exponent(DEFAULT_PRIME) == 31
        assert mersenne_exponent(127) == 7
        assert mersenne_exponent(97) is None

    def test_explicit_kind_wins(self):
        assert isinstance(
            select_reducer(DEFAULT_PRIME, "numpy_mod"), NumpyModReducer
        )
        assert isinstance(
            select_reducer(DEFAULT_PRIME, "split_fold"), SplitFoldReducer
        )

    def test_mersenne_on_general_modulus_raises(self):
        with pytest.raises(FieldError, match="2\\*\\*k - 1"):
            select_reducer(97, "mersenne")

    def test_unknown_kind_raises(self):
        with pytest.raises(FieldError, match="unknown reducer"):
            select_reducer(97, "montgomery")

    def test_repr_names_kernel(self):
        assert "mersenne" in repr(FiniteField())
        assert "split_fold" in repr(FiniteField(PAPER_PRIME))

    def test_available_kinds(self):
        assert available_reducer_kinds(DEFAULT_PRIME) == (
            "mersenne", "split_fold", "numpy_mod",
        )
        assert available_reducer_kinds(PAPER_PRIME) == (
            "split_fold", "numpy_mod",
        )


# ---------------------------------------------------------------------------
# cross-reducer bit-identity of the composite kernels
# ---------------------------------------------------------------------------
class TestBitIdentityAcrossReducers:
    @pytest.mark.parametrize("q", [DEFAULT_PRIME, 97, 65537, PAPER_PRIME])
    def test_matmul_byte_equal(self, q):
        rng = np.random.default_rng(11)
        fields = [FiniteField(q, reducer=k) for k in available_reducer_kinds(q)]
        a = fields[0].random((9, 21), rng)
        b = fields[0].random((21, 333), rng)
        results = [gf.matmul(a, b) for gf in fields]
        baseline = results[-1]  # numpy_mod oracle is always last
        for gf, got in zip(fields, results):
            assert got.tobytes() == baseline.tobytes(), gf.reducer.kind

    @pytest.mark.parametrize("q", [DEFAULT_PRIME, PAPER_PRIME])
    def test_matmul_worst_case_residues(self, q):
        # All-(q-1) operands maximize every raw product and every lazy
        # accumulator along both kernels' fold/batch boundaries.
        for k in (1, 2, 5, 33, 48, 97):
            a = np.full((3, k), q - 1, dtype=np.uint64)
            b = np.full((k, 4), q - 1, dtype=np.uint64)
            expected = (k * (q - 1) ** 2) % q
            for kind in available_reducer_kinds(q):
                gf = FiniteField(q, reducer=kind)
                out = gf.matmul(a, b)
                assert np.all(out.astype(object) == expected), (kind, k)

    @pytest.mark.parametrize("q", [DEFAULT_PRIME, PAPER_PRIME])
    def test_encode_batch_byte_equal(self, q):
        results = {}
        for kind in available_reducer_kinds(q):
            gf = FiniteField(q, reducer=kind)
            enc = MaskEncoder(
                gf, num_users=8, target_survivors=6, privacy=2, model_dim=100
            )
            masks = gf.random((5, 100), np.random.default_rng(23))
            coded = enc.encode_batch(masks, np.random.default_rng(29))
            results[kind] = coded
        baseline = results["numpy_mod"]
        for kind, coded in results.items():
            assert coded.tobytes() == baseline.tobytes(), kind

    def test_near_2exp32_runs_batched_lazy_path(self):
        # The acceptance case: a modulus near 2**32 must take the
        # division-free batched path (fold-based accumulation), not the
        # per-term-division branch, and still match the oracle exactly.
        gf = FiniteField(PAPER_PRIME)
        assert gf.reducer.division_free
        assert gf.reducer.fold_max + (gf.q - 1) ** 2 <= U64_MAX
        rng = np.random.default_rng(5)
        a = gf.random((16, 48), rng)
        b = gf.random((48, 2048), rng)
        oracle_gf = FiniteField(PAPER_PRIME, reducer="numpy_mod")
        assert np.array_equal(gf.matmul(a, b), oracle_gf.matmul(a, b))


# ---------------------------------------------------------------------------
# pow negative-exponent regression (single-pass exponent mapping)
# ---------------------------------------------------------------------------
class TestPowNegativeExponent:
    @pytest.mark.parametrize("q", [DEFAULT_PRIME, 97, PAPER_PRIME])
    def test_pow_negative_matches_inv_of_pow(self, q):
        gf = FiniteField(q)
        rng = np.random.default_rng(13)
        a = gf.array(rng.integers(1, q, 32))
        for e in (1, 2, 3, 7, 31, q - 2, q - 1, q, 2 * q + 5):
            assert np.array_equal(gf.pow(a, -e), gf.inv(gf.pow(a, e))), e

    def test_pow_negative_zero_base_raises(self):
        gf = FiniteField()
        with pytest.raises(FieldError, match="inverse"):
            gf.pow([0, 1], -3)

    def test_pow_exponent_multiple_of_group_order(self):
        # a**-(q-1) == a**(q-1) == 1 for every nonzero a (Fermat).
        gf = FiniteField(97)
        a = gf.array(np.arange(1, 97))
        assert np.all(gf.pow(a, -(gf.q - 1)) == 1)
        assert np.all(gf.pow(a, gf.q - 1) == 1)

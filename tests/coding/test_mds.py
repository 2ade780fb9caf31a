"""Tests for the (n, k) MDS erasure code."""

from itertools import combinations

import numpy as np
import pytest

from repro.coding.mds import COEFF_MEMO_SIZE, MDSCode
from repro.exceptions import CodingError, NotEnoughSharesError
from repro.field.linalg import is_mds
from repro.field.vandermonde import lagrange_coeffs


@pytest.fixture(params=["lagrange", "vandermonde"])
def generator(request):
    return request.param


class TestConstruction:
    def test_invalid_params(self, gf):
        with pytest.raises(CodingError):
            MDSCode(gf, n=3, k=4)
        with pytest.raises(CodingError):
            MDSCode(gf, n=3, k=0)

    def test_unknown_generator(self, gf):
        with pytest.raises(CodingError, match="generator"):
            MDSCode(gf, n=4, k=2, generator="fourier")

    def test_field_too_small(self, gf_small):
        with pytest.raises(CodingError, match="too small"):
            MDSCode(gf_small, n=90, k=20)

    def test_generator_matrix_is_mds(self, gf, generator):
        code = MDSCode(gf, n=7, k=3, generator=generator)
        assert is_mds(gf, code.generator_matrix)

    def test_repr(self, gf):
        assert "MDSCode" in repr(MDSCode(gf, 4, 2))


class TestRoundTrip:
    def test_all_k_subsets_decode(self, gf, generator, rng):
        n, k, width = 6, 3, 4
        code = MDSCode(gf, n=n, k=k, generator=generator)
        data = gf.random((k, width), rng)
        coded = code.encode(data)
        for subset in combinations(range(n), k):
            shares = {j: coded[j] for j in subset}
            assert np.array_equal(code.decode(shares), data), subset

    def test_scalar_symbols(self, gf, generator, rng):
        code = MDSCode(gf, n=5, k=2, generator=generator)
        data = gf.random(2, rng)
        coded = code.encode(data)
        assert coded.shape == (5,)
        out = code.decode({1: coded[1], 3: coded[3]})
        assert np.array_equal(out, data)

    def test_extra_shares_ignored(self, gf, generator, rng):
        code = MDSCode(gf, n=6, k=3, generator=generator)
        data = gf.random((3, 2), rng)
        coded = code.encode(data)
        shares = {j: coded[j] for j in range(6)}
        assert np.array_equal(code.decode(shares), data)

    def test_decode_then_reencode_reproduces_every_symbol(
        self, gf, generator, rng
    ):
        code = MDSCode(gf, n=6, k=3, generator=generator)
        coded = code.encode(gf.random((3, 2), rng))
        data = code.decode({j: coded[j] for j in (0, 2, 5)})
        assert np.array_equal(code.encode(data), coded)

    def test_paper_prime_field(self, gf_paper, generator, rng):
        code = MDSCode(gf_paper, n=8, k=5, generator=generator)
        data = gf_paper.random((5, 3), rng)
        coded = code.encode(data)
        shares = {j: coded[j] for j in (0, 2, 4, 6, 7)}
        assert np.array_equal(code.decode(shares), data)

    def test_linearity(self, gf, generator, rng):
        """encode(a) + encode(b) == encode(a + b) — the LightSecAgg core."""
        code = MDSCode(gf, n=6, k=3, generator=generator)
        a = gf.random((3, 4), rng)
        b = gf.random((3, 4), rng)
        lhs = gf.add(code.encode(a), code.encode(b))
        rhs = code.encode(gf.add(a, b))
        assert np.array_equal(lhs, rhs)


class TestErrors:
    def test_not_enough_shares(self, gf, rng):
        code = MDSCode(gf, n=5, k=3)
        data = gf.random((3, 2), rng)
        coded = code.encode(data)
        with pytest.raises(NotEnoughSharesError):
            code.decode({0: coded[0], 1: coded[1]})

    def test_wrong_data_rows(self, gf, rng):
        code = MDSCode(gf, n=5, k=3)
        with pytest.raises(CodingError):
            code.encode(gf.random((4, 2), rng))

    def test_share_index_out_of_range(self, gf, rng):
        code = MDSCode(gf, n=5, k=2)
        coded = code.encode(gf.random((2, 2), rng))
        with pytest.raises(CodingError, match="out of range"):
            code.decode({0: coded[0], 9: coded[1]})

    def test_inconsistent_share_shapes(self, gf, rng):
        code = MDSCode(gf, n=5, k=2)
        with pytest.raises(CodingError, match="inconsistent"):
            code.decode({0: gf.zeros(3), 1: gf.zeros(4)})


class TestDecodeCoefficientMemo:
    """``decode`` remembers its interpolation matrix per responder set."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_memo_equals_fresh_coeffs_for_every_responder_set(self, gf_any, n):
        k = max(1, (7 * n) // 10)
        code = MDSCode(gf_any, n=n, k=k)
        for indices in combinations(range(n), k):
            fresh = lagrange_coeffs(
                gf_any, code.alpha[list(indices)], code.beta
            )
            first = code._decode_coeffs(indices)
            assert np.array_equal(first, fresh), indices
            # A hit hands every caller the one stored, read-only matrix.
            again = code._decode_coeffs(indices)
            assert again is first and not again.flags.writeable

    def test_decode_through_the_memo_recovers_data(self, gf, rng):
        code = MDSCode(gf, n=8, k=5)
        data = gf.random((5, 3), rng)
        coded = code.encode(data)
        for _ in range(2):  # second sweep is served from the memo
            for indices in combinations(range(8), 5):
                shares = {j: coded[j] for j in indices}
                assert np.array_equal(code.decode(shares), data), indices

    def test_memo_is_bounded_and_keeps_the_recent(self, gf):
        code = MDSCode(gf, n=8, k=4)
        sets = list(combinations(range(8), 4))
        assert len(sets) > 2 * COEFF_MEMO_SIZE
        for indices in sets:
            code._decode_coeffs(indices)
            code._decode_coeffs(sets[0])  # touched every time: never oldest
            assert len(code._coeff_memo) <= COEFF_MEMO_SIZE
        assert len(code._coeff_memo) == COEFF_MEMO_SIZE
        assert sets[0] in code._coeff_memo and sets[-1] in code._coeff_memo
        assert sets[1] not in code._coeff_memo

    def test_memo_is_per_code(self, gf):
        """A new code (what a re-key builds) starts with nothing cached."""
        a, b = MDSCode(gf, n=6, k=3), MDSCode(gf, n=6, k=3)
        a._decode_coeffs((0, 1, 2))
        assert len(a._coeff_memo) == 1 and not b._coeff_memo

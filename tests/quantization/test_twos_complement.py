"""Tests for the two's-complement field embedding (paper eqs. 31/36)."""

import numpy as np
import pytest

from repro.exceptions import QuantizationError
from repro.quantization.twos_complement import from_field, to_field


class TestRoundTrip:
    def test_positive_negative_zero(self, gf_any):
        half = (gf_any.q - 1) // 2
        values = np.asarray([0, 1, -1, half, -half, 42, -42], dtype=np.int64)
        assert np.array_equal(from_field(gf_any, to_field(gf_any, values)), values)

    def test_negative_mapping(self, gf):
        out = to_field(gf, np.asarray([-3], dtype=np.int64))
        assert int(out[0]) == gf.q - 3

    def test_overflow_rejected(self, gf):
        half = (gf.q - 1) // 2
        with pytest.raises(QuantizationError, match="wrap-around"):
            to_field(gf, np.asarray([half + 1], dtype=np.int64))
        with pytest.raises(QuantizationError, match="wrap-around"):
            to_field(gf, np.asarray([-(half + 1)], dtype=np.int64))

    def test_floats_rejected(self, gf):
        with pytest.raises(QuantizationError, match="integers"):
            to_field(gf, np.asarray([1.5]))

    def test_empty(self, gf):
        out = to_field(gf, np.asarray([], dtype=np.int64))
        assert out.shape == (0,)


class TestFieldAdditionIsSignedAddition:
    def test_sum_of_signed_values(self, gf, rng):
        """Field-adding embedded values == integer addition while in range."""
        a = rng.integers(-1000, 1000, size=100)
        b = rng.integers(-1000, 1000, size=100)
        fa, fb = to_field(gf, a), to_field(gf, b)
        summed = gf.add(fa, fb)
        assert np.array_equal(from_field(gf, summed), a + b)

    def test_many_term_sum(self, gf, rng):
        terms = [rng.integers(-500, 500, size=20) for _ in range(50)]
        acc = gf.zeros(20)
        for t in terms:
            acc = gf.add(acc, to_field(gf, t))
        assert np.array_equal(from_field(gf, acc), sum(terms))

    def test_sum_up_to_half_the_field_is_exact(self, gf):
        """n values of magnitude m sum exactly while n * m <= (q - 1) / 2
        (the "field large enough" assumption, Sec. F.3.2)."""
        m = 10_000
        n = ((gf.q - 1) // 2) // m
        embedded = to_field(gf, np.asarray([m, -m], dtype=np.int64))
        total = gf.mul(embedded, n)
        assert from_field(gf, total).tolist() == [n * m, -n * m]

    def test_sum_past_half_the_field_wraps(self, gf):
        m = 10_000
        n = ((gf.q - 1) // 2) // m + 1
        embedded = to_field(gf, np.asarray([m], dtype=np.int64))
        total = gf.mul(embedded, n)
        assert int(from_field(gf, total)[0]) == n * m - gf.q

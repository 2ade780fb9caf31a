"""Tests for staleness functions and their field quantization (eq. 34)."""

import numpy as np
import pytest

from repro.asyncfl.staleness import (
    QuantizedStaleness,
    constant_staleness,
    hinge_staleness,
    polynomial_staleness,
)
from repro.exceptions import ReproError


class TestFunctions:
    def test_constant(self):
        assert constant_staleness(0) == 1.0
        assert constant_staleness(100) == 1.0
        with pytest.raises(ReproError):
            constant_staleness(-1)

    def test_polynomial(self):
        fn = polynomial_staleness(1.0)
        assert fn(0) == 1.0
        assert fn(1) == pytest.approx(0.5)
        assert fn(9) == pytest.approx(0.1)

    def test_polynomial_alpha_zero_is_constant(self):
        fn = polynomial_staleness(0.0)
        assert fn(7) == 1.0

    def test_polynomial_monotone_decreasing(self):
        fn = polynomial_staleness(0.5)
        values = [fn(t) for t in range(10)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_polynomial_validation(self):
        with pytest.raises(ReproError):
            polynomial_staleness(-1.0)
        fn = polynomial_staleness(1.0)
        with pytest.raises(ReproError):
            fn(-1)

    def test_hinge(self):
        fn = hinge_staleness(a=10.0, b=4.0)
        assert fn(0) == 1.0
        assert fn(4) == 1.0
        assert fn(5) == pytest.approx(1.0 / 11.0)
        with pytest.raises(ReproError):
            hinge_staleness(a=0)

    def test_s_zero_is_one(self):
        """The paper requires s(0) = 1 for every staleness function."""
        for fn in (
            constant_staleness,
            polynomial_staleness(1.0),
            polynomial_staleness(2.0),
            hinge_staleness(),
        ):
            assert fn(0) == 1.0


class TestQuantizedStaleness:
    def test_constant_weight_is_levels(self, rng):
        qs = QuantizedStaleness(levels=64)
        assert qs.weight(5, rng) == 64  # s == 1 -> c_g * 1

    def test_weight_unbiased(self):
        qs = QuantizedStaleness(levels=4, fn=polynomial_staleness(1.0))
        rng = np.random.default_rng(0)
        # s(1) = 0.5 -> c_g * 0.5 = 2 exactly on the grid.
        assert qs.weight(1, rng) == 2
        # s(2) = 1/3 -> weight in {1, 2} with mean 4/3.
        samples = [qs.weight(2, rng) for _ in range(4000)]
        assert set(samples) <= {1, 2}
        assert np.mean(samples) == pytest.approx(4 / 3, abs=0.05)

    def test_real_weight_round_trip(self, rng):
        qs = QuantizedStaleness(levels=64, fn=polynomial_staleness(1.0))
        w = qs.weight(3, rng)
        assert abs(w / qs.levels - 0.25) <= 1 / 64

    def test_paper_cg(self):
        """The paper uses c_g = 2^6 (Sec. F.5)."""
        assert QuantizedStaleness().levels == 64

    def test_validation(self):
        with pytest.raises(ReproError):
            QuantizedStaleness(levels=0)

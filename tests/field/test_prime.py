"""Tests for prime utilities."""

import pytest

from repro.exceptions import FieldError
from repro.field.prime import (
    DEFAULT_PRIME,
    MAX_UINT64_SAFE_MODULUS,
    PAPER_PRIME,
    is_prime,
    validate_modulus,
)


class TestIsPrime:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 65537):
            assert is_prime(p)

    def test_small_composites(self):
        for n in (0, 1, 4, 6, 9, 15, 91, 65536):
            assert not is_prime(n)

    def test_default_prime_is_mersenne_31(self):
        assert DEFAULT_PRIME == 2**31 - 1
        assert is_prime(DEFAULT_PRIME)

    def test_paper_prime(self):
        assert PAPER_PRIME == 2**32 - 5
        assert is_prime(PAPER_PRIME)

    def test_carmichael_numbers_rejected(self):
        # Fermat pseudoprimes that fool naive tests.
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_prime(n)

    def test_large_semiprime_rejected(self):
        assert not is_prime(DEFAULT_PRIME * 3)

    def test_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert [n for n in range(2000) if is_prime(n)] == [
            n for n in range(2000) if trial(n)
        ]

    def test_negative(self):
        assert not is_prime(-7)


class TestValidateModulus:
    def test_accepts_valid(self):
        assert validate_modulus(97) == 97
        assert validate_modulus(DEFAULT_PRIME) == DEFAULT_PRIME
        assert validate_modulus(PAPER_PRIME) == PAPER_PRIME

    def test_rejects_composite(self):
        with pytest.raises(FieldError, match="not prime"):
            validate_modulus(100)

    def test_rejects_too_large(self):
        with pytest.raises(FieldError, match="too large"):
            validate_modulus(MAX_UINT64_SAFE_MODULUS + 15)  # next prime

    def test_rejects_non_int(self):
        with pytest.raises(FieldError, match="int"):
            validate_modulus(97.0)

    def test_largest_safe_modulus_is_paper_prime(self):
        # No prime exists in (2^32 - 5, 2^32).
        assert is_prime(PAPER_PRIME)
        assert not any(
            is_prime(n) for n in range(PAPER_PRIME + 1, MAX_UINT64_SAFE_MODULUS)
        )

"""Tests for Diffie-Hellman key agreement."""

import numpy as np
import pytest

from repro.crypto.dh import (
    RFC3526_GENERATOR,
    RFC3526_PRIME_2048,
    SIMULATION_PRIME,
    DiffieHellman,
    KeyPair,
)
from repro.exceptions import ProtocolError
from repro.field.prime import is_prime


class TestGroup:
    def test_simulation_prime_is_prime(self):
        assert is_prime(SIMULATION_PRIME)

    def test_invalid_modulus(self):
        with pytest.raises(ProtocolError):
            DiffieHellman(prime=1)


class TestKeyAgreement:
    def test_symmetry(self, rng):
        dh = DiffieHellman()
        k1 = dh.generate_keypair(rng)
        k2 = dh.generate_keypair(rng)
        assert dh.agree(k1.secret, k2.public) == dh.agree(k2.secret, k1.public)

    def test_distinct_pairs_distinct_seeds(self, rng):
        dh = DiffieHellman()
        keys = [dh.generate_keypair(rng) for _ in range(4)]
        seeds = {
            dh.agree(keys[i].secret, keys[j].public)
            for i in range(4)
            for j in range(4)
            if i < j
        }
        assert len(seeds) == 6

    def test_seed_is_256_bit_int(self, rng):
        dh = DiffieHellman()
        k1 = dh.generate_keypair(rng)
        k2 = dh.generate_keypair(rng)
        seed = dh.agree(k1.secret, k2.public)
        assert 0 <= seed < 2**256

    def test_public_key_is_generator_power(self, rng):
        dh = DiffieHellman()
        k = dh.generate_keypair(rng)
        assert 2 <= k.secret <= dh.prime - 2
        assert k.public == pow(dh.generator, k.secret, dh.prime)

    def test_public_key_validation(self, rng):
        dh = DiffieHellman()
        k = dh.generate_keypair(rng)
        with pytest.raises(ProtocolError):
            dh.agree(k.secret, 0)
        with pytest.raises(ProtocolError):
            dh.agree(k.secret, dh.prime - 1)

    def test_rfc3526_group_agrees(self, rng):
        """The full-size production group also works (slower)."""
        dh = DiffieHellman(prime=RFC3526_PRIME_2048, generator=RFC3526_GENERATOR)
        k1 = dh.generate_keypair(rng)
        k2 = dh.generate_keypair(rng)
        assert dh.agree(k1.secret, k2.public) == dh.agree(k2.secret, k1.public)

    def test_deterministic_with_seeded_rng(self):
        dh = DiffieHellman()
        k1 = dh.generate_keypair(np.random.default_rng(0))
        k2 = dh.generate_keypair(np.random.default_rng(0))
        assert k1 == KeyPair(k2.secret, k2.public)

"""Cryptographic substrate: seeded PRGs and Diffie-Hellman key agreement."""

from repro.crypto.channels import SealedMessage, SecureChannel
from repro.crypto.dh import (
    RFC3526_GENERATOR,
    RFC3526_PRIME_2048,
    SIMULATION_GENERATOR,
    SIMULATION_PRIME,
    DiffieHellman,
    KeyPair,
)
from repro.crypto.prg import BACKENDS, PRG, seed_from_bytes

__all__ = [
    "SecureChannel",
    "SealedMessage",
    "PRG",
    "BACKENDS",
    "seed_from_bytes",
    "DiffieHellman",
    "KeyPair",
    "SIMULATION_PRIME",
    "SIMULATION_GENERATOR",
    "RFC3526_PRIME_2048",
    "RFC3526_GENERATOR",
]

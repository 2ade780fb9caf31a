"""Tests for the secure pairwise channels (paper footnote 3)."""

import numpy as np
import pytest

from repro.crypto.channels import SealedMessage, SecureChannel
from repro.crypto.dh import DiffieHellman
from repro.exceptions import ProtocolError


@pytest.fixture
def pair(gf):
    """The two directed channels between users 0 and 1."""
    return (
        SecureChannel(gf, 123456789, sender=0, receiver=1),
        SecureChannel(gf, 123456789, sender=1, receiver=0),
    )


class TestRoundTrip:
    def test_seal_open(self, gf, rng, pair):
        tx, _ = pair
        rx = SecureChannel(gf, 123456789, sender=0, receiver=1)
        payload = gf.random(64, rng)
        msg = tx.seal(payload)
        assert np.array_equal(rx.open(msg), payload)

    def test_both_directions_independent(self, gf, rng, pair):
        a_to_b, b_to_a = pair
        p1, p2 = gf.random(16, rng), gf.random(16, rng)
        m1, m2 = a_to_b.seal(p1), b_to_a.seal(p2)
        # Same key, opposite directions: ciphertexts use distinct streams.
        assert not np.array_equal(m1.ciphertext, m2.ciphertext)

    def test_empty_payload(self, gf, pair):
        tx, _ = pair
        rx = SecureChannel(gf, 123456789, 0, 1)
        msg = tx.seal(gf.zeros(0))
        assert rx.open(msg).shape == (0,)

    def test_dh_bootstrapped_key(self, gf, rng):
        """End-to-end: agree a key via DH, then run the channel."""
        dh = DiffieHellman()
        k1, k2 = dh.generate_keypair(rng), dh.generate_keypair(rng)
        key_a = dh.agree(k1.secret, k2.public)
        key_b = dh.agree(k2.secret, k1.public)
        tx = SecureChannel(gf, key_a, sender=0, receiver=1)
        rx = SecureChannel(gf, key_b, sender=0, receiver=1)
        payload = gf.random(32, rng)
        assert np.array_equal(rx.open(tx.seal(payload)), payload)


class TestAuthentication:
    def test_tampered_ciphertext_rejected(self, gf, rng, pair):
        tx, _ = pair
        rx = SecureChannel(gf, 123456789, 0, 1)
        msg = tx.seal(gf.random(8, rng))
        bad_ct = msg.ciphertext.copy()
        bad_ct[0] = (bad_ct[0] + np.uint64(1)) % np.uint64(gf.q)
        forged = SealedMessage(msg.sender, msg.receiver, msg.nonce, bad_ct,
                               msg.tag)
        with pytest.raises(ProtocolError, match="tag"):
            rx.open(forged)

    def test_tampered_tag_rejected(self, gf, rng, pair):
        tx, _ = pair
        rx = SecureChannel(gf, 123456789, 0, 1)
        msg = tx.seal(gf.random(8, rng))
        forged = SealedMessage(msg.sender, msg.receiver, msg.nonce,
                               msg.ciphertext, b"\x00" * 32)
        with pytest.raises(ProtocolError):
            rx.open(forged)

    def test_replayed_nonce_metadata_rejected(self, gf, rng, pair):
        tx, _ = pair
        rx = SecureChannel(gf, 123456789, 0, 1)
        msg = tx.seal(gf.random(8, rng))
        wrong_nonce = SealedMessage(msg.sender, msg.receiver, msg.nonce + 1,
                                    msg.ciphertext, msg.tag)
        with pytest.raises(ProtocolError):
            rx.open(wrong_nonce)

    def test_wrong_channel_rejected(self, gf, rng, pair):
        tx, _ = pair
        other = SecureChannel(gf, 123456789, sender=0, receiver=2)
        msg = tx.seal(gf.random(8, rng))
        with pytest.raises(ProtocolError, match="different channel"):
            other.open(msg)

    def test_wrong_key_rejected(self, gf, rng, pair):
        tx, _ = pair
        eavesdropper = SecureChannel(gf, 987654321, sender=0, receiver=1)
        msg = tx.seal(gf.random(8, rng))
        with pytest.raises(ProtocolError):
            eavesdropper.open(msg)


class TestConfidentiality:
    def test_nonce_reuse_prevented(self, gf, rng, pair):
        tx, _ = pair
        tx.seal(gf.random(4, rng), nonce=5)
        with pytest.raises(ProtocolError, match="nonce"):
            tx.seal(gf.random(4, rng), nonce=5)

    def test_ciphertext_looks_uniform(self, gf):
        """The relay (server) sees uniform field elements regardless of the
        plaintext — the property footnote 3 relies on."""
        from repro.field import FiniteField

        gf97 = FiniteField(97)
        tx = SecureChannel(gf97, shared_key=42, sender=0, receiver=1)
        fixed = gf97.zeros(20_000)  # worst case: all-zero plaintext
        ct = tx.seal(fixed).ciphertext
        counts = np.bincount(ct.astype(np.int64), minlength=97)
        expected = ct.size / 97
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 160, chi2

    def test_same_plaintext_fresh_ciphertexts(self, gf, rng, pair):
        tx, _ = pair
        payload = gf.random(16, rng)
        m1, m2 = tx.seal(payload), tx.seal(payload)
        assert not np.array_equal(m1.ciphertext, m2.ciphertext)

"""Tests for Shamir secret sharing."""

from itertools import combinations

import numpy as np
import pytest

from repro.coding.shamir import ShamirSecretSharing, ShamirShare
from repro.exceptions import CodingError, NotEnoughSharesError


class TestConstruction:
    def test_threshold_bounds(self, gf):
        with pytest.raises(CodingError):
            ShamirSecretSharing(gf, num_shares=3, threshold=3)
        with pytest.raises(CodingError):
            ShamirSecretSharing(gf, num_shares=3, threshold=-1)

    def test_field_size_bound(self, gf_small):
        with pytest.raises(CodingError):
            ShamirSecretSharing(gf_small, num_shares=97, threshold=2)


class TestReconstruct:
    def test_scalar_round_trip(self, gf, rng):
        sss = ShamirSecretSharing(gf, num_shares=5, threshold=2)
        shares = sss.share(42, rng)
        assert len(shares) == 5
        subset = [shares[1], shares[3], shares[5]]
        assert int(sss.reconstruct(subset)[0]) == 42

    def test_all_minimal_subsets(self, gf, rng):
        sss = ShamirSecretSharing(gf, num_shares=6, threshold=2)
        secret = 123456
        shares = sss.share(secret, rng)
        for xs in combinations(range(1, 7), 3):
            subset = [shares[x] for x in xs]
            assert int(sss.reconstruct(subset)[0]) == secret

    def test_vector_secret(self, gf, rng):
        sss = ShamirSecretSharing(gf, num_shares=4, threshold=1)
        secret = gf.random(10, rng)
        shares = sss.share(secret, rng)
        out = sss.reconstruct([shares[2], shares[4]])
        assert np.array_equal(out, secret)

    def test_extra_shares_ignored(self, gf, rng):
        sss = ShamirSecretSharing(gf, num_shares=5, threshold=2)
        shares = sss.share(7, rng)
        assert int(sss.reconstruct(list(shares.values()))[0]) == 7

    def test_not_enough_shares(self, gf, rng):
        sss = ShamirSecretSharing(gf, num_shares=5, threshold=3)
        shares = sss.share(7, rng)
        with pytest.raises(NotEnoughSharesError):
            sss.reconstruct([shares[1], shares[2], shares[3]])

    def test_duplicate_shares_not_counted(self, gf, rng):
        sss = ShamirSecretSharing(gf, num_shares=5, threshold=2)
        shares = sss.share(7, rng)
        with pytest.raises(NotEnoughSharesError):
            sss.reconstruct([shares[1], shares[1], shares[1]])

    def test_zero_threshold_is_replication(self, gf, rng):
        """t=0 means any single share reveals the secret (degree-0 poly)."""
        sss = ShamirSecretSharing(gf, num_shares=3, threshold=0)
        shares = sss.share(99, rng)
        for s in shares.values():
            assert int(sss.reconstruct([s])[0]) == 99


class TestPrivacy:
    def test_t_shares_uniform(self, gf_small):
        """With threshold t, any t shares of a fixed secret are uniform."""
        sss = ShamirSecretSharing(gf_small, num_shares=3, threshold=1)
        rng = np.random.default_rng(0)
        values = [int(sss.share(11, rng)[2].y[0]) for _ in range(4000)]
        counts = np.bincount(values, minlength=97)
        expected = len(values) / 97
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 160, chi2

    def test_different_secrets_same_share_marginal(self, gf_small):
        """Share distributions should not depend on the secret."""
        sss = ShamirSecretSharing(gf_small, num_shares=3, threshold=1)
        rng = np.random.default_rng(1)
        means = []
        for secret in (0, 48, 96):
            vals = [int(sss.share(secret, rng)[1].y[0]) for _ in range(2000)]
            means.append(np.mean(vals))
        # All marginals uniform -> means all near 48 (= (q-1)/2).
        assert max(means) - min(means) < 5.0


class TestShareDataclass:
    def test_share_fields(self, gf, rng):
        sss = ShamirSecretSharing(gf, num_shares=2, threshold=1)
        shares = sss.share(5, rng)
        s = shares[1]
        assert isinstance(s, ShamirShare)
        assert s.x == 1
        assert s.y.shape == (1,)

"""Tests for the seeded PRG backends."""

import numpy as np
import pytest

from repro.crypto.prg import BACKENDS, PRG, seed_from_bytes
from repro.exceptions import FieldError
from repro.field import FiniteField


@pytest.fixture(params=list(BACKENDS))
def prg(request, gf):
    return PRG(gf, backend=request.param)


class TestDeterminism:
    def test_same_seed_same_output(self, prg):
        assert np.array_equal(prg.expand(7, 256), prg.expand(7, 256))

    def test_different_seeds_differ(self, prg):
        assert not np.array_equal(prg.expand(7, 256), prg.expand(8, 256))

    def test_cross_instance_determinism(self, gf):
        for backend in BACKENDS:
            a = PRG(gf, backend=backend).expand(99, 64)
            b = PRG(gf, backend=backend).expand(99, 64)
            assert np.array_equal(a, b)

    def test_sha256_prefix_property(self, gf):
        prg = PRG(gf, backend="sha256")
        long = prg.expand(5, 200)
        short = prg.expand(5, 50)
        assert np.array_equal(long[:50], short)


class TestPcg64Stream:
    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 3, 2**255 + 12345])
    @pytest.mark.parametrize(
        "length", [0, 1, 1001, FiniteField.RANDOM_MIN_SIZE, 200_001]
    )
    def test_equals_pcg64_integers(self, gf, seed, length):
        """The pcg64 backend's vectors (and so SecAgg's pairwise masks)
        are exactly ``Generator(PCG64(seed)).integers(0, q)``."""
        rng = np.random.Generator(np.random.PCG64(seed))
        expected = rng.integers(0, gf.q, size=length, dtype=np.uint64)
        assert np.array_equal(PRG(gf).expand(seed, length), expected)


class TestOutputRange:
    def test_values_in_field(self, prg):
        out = prg.expand(3, 10_000)
        assert out.dtype == np.uint64
        assert out.max() < prg.gf.q

    def test_zero_length(self, prg):
        assert prg.expand(3, 0).shape == (0,)

    def test_negative_length_rejected(self, prg):
        with pytest.raises(FieldError):
            prg.expand(3, -1)

    def test_large_seed_accepted(self, prg):
        huge = 2**255 + 12345
        assert np.array_equal(prg.expand(huge, 16), prg.expand(huge, 16))

    def test_negative_seed_normalized(self, prg):
        assert prg.expand(-5, 16).shape == (16,)


class TestUniformity:
    def test_mean_near_half(self, prg):
        out = prg.expand(11, 50_000).astype(np.float64)
        assert abs(out.mean() / prg.gf.q - 0.5) < 0.01

    def test_small_field_chi_square(self, gf_small):
        for backend in BACKENDS:
            prg = PRG(gf_small, backend=backend)
            out = prg.expand(13, 20_000)
            counts = np.bincount(out.astype(np.int64), minlength=97)
            expected = out.size / 97
            chi2 = float(((counts - expected) ** 2 / expected).sum())
            assert chi2 < 160, (backend, chi2)


class TestMisc:
    def test_unknown_backend(self, gf):
        with pytest.raises(FieldError):
            PRG(gf, backend="chacha")

    def test_seed_from_bytes_stable(self):
        assert seed_from_bytes(b"abc") == seed_from_bytes(b"abc")
        assert seed_from_bytes(b"abc") != seed_from_bytes(b"abd")

    def test_repr(self, gf):
        assert "pcg64" in repr(PRG(gf))

    def test_backends_differ(self, gf):
        """Backends are distinct streams; protocols must fix one."""
        a = PRG(gf, backend="pcg64").expand(1, 32)
        b = PRG(gf, backend="sha256").expand(1, 32)
        assert not np.array_equal(a, b)

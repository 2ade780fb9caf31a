"""Tests for vectorized GF(q) arithmetic."""

import numpy as np
import pytest

from repro.exceptions import FieldError
from repro.field import FiniteField


class TestConstruction:
    def test_array_reduces(self, gf_any):
        arr = gf_any.array([0, 1, gf_any.q, gf_any.q + 5])
        assert arr.tolist() == [0, 1, 0, 5]
        assert arr.dtype == np.uint64

    def test_array_negative_values(self, gf_any):
        arr = gf_any.array([-1, -2])
        assert arr.tolist() == [gf_any.q - 1, gf_any.q - 2]

    @pytest.mark.parametrize("dtype", [
        np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64,
    ])
    def test_array_accepts_narrow_integer_dtypes(self, gf_any, dtype):
        """The modulus does not fit an int8..int32; numpy refuses to
        promote it, so narrow inputs must be widened, not crash."""
        info = np.iinfo(dtype)
        values = np.asarray([info.min, -1 if info.min else 1, 0, info.max],
                            dtype=dtype)
        want = [int(v) % gf_any.q for v in values.tolist()]
        got = gf_any.array(values)
        assert got.dtype == np.uint64 and got.tolist() == want

    def test_array_rejects_floats(self, gf):
        with pytest.raises(FieldError, match="integers"):
            gf.array(np.asarray([1.5, 2.5]))

    def test_zeros_ones(self, gf):
        assert gf.zeros(3).tolist() == [0, 0, 0]
        assert gf.ones((2, 2)).tolist() == [[1, 1], [1, 1]]

    def test_is_valid(self, gf):
        assert gf.is_valid(gf.array([1, 2, 3]))
        assert not gf.is_valid(np.asarray([1, 2, 3]))  # wrong dtype
        bad = np.asarray([gf.q], dtype=np.uint64)
        assert not gf.is_valid(bad)

    def test_equality_and_hash(self):
        assert FiniteField(97) == FiniteField(97)
        assert FiniteField(97) != FiniteField(101)
        assert hash(FiniteField(97)) == hash(FiniteField(97))

    def test_repr(self, gf):
        assert "2147483647" in repr(gf)


class TestElementwiseOps:
    def test_add_wraps(self, gf_any):
        q = gf_any.q
        out = gf_any.add([q - 1], [1])
        assert out.tolist() == [0]

    def test_sub_wraps(self, gf_any):
        out = gf_any.sub([0], [1])
        assert out.tolist() == [gf_any.q - 1]

    def test_mul_max_operands_exact(self, gf_any):
        """The critical overflow case: (q-1)^2 must be exact in uint64."""
        q = gf_any.q
        out = gf_any.mul([q - 1], [q - 1])
        assert out.tolist() == [pow(q - 1, 2, q)]

    def test_mul_matches_python_pow(self, gf_any, rng):
        a = gf_any.random(100, rng)
        b = gf_any.random(100, rng)
        out = gf_any.mul(a, b)
        for ai, bi, oi in zip(a.tolist(), b.tolist(), out.tolist()):
            assert oi == ai * bi % gf_any.q

    def test_pow_matches_python(self, gf_any, rng):
        a = gf_any.random(20, rng)
        for e in (0, 1, 2, 7, 31):
            out = gf_any.pow(a, e)
            for ai, oi in zip(a.tolist(), out.tolist()):
                assert oi == pow(ai, e, gf_any.q)

    def test_pow_negative_exponent(self, gf, rng):
        a = gf.array(rng.integers(1, gf.q, 10))
        assert np.array_equal(gf.pow(a, -1), gf.inv(a))
        assert np.array_equal(gf.pow(a, -2), gf.inv(gf.mul(a, a)))

    def test_inv(self, gf_any, rng):
        a = gf_any.array(rng.integers(1, gf_any.q, 50))
        inv = gf_any.inv(a)
        assert np.all(gf_any.mul(a, inv) == 1)

    def test_sub_from_zero_negates(self, gf_any):
        zero = gf_any.zeros(2)
        assert gf_any.sub(zero, [0, 1]).tolist() == [0, gf_any.q - 1]

    def test_mul_by_inverse_undoes_mul(self, gf_any, rng):
        a = gf_any.random(20, rng)
        b = gf_any.array(rng.integers(1, gf_any.q, 20))
        assert np.array_equal(gf_any.mul(gf_any.mul(a, gf_any.inv(b)), b), a)

    def test_inv_zero_raises(self, gf_any):
        with pytest.raises(FieldError, match="inverse"):
            gf_any.inv([0])

    def test_broadcasting(self, gf):
        mat = gf.array([[1, 2], [3, 4]])
        out = gf.mul(mat, 2)
        assert out.tolist() == [[2, 4], [6, 8]]


class TestReductions:
    def test_sum_scalar(self, gf_any, rng):
        a = gf_any.random(1000, rng)
        assert int(gf_any.sum(a)) == sum(a.tolist()) % gf_any.q

    def test_sum_axis(self, gf, rng):
        a = gf.random((4, 5), rng)
        col = gf.sum(a, axis=0)
        expected = [sum(a[:, j].tolist()) % gf.q for j in range(5)]
        assert col.tolist() == expected

    def test_sum_of_products_is_inner_product(self, gf_any, rng):
        a = gf_any.random(64, rng)
        b = gf_any.random(64, rng)
        expected = sum(x * y for x, y in zip(a.tolist(), b.tolist())) % gf_any.q
        assert int(gf_any.sum(gf_any.mul(a, b))) == expected

    def test_matmul_column_vector_is_rowwise_inner_product(self, gf_any, rng):
        a = gf_any.random((4, 6), rng)
        x = gf_any.random(6, rng)
        out = gf_any.matmul(a, x[:, None])
        assert out.shape == (4, 1)
        expected = [
            sum(u * v for u, v in zip(row, x.tolist())) % gf_any.q
            for row in a.tolist()
        ]
        assert out[:, 0].tolist() == expected

    def test_matmul_identity(self, gf, rng):
        a = gf.random((6, 6), rng)
        eye = gf.array(np.eye(6, dtype=np.int64))
        assert np.array_equal(gf.matmul(a, eye), a)

    def test_matmul_matches_naive(self, gf_any, rng):
        a = gf_any.random((3, 4), rng)
        b = gf_any.random((4, 2), rng)
        out = gf_any.matmul(a, b)
        q = gf_any.q
        for i in range(3):
            for j in range(2):
                expected = sum(
                    int(a[i, k]) * int(b[k, j]) for k in range(4)
                ) % q
                assert int(out[i, j]) == expected

    def test_matmul_large_contraction_chunked(self, gf_paper, rng):
        """Exercise the chunked accumulation path (k > 4096)."""
        k = 5000
        a = gf_paper.random((2, k), rng)
        b = gf_paper.random((k, 2), rng)
        out = gf_paper.matmul(a, b)
        expected = sum(int(a[0, i]) * int(b[i, 0]) for i in range(k)) % gf_paper.q
        assert int(out[0, 0]) == expected

    def test_matmul_shape_errors(self, gf):
        with pytest.raises(FieldError):
            gf.matmul(gf.zeros((2, 3)), gf.zeros((2, 3)))

    def test_matmul_width_blocking_is_invisible(self, gf_any, rng):
        """Results are identical whichever width-block size is in effect."""
        a = gf_any.random((5, 17), rng)
        b = gf_any.random((17, 64), rng)
        want = gf_any.matmul(a, b)
        old_block = type(gf_any).MATMUL_BLOCK_ELEMS
        old_f64_block = type(gf_any).MATMUL_F64_BLOCK_ELEMS
        try:
            # Force many tiny blocks (width 1 per block at m=5) on both
            # the legacy and the limb-split kernels.
            type(gf_any).MATMUL_BLOCK_ELEMS = 5
            type(gf_any).MATMUL_F64_BLOCK_ELEMS = 5
            got = gf_any.matmul(a, b)
        finally:
            type(gf_any).MATMUL_BLOCK_ELEMS = old_block
            type(gf_any).MATMUL_F64_BLOCK_ELEMS = old_f64_block
        assert np.array_equal(got, want)

    def test_matmul_lazy_reduction_spans_batches(self, gf_any, rng):
        """k across several lazy-reduction batches, worst-case residues.

        All-(q-1) operands maximize every raw product, pinning the
        accumulate-then-reduce bound; compare against exact object math.
        """
        k = 19  # not a multiple of any lazy batch size in use
        a = np.full((3, k), gf_any.q - 1, dtype=np.uint64)
        b = np.full((k, 4), gf_any.q - 1, dtype=np.uint64)
        out = gf_any.matmul(a, b)
        expected = (k * (gf_any.q - 1) ** 2) % gf_any.q
        assert np.all(out.astype(object) == expected)


class TestSignedEmbedding:
    def test_to_signed_round_trip(self, gf_any):
        half = (gf_any.q - 1) // 2
        values = np.asarray([-half, -1, 0, 1, half], dtype=np.int64)
        embedded = gf_any.array(values)
        assert np.array_equal(gf_any.to_signed(embedded), values)

    def test_random_uniform_range(self, gf, rng):
        a = gf.random(10_000, rng)
        assert a.min() >= 0 and a.max() < gf.q
        # Crude uniformity check: the mean should be near q/2.
        assert abs(float(a.mean()) / gf.q - 0.5) < 0.02

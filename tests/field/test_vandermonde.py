"""Tests for Vandermonde matrices and Lagrange interpolation."""

import numpy as np
import pytest

from repro.exceptions import FieldError
from repro.field.vandermonde import (
    distinct_points,
    lagrange_coeffs,
    vandermonde,
)


class TestDistinctPoints:
    def test_basic(self, gf):
        pts = distinct_points(gf, 5)
        assert pts.tolist() == [1, 2, 3, 4, 5]

    def test_start_offset(self, gf):
        assert distinct_points(gf, 3, start=10).tolist() == [10, 11, 12]

    def test_field_too_small(self, gf_small):
        with pytest.raises(FieldError):
            distinct_points(gf_small, 97)

    def test_negative_count(self, gf):
        with pytest.raises(FieldError):
            distinct_points(gf, -1)


class TestVandermonde:
    def test_shape_and_entries(self, gf):
        v = vandermonde(gf, [2, 3], 3)
        assert v.shape == (3, 2)
        assert v[:, 0].tolist() == [1, 2, 4]
        assert v[:, 1].tolist() == [1, 3, 9]

    def test_duplicate_points_rejected(self, gf):
        with pytest.raises(FieldError, match="distinct"):
            vandermonde(gf, [1, 1, 2], 2)

    def test_evaluation_equivalence(self, gf, rng):
        """V.T @ coeffs evaluates the polynomial at the points."""
        coeffs = gf.random(4, rng)
        pts = distinct_points(gf, 6)
        v = vandermonde(gf, pts, 4)
        values = gf.matmul(v.T.copy(), coeffs[:, None])[:, 0]
        for p, val in zip(pts.tolist(), values.tolist()):
            expected = 0
            for k, c in enumerate(coeffs.tolist()):
                expected = (expected + c * pow(p, k, gf.q)) % gf.q
            assert val == expected


class TestLagrange:
    def test_coeffs_identity_at_sample_points(self, gf):
        s = distinct_points(gf, 4)
        coeffs = lagrange_coeffs(gf, s, s)
        assert np.array_equal(coeffs, np.eye(4, dtype=np.uint64))

    def test_coeffs_rows_sum_to_one(self, gf, rng):
        """Interpolating the constant-1 polynomial reproduces 1 anywhere."""
        s = distinct_points(gf, 5)
        e = distinct_points(gf, 7, start=100)
        coeffs = lagrange_coeffs(gf, s, e)
        row_sums = gf.sum(coeffs, axis=1)
        assert np.all(row_sums == 1)

    def test_duplicate_sample_points_rejected(self, gf):
        with pytest.raises(FieldError, match="distinct"):
            lagrange_coeffs(gf, [1, 1], [5])

    def test_coeffs_recover_polynomial(self, gf_any, rng):
        """Sampling then re-evaluating anywhere matches direct evaluation."""
        q = gf_any.q
        coeffs = [int(c) for c in gf_any.random(4, rng).tolist()]

        def poly(x: int) -> int:
            return sum(c * pow(x, k, q) for k, c in enumerate(coeffs)) % q

        sample_pts = [3, 7, 11, 19]
        samples = gf_any.array([poly(x) for x in sample_pts])
        eval_pts = [1, 30, 55]
        coeffs_at = lagrange_coeffs(gf_any, sample_pts, eval_pts)
        values = gf_any.matmul(coeffs_at, samples[:, None])[:, 0]
        assert values.tolist() == [poly(x) for x in eval_pts]

    def test_coeffs_interpolate_matrix_samples(self, gf, rng):
        """One coefficient matrix interpolates several polynomials at once."""
        width = 5
        sample_pts = distinct_points(gf, 3)
        samples = gf.random((3, width), rng)
        eval_pts = distinct_points(gf, 2, start=50)
        coeffs = lagrange_coeffs(gf, sample_pts, eval_pts)
        out = gf.matmul(coeffs, samples)
        assert out.shape == (2, width)
        for j in range(width):
            col = gf.matmul(coeffs, samples[:, j : j + 1])[:, 0]
            assert np.array_equal(out[:, j], col)

    def test_round_trip_through_different_basis(self, gf, rng):
        """Encode at alpha points, decode back to beta points."""
        beta = distinct_points(gf, 4)
        alpha = distinct_points(gf, 9, start=10)
        data = gf.random(4, rng)
        coded = gf.matmul(lagrange_coeffs(gf, beta, alpha), data[:, None])
        chosen = [1, 3, 4, 7]
        back = gf.matmul(lagrange_coeffs(gf, alpha[chosen], beta), coded[chosen])
        assert np.array_equal(back[:, 0], data)

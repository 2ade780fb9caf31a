"""Tests for Gauss-Jordan linear algebra over GF(q)."""

import numpy as np
import pytest

from repro.exceptions import FieldError, SingularMatrixError
from repro.field import FiniteField
from repro.field.linalg import det, inv, is_invertible, is_mds, rank, solve
from repro.field.vandermonde import distinct_points, vandermonde


class TestSolve:
    def test_solve_round_trip_vector(self, gf_any, rng):
        a = gf_any.random((8, 8), rng)
        x = gf_any.random(8, rng)
        b = gf_any.matmul(a, x[:, None])[:, 0]
        assert np.array_equal(solve(gf_any, a, b), x)

    def test_solve_round_trip_matrix_rhs(self, gf, rng):
        a = gf.random((5, 5), rng)
        x = gf.random((5, 3), rng)
        b = gf.matmul(a, x)
        assert np.array_equal(solve(gf, a, b), x)

    def test_solve_singular_raises(self, gf):
        a = gf.array([[1, 2], [2, 4]])  # rank 1
        with pytest.raises(SingularMatrixError):
            solve(gf, a, gf.array([1, 2]))

    def test_solve_non_square_raises(self, gf):
        with pytest.raises(FieldError):
            solve(gf, gf.zeros((2, 3)), gf.zeros(2))

    def test_solve_rhs_mismatch_raises(self, gf):
        with pytest.raises(FieldError):
            solve(gf, gf.ones((2, 2)), gf.zeros(3))

    def test_solve_identity(self, gf, rng):
        eye = gf.array(np.eye(4, dtype=np.int64))
        b = gf.random(4, rng)
        assert np.array_equal(solve(gf, eye, b), b)


class TestInv:
    def test_inverse_round_trip(self, gf_any, rng):
        a = gf_any.random((6, 6), rng)
        ia = inv(gf_any, a)
        eye = np.eye(6, dtype=np.uint64)
        assert np.array_equal(gf_any.matmul(a, ia), eye)
        assert np.array_equal(gf_any.matmul(ia, a), eye)

    def test_inverse_of_inverse(self, gf, rng):
        a = gf.random((4, 4), rng)
        assert np.array_equal(inv(gf, inv(gf, a)), a)

    def test_singular_raises(self, gf):
        with pytest.raises(SingularMatrixError):
            inv(gf, gf.zeros((3, 3)))

    def test_scalar_matrix(self, gf):
        a = gf.array([[5]])
        assert int(inv(gf, a)[0, 0]) == pow(5, gf.q - 2, gf.q)


class TestDetRank:
    def test_det_identity(self, gf):
        assert det(gf, gf.array(np.eye(5, dtype=np.int64))) == 1

    def test_det_singular_zero(self, gf):
        assert det(gf, gf.array([[1, 2], [2, 4]])) == 0

    def test_det_2x2_formula(self, gf_small, rng):
        for _ in range(20):
            a = gf_small.random((2, 2), rng)
            expected = (
                int(a[0, 0]) * int(a[1, 1]) - int(a[0, 1]) * int(a[1, 0])
            ) % gf_small.q
            assert det(gf_small, a) == expected

    def test_det_multiplicative(self, gf_small, rng):
        a = gf_small.random((3, 3), rng)
        b = gf_small.random((3, 3), rng)
        lhs = det(gf_small, gf_small.matmul(a, b))
        rhs = det(gf_small, a) * det(gf_small, b) % gf_small.q
        assert lhs == rhs

    def test_det_row_swap_flips_sign(self, gf_small, rng):
        a = gf_small.random((3, 3), rng)
        while det(gf_small, a) == 0:
            a = gf_small.random((3, 3), rng)
        swapped = a.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        assert det(gf_small, swapped) == (-det(gf_small, a)) % gf_small.q

    def test_rank_full(self, gf, rng):
        a = gf.random((5, 5), rng)
        assert rank(gf, a) == 5  # random matrices are a.s. full rank

    def test_rank_deficient(self, gf):
        a = gf.array([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
        assert rank(gf, a) == 2

    def test_rank_rectangular(self, gf, rng):
        a = gf.random((3, 7), rng)
        assert rank(gf, a) == 3

    def test_is_invertible(self, gf):
        assert is_invertible(gf, gf.array([[1, 1], [0, 1]]))
        assert not is_invertible(gf, gf.array([[1, 1], [1, 1]]))


class TestIsMds:
    def test_vandermonde_is_mds(self, gf):
        pts = distinct_points(gf, 6)
        v = vandermonde(gf, pts, 3)
        assert is_mds(gf, v)

    def test_matrix_with_zero_column_not_mds(self, gf):
        pts = distinct_points(gf, 5)
        v = vandermonde(gf, pts, 3).copy()
        v[:, 2] = 0
        assert not is_mds(gf, v)

    def test_tall_matrix_rejected(self, gf):
        with pytest.raises(FieldError):
            is_mds(gf, gf.zeros((4, 2)))

"""Finite-field substrate: GF(q) arithmetic, linear algebra, Vandermonde tools."""

from repro.field.arithmetic import FiniteField
from repro.field.prime import (
    DEFAULT_PRIME,
    MAX_UINT64_SAFE_MODULUS,
    PAPER_PRIME,
    is_prime,
    next_prime,
    previous_prime,
    validate_modulus,
)
from repro.field.reduce import (
    BarrettReducer,
    MersenneReducer,
    NumpyModReducer,
    Reducer,
    available_reducer_kinds,
    mersenne_exponent,
    select_reducer,
)
from repro.field.linalg import det, inv, is_invertible, is_mds, rank, solve
from repro.field.vandermonde import (
    distinct_points,
    interpolate,
    lagrange_coeffs,
    vandermonde,
)

__all__ = [
    "FiniteField",
    "Reducer",
    "MersenneReducer",
    "BarrettReducer",
    "NumpyModReducer",
    "available_reducer_kinds",
    "mersenne_exponent",
    "select_reducer",
    "DEFAULT_PRIME",
    "PAPER_PRIME",
    "MAX_UINT64_SAFE_MODULUS",
    "is_prime",
    "next_prime",
    "previous_prime",
    "validate_modulus",
    "solve",
    "inv",
    "det",
    "rank",
    "is_invertible",
    "is_mds",
    "vandermonde",
    "lagrange_coeffs",
    "interpolate",
    "distinct_points",
]

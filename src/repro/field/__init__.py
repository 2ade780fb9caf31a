"""Finite-field substrate: GF(q) arithmetic, linear algebra, Vandermonde tools."""

from repro.field.arithmetic import FIELD_WORD, FiniteField
from repro.field.prime import (
    DEFAULT_PRIME,
    MAX_UINT64_SAFE_MODULUS,
    PAPER_PRIME,
    is_prime,
    validate_modulus,
)
from repro.field.reduce import (
    MersenneReducer,
    NumpyModReducer,
    Reducer,
    SplitFoldReducer,
    available_reducer_kinds,
    mersenne_exponent,
    select_reducer,
)
from repro.field.linalg import det, inv, is_invertible, is_mds, rank, solve
from repro.field.vandermonde import (
    distinct_points,
    lagrange_coeffs,
    vandermonde,
)

__all__ = [
    "FiniteField",
    "FIELD_WORD",
    "Reducer",
    "MersenneReducer",
    "SplitFoldReducer",
    "NumpyModReducer",
    "available_reducer_kinds",
    "mersenne_exponent",
    "select_reducer",
    "DEFAULT_PRIME",
    "PAPER_PRIME",
    "MAX_UINT64_SAFE_MODULUS",
    "is_prime",
    "validate_modulus",
    "solve",
    "inv",
    "det",
    "rank",
    "is_invertible",
    "is_mds",
    "vandermonde",
    "lagrange_coeffs",
    "distinct_points",
]

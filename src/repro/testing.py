"""Reusable verification helpers for downstream users and the test suite.

Secure-aggregation code fails in ways that are easy to miss (a wrong mask
still produces *a* vector), so the library ships the assertions we use
internally: exact-aggregate verification against the naive oracle and
field-array validity checks.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np

from repro.exceptions import ReproError
from repro.field.arithmetic import FiniteField
from repro.protocols.base import AggregationResult, SecureAggregationProtocol


def make_random_updates(
    gf: FiniteField,
    num_users: int,
    model_dim: int,
    rng: Optional[np.random.Generator] = None,
) -> Dict[int, np.ndarray]:
    """One uniform field vector per user — standard protocol-test input."""
    rng = rng if rng is not None else np.random.default_rng()
    return {i: gf.random(model_dim, rng) for i in range(num_users)}


def assert_field_vector(gf: FiniteField, arr: np.ndarray, dim: int) -> None:
    """Raise unless ``arr`` is a valid reduced GF(q) vector of length dim."""
    if not isinstance(arr, np.ndarray) or arr.shape != (dim,):
        raise ReproError(f"expected shape ({dim},), got {getattr(arr, 'shape', None)}")
    if arr.dtype != np.uint64:
        raise ReproError(f"expected uint64 residues, got dtype {arr.dtype}")
    if arr.size and int(arr.max()) >= gf.q:
        raise ReproError("entries exceed the field modulus")


def assert_exact_aggregate(
    protocol: SecureAggregationProtocol,
    result: AggregationResult,
    updates: Dict[int, np.ndarray],
) -> None:
    """Raise unless the round output equals the plain sum of survivors."""
    expected = protocol.expected_aggregate(updates, result.survivors)
    if not np.array_equal(result.aggregate, expected):
        diff = int(np.count_nonzero(result.aggregate != expected))
        raise ReproError(
            f"aggregate mismatch on {diff}/{expected.size} coordinates for "
            f"survivors {result.survivors}"
        )


def run_and_verify(
    protocol: SecureAggregationProtocol,
    model_dim: int,
    dropouts: Optional[Set[int]] = None,
    rng: Optional[np.random.Generator] = None,
) -> AggregationResult:
    """Run one round on random inputs and verify it end to end."""
    rng = rng if rng is not None else np.random.default_rng()
    updates = make_random_updates(protocol.gf, protocol.num_users, model_dim, rng)
    result = protocol.run_round(updates, dropouts or set(), rng)
    assert_exact_aggregate(protocol, result, updates)
    assert_field_vector(protocol.gf, result.aggregate, model_dim)
    return result

"""Tests for the public verification helpers, plus two checks that
live here because only tests use them: the protocol conformance
battery and a chi-square uniformity test."""

from typing import Sequence

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.protocols import LightSecAgg, LSAParams, NaiveAggregation, SecAgg
from repro.testing import (
    assert_exact_aggregate,
    assert_field_vector,
    make_random_updates,
    run_and_verify,
)


def conformance_suite(
    protocol_factory,
    model_dim: int = 24,
    seed: int = 0,
    max_dropouts: int = 2,
) -> int:
    """Battery of behaviours every SecureAggregationProtocol must satisfy.

    ``protocol_factory()`` returns a fresh protocol instance.  Checks:
    exact aggregation for every dropout count up to ``max_dropouts``,
    determinism under a fixed rng, statelessness across rounds, and
    transcript sanity.  Returns the number of rounds exercised; raises
    :class:`ReproError` (or the protocol's own error) on any violation.
    """
    proto = protocol_factory()
    rounds = 0
    for num_drops in range(max_dropouts + 1):
        rng = np.random.default_rng(seed + num_drops)
        updates = make_random_updates(proto.gf, proto.num_users, model_dim, rng)
        dropouts = set(range(num_drops))
        result = proto.run_round(updates, dropouts, rng)
        assert_exact_aggregate(proto, result, updates)
        assert_field_vector(proto.gf, result.aggregate, model_dim)
        if len(result.transcript) == 0 and proto.num_users > 1:
            raise ReproError("protocol recorded no messages")
        if result.transcript.elements() < 0:
            raise ReproError("negative transcript accounting")
        # Determinism: same inputs and rng seed reproduce the aggregate.
        again = proto.run_round(
            updates, dropouts, np.random.default_rng(seed + num_drops)
        )
        repeat = proto.run_round(
            updates, dropouts, np.random.default_rng(seed + num_drops)
        )
        if not np.array_equal(again.aggregate, repeat.aggregate):
            raise ReproError("protocol is nondeterministic under a fixed rng")
        rounds += 3
    return rounds


def chi_square_uniformity(
    samples: Sequence[int], modulus: int, significance_chi2: float
) -> float:
    """Chi-square statistic of ``samples`` against uniform over [0, q).

    Returns the statistic; raises when it exceeds the caller-provided
    critical value (callers pick it for their degrees of freedom).
    """
    counts = np.bincount(np.asarray(samples, dtype=np.int64), minlength=modulus)
    expected = len(samples) / modulus
    if expected <= 0:
        raise ReproError("no samples supplied")
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    if chi2 > significance_chi2:
        raise ReproError(
            f"uniformity rejected: chi2={chi2:.1f} > {significance_chi2}"
        )
    return chi2


class TestMakeUpdates:
    def test_shape_and_range(self, gf, rng):
        updates = make_random_updates(gf, 5, 16, rng)
        assert set(updates) == set(range(5))
        for u in updates.values():
            assert u.shape == (16,)
            assert int(u.max()) < gf.q


class TestFieldVectorAssert:
    def test_accepts_valid(self, gf, rng):
        assert_field_vector(gf, gf.random(8, rng), 8)

    def test_rejects_wrong_shape(self, gf):
        with pytest.raises(ReproError, match="shape"):
            assert_field_vector(gf, gf.zeros(7), 8)

    def test_rejects_wrong_dtype(self, gf):
        with pytest.raises(ReproError, match="uint64"):
            assert_field_vector(gf, np.zeros(8), 8)

    def test_rejects_out_of_field(self, gf):
        bad = np.full(8, gf.q, dtype=np.uint64)
        with pytest.raises(ReproError, match="modulus"):
            assert_field_vector(gf, bad, 8)


class TestRunAndVerify:
    def test_all_protocols(self, gf):
        params = LSAParams.from_guarantees(6, 2, 2)
        for proto in (
            LightSecAgg(gf, params, 12),
            SecAgg(gf, 6, 12),
            NaiveAggregation(gf, 6, 12),
        ):
            result = run_and_verify(proto, 12, dropouts={1},
                                    rng=np.random.default_rng(0))
            assert result.survivors == [0, 2, 3, 4, 5]

    def test_detects_corruption(self, gf, rng):
        proto = NaiveAggregation(gf, 4, 8)
        updates = make_random_updates(gf, 4, 8, rng)
        result = proto.run_round(updates, set(), rng)
        result.aggregate[0] = (result.aggregate[0] + np.uint64(1)) % np.uint64(gf.q)
        with pytest.raises(ReproError, match="mismatch"):
            assert_exact_aggregate(proto, result, updates)


class TestChiSquare:
    def test_uniform_passes(self, rng):
        samples = rng.integers(0, 97, 20_000)
        chi2 = chi_square_uniformity(samples.tolist(), 97, 160.0)
        assert chi2 < 160.0

    def test_biased_fails(self):
        samples = [0] * 1000 + [1] * 10
        with pytest.raises(ReproError, match="rejected"):
            chi_square_uniformity(samples, 97, 160.0)

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            chi_square_uniformity([], 97, 160.0)


class TestConformanceSuite:
    def test_all_protocols_conform(self, gf):
        from repro.protocols import SecAggPlus
        from repro.protocols.lightsecagg import EncryptedLightSecAgg
        params = LSAParams.from_guarantees(6, 2, 2)
        factories = [
            lambda: LightSecAgg(gf, params, 24),
            lambda: EncryptedLightSecAgg(gf, params, 24),
            lambda: SecAgg(gf, 6, 24),
            lambda: SecAggPlus(gf, 6, 24, graph_seed=1),
            lambda: NaiveAggregation(gf, 6, 24),
        ]
        for factory in factories:
            assert conformance_suite(factory, max_dropouts=2) == 9

    def test_suite_catches_broken_protocol(self, gf):
        class BrokenProtocol(NaiveAggregation):
            def run_round(self, updates, dropouts, rng=None):
                result = super().run_round(updates, dropouts, rng)
                result.aggregate[0] ^= np.uint64(1)  # corrupt one word
                return result

        with pytest.raises(ReproError, match="mismatch"):
            conformance_suite(lambda: BrokenProtocol(gf, 4, 8))

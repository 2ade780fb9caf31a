"""Tests for protocol base abstractions: transcript, dropout sampling."""

import numpy as np
import pytest

from repro.exceptions import DropoutError, ProtocolError
from repro.field import FiniteField
from repro.protocols.base import (
    SERVER,
    Transcript,
    sample_dropouts,
)
from repro.protocols.naive import NaiveAggregation


class TestTranscript:
    def test_record_and_filter(self):
        t = Transcript()
        t.record(0, SERVER, "upload", 100)
        t.record(1, SERVER, "upload", 100)
        t.record(0, 1, "offline", 5, is_key_sized=True)
        assert t.elements() == 205
        assert t.elements(phase="upload") == 200
        assert t.elements(sender=0) == 105
        assert t.elements(receiver=SERVER) == 200
        assert t.elements(key_sized=True) == 5
        assert len(t) == 3

    def test_per_user_totals_by_phase(self):
        t = Transcript()
        t.record(0, SERVER, "upload", 10)
        t.record(0, 1, "offline", 5)
        t.record(SERVER, 0, "offline", 7)
        assert t.elements(sender=0) == 15
        assert t.elements(sender=0, phase="offline") == 5
        assert t.elements(receiver=0) == 7

    def test_unknown_phase_rejected(self):
        t = Transcript()
        with pytest.raises(ProtocolError):
            t.record(0, 1, "setup", 1)

    def test_negative_size_rejected(self):
        t = Transcript()
        with pytest.raises(ProtocolError):
            t.record(0, 1, "upload", -1)


class TestSampleDropouts:
    def test_count(self, rng):
        drops = sample_dropouts(100, 0.3, rng)
        assert len(drops) == 30
        assert all(0 <= i < 100 for i in drops)

    def test_zero_rate(self, rng):
        assert sample_dropouts(50, 0.0, rng) == set()

    def test_invalid_rate(self, rng):
        with pytest.raises(ProtocolError):
            sample_dropouts(10, 1.0, rng)
        with pytest.raises(ProtocolError):
            sample_dropouts(10, -0.1, rng)

    def test_deterministic_with_seed(self):
        a = sample_dropouts(100, 0.2, np.random.default_rng(5))
        b = sample_dropouts(100, 0.2, np.random.default_rng(5))
        assert a == b


class TestInputValidation:
    def test_updates_must_cover_all_users(self, gf, rng):
        proto = NaiveAggregation(gf, 4, 8)
        updates = {i: gf.random(8, rng) for i in range(3)}
        with pytest.raises(ProtocolError):
            proto.run_round(updates, set(), rng)

    def test_dropout_ids_in_range(self, gf, rng):
        proto = NaiveAggregation(gf, 4, 8)
        updates = {i: gf.random(8, rng) for i in range(4)}
        with pytest.raises(ProtocolError):
            proto.run_round(updates, {7}, rng)

    def test_all_dropped_rejected(self, gf, rng):
        proto = NaiveAggregation(gf, 3, 8)
        updates = {i: gf.random(8, rng) for i in range(3)}
        with pytest.raises(DropoutError):
            proto.run_round(updates, {0, 1, 2}, rng)

    def test_inconsistent_shapes_rejected(self, gf, rng):
        proto = NaiveAggregation(gf, 3, 8)
        updates = {0: gf.random(8, rng), 1: gf.random(8, rng), 2: gf.random(9, rng)}
        with pytest.raises(ProtocolError):
            proto.run_round(updates, set(), rng)

    def test_too_few_users(self, gf):
        with pytest.raises(ProtocolError):
            NaiveAggregation(gf, 1, 8)


class TestNaive:
    def test_aggregate_correct(self, gf, rng):
        proto = NaiveAggregation(gf, 5, 16)
        updates = {i: gf.random(16, rng) for i in range(5)}
        result = proto.run_round(updates, {1, 3}, rng)
        expected = proto.expected_aggregate(updates, [0, 2, 4])
        assert np.array_equal(result.aggregate, expected)
        assert result.survivors == [0, 2, 4]
        # Only survivors upload in the naive protocol's accounting.
        assert result.transcript.elements(phase="upload") == 3 * 16

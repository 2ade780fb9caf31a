"""The pooled buffered drain, tested at the session it lives in.

``LightSecAggSession.drain`` (the session ``LightSecAgg.session()``
returns, the same one synchronous rounds use) is otherwise reached only
through the buffered round engine
(``tests/service/test_buffered_engine.py``, which pins it bit-identical
to the one-shot async oracle across transports).
Here the kernel itself: the exact-integer weighted sum on non-canonical
inputs for both field shapes, every recovery-dropout pattern, a rejected
drain spending no pooled material, the decode being load-bearing, the
coefficient memo not surviving a re-key, and the transcript and metrics
of one seeded drain equal to the golden recorded before the kernel was
rewritten.
"""

import dataclasses
import hashlib
import itertools
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DropoutError, ProtocolError
from repro.field import DEFAULT_PRIME, PAPER_PRIME, FiniteField
from repro.protocols import LightSecAgg, LSAParams

N, DIM = 8, 23  # T=2, D=2 -> U=5
U64_MAX = (1 << 64) - 1
GOLDEN = json.loads(
    (pathlib.Path(__file__).parents[1] / "protocols" / "golden"
     / "online_kernel.json").read_text()
)["drain"]


def open_session(q, pool_size=2, seed=7):
    gf = FiniteField(q)
    params = LSAParams.from_guarantees(N, privacy=2, dropout_tolerance=2)
    return LightSecAgg(gf, params, DIM).session(
        pool_size=pool_size, rng=np.random.default_rng(seed),
    )


def exact_weighted_sum(q, weights, updates):
    """``sum_b w_b * x_b mod q`` in Python integers."""
    rows = [[int(v) for v in row] for row in np.asarray(updates).tolist()]
    return [
        sum(int(w) * row[c] for w, row in zip(weights, rows)) % q
        for c in range(DIM)
    ]


class TestDrainArithmetic:
    @pytest.mark.parametrize("q", [DEFAULT_PRIME, PAPER_PRIME])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_noncanonical_inputs_match_exact_integers(self, q, data):
        batch = data.draw(st.integers(1, N))
        weights = data.draw(st.lists(
            st.one_of(st.integers(1, 9), st.integers(q - 2, U64_MAX)),
            min_size=batch, max_size=batch,
        ))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rows = []
        for _ in range(batch):
            kind = data.draw(st.sampled_from(
                ["canonical", "above_q", "all_max", "small"]
            ))
            rows.append({
                "canonical": lambda: rng.integers(
                    0, q, size=DIM, dtype=np.uint64),
                "above_q": lambda: rng.integers(
                    q, U64_MAX, size=DIM, dtype=np.uint64, endpoint=True),
                "all_max": lambda: np.full(DIM, U64_MAX, dtype=np.uint64),
                "small": lambda: rng.integers(
                    0, 1 << 8, size=DIM, dtype=np.uint64),
            }[kind]())
        updates = np.stack(rows)
        dropped = data.draw(st.sets(st.integers(0, N - 1), max_size=2))
        session = open_session(q, pool_size=1)
        result = session.drain(
            np.asarray(weights, dtype=np.uint64), updates, dropped
        )
        assert result.aggregate.dtype == np.uint64
        assert result.aggregate.tolist() == exact_weighted_sum(
            q, weights, updates
        )
        assert result.survivors == sorted(set(range(N)) - dropped)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32])
    def test_other_integer_dtypes_are_accepted(self, dtype):
        updates = np.arange(2 * DIM, dtype=dtype).reshape(2, DIM)
        result = open_session(PAPER_PRIME).drain([4, 9], updates)
        assert result.aggregate.tolist() == exact_weighted_sum(
            PAPER_PRIME, [4, 9], updates
        )

    @pytest.mark.parametrize("q", [DEFAULT_PRIME, PAPER_PRIME])
    def test_every_recovery_dropout_pattern(self, q):
        rng = np.random.default_rng(5)
        weights = [3, 1, 2, 5]
        updates = rng.integers(0, q, size=(4, DIM), dtype=np.uint64)
        want = exact_weighted_sum(q, weights, updates)
        session = open_session(q, pool_size=8)
        for size in range(3):
            for dropped in itertools.combinations(range(N), size):
                got = session.drain(weights, updates, set(dropped))
                assert got.aggregate.tolist() == want, dropped


class TestRejectedDrainSpendsNothing:
    @pytest.mark.parametrize("weights, updates, dropped, error, match", [
        ([1, 2], np.zeros((2, DIM + 1), dtype=np.uint64), set(),
         ProtocolError, "drain updates shape"),
        ([1, 2], np.zeros((2, DIM), dtype=np.float64), set(),
         ProtocolError, "dtype float64 is not an integer"),
        ([1, 0], np.zeros((2, DIM), dtype=np.uint64), set(),
         ProtocolError, "must be positive"),
        # Cast, these would drain as [1, 2] and with weight 2**64 - 5.
        (np.array([1.9, 2.2]), np.zeros((2, DIM), dtype=np.uint64), set(),
         ProtocolError, "must be positive integers, got float64"),
        (np.array([1, -5]), np.zeros((2, DIM), dtype=np.uint64), set(),
         ProtocolError, "must be positive"),
        ([1] * (N + 1), np.zeros((N + 1, DIM), dtype=np.uint64), set(),
         ProtocolError, "exceeds"),
        ([1, 2], np.zeros((2, DIM), dtype=np.uint64), {N},
         ProtocolError, "out of range"),
        ([1, 2], np.zeros((2, DIM), dtype=np.uint64), {0, 1, 2, 3},
         DropoutError, "need U=5"),
    ])
    def test_bad_drain_keeps_pool(self, weights, updates, dropped, error, match):
        session = open_session(DEFAULT_PRIME, pool_size=3)
        session.refill()
        for _ in range(3):
            with pytest.raises(error, match=match):
                session.drain(weights, updates, dropped)
        assert session.pool_level == 3
        assert session.stats.rounds == 0
        assert session.stats.pool_hits == session.stats.pool_misses == 0
        session.drain([1, 2], np.ones((2, DIM), dtype=np.uint64), {1})
        assert session.pool_level == 2 and session.stats.pool_hits == 1


class TestDecodeIsLoadBearing:
    def test_corrupt_share_or_mask_changes_aggregate(self):
        q = DEFAULT_PRIME
        rng = np.random.default_rng(2)
        weights = [2, 7, 1]
        updates = rng.integers(0, q, size=(3, DIM), dtype=np.uint64)
        want = exact_weighted_sum(q, weights, updates)
        session = open_session(q, pool_size=3)
        session.refill()
        _, bad_share, bad_mask = session._pool
        # Second pooled round: delivery slot 1's share held by responder
        # 0.  Third: one entry of slot 2's mask.
        bad_share.coded[1, 0, 0] = (bad_share.coded[1, 0, 0] + 1) % q
        bad_mask.masks[2, 4] = (bad_mask.masks[2, 4] + 1) % q
        drains = [
            session.drain(weights, updates, {1}).aggregate.tolist()
            for _ in range(3)
        ]
        assert drains[0] == want
        assert drains[1] != want and drains[2] != want

    def test_unused_material_does_not_reach_the_aggregate(self):
        """Slots past the batch and shares of silent holders stay out."""
        q = DEFAULT_PRIME
        rng = np.random.default_rng(3)
        weights = [2, 7, 1]
        updates = rng.integers(0, q, size=(3, DIM), dtype=np.uint64)
        session = open_session(q, pool_size=1)
        session.refill()
        material = session._pool[0]
        material.coded[3:, :, :] = 0   # slots 3.. protect no delivery
        material.masks[3:, :] = 0
        material.coded[:, 1, :] = 0    # holder 1 drops
        material.coded[:, 6:, :] = 0   # holders beyond the first U answer
        result = session.drain(weights, updates, {1})
        assert result.aggregate.tolist() == exact_weighted_sum(
            q, weights, updates
        )


class TestRekeyDropsTheCoefficientMemo:
    def test_new_geometry_starts_cold(self):
        session = open_session(DEFAULT_PRIME)
        ones = np.ones((2, DIM), dtype=np.uint64)
        session.drain([1, 2], ones, {1})
        old_code = session.encoder.code
        assert len(old_code._coeff_memo) == 1
        session.rekey(N + 1)
        assert session.encoder.code is not old_code
        assert not session.encoder.code._coeff_memo
        result = session.drain([1, 2], ones, {1})
        assert result.aggregate.tolist() == [3] * DIM
        assert list(session.encoder.code._coeff_memo) == [
            tuple(j for j in range(N + 1) if j != 1)[
                : session.params.target_survivors
            ]
        ]


class TestGoldenDrain:
    def test_transcript_and_metrics_match_pre_kernel_golden(self):
        """Recorded at the commit before the kernel rewrite (20c48f2)."""
        session = open_session(DEFAULT_PRIME)
        rng = np.random.default_rng(11)
        updates = session.gf.random((4, DIM), rng)
        result = session.drain([3, 1, 2, 5], updates, {1})
        assert result.survivors == GOLDEN["survivors"]
        assert [
            [m.sender, m.receiver, m.phase, m.size, m.is_key_sized]
            for m in result.transcript.messages
        ] == GOLDEN["messages"]
        assert dataclasses.asdict(result.metrics) == GOLDEN["metrics"]
        assert hashlib.sha256(
            result.aggregate.tobytes()
        ).hexdigest() == GOLDEN["aggregate_sha256"]

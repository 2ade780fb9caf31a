"""Service stress tests (marked ``slow``; excluded from tier-1 via -m).

Hammers the consumer/refiller concurrency contract far past what the
fast tests cover: long free-running drains with no settle barrier, many
cohorts sharing one refill worker, and repeated start/stop cycles.
Run with ``python -m pytest -m slow tests/service``.
"""

import numpy as np
import pytest

from repro.field import FiniteField
from repro.protocols import LightSecAgg, LSAParams
from repro.service import (
    AggregationService,
    BackgroundRefiller,
    RefillMode,
    ServiceConfig,
)

pytestmark = pytest.mark.slow

N, DIM = 8, 64


@pytest.fixture
def proto(gf):
    params = LSAParams.from_guarantees(N, privacy=2, dropout_tolerance=2)
    return LightSecAgg(gf, params, DIM)


class TestFreeRunningContention:
    def test_long_unsettled_drain_stays_correct(self, gf, proto,
                                                monkeypatch):
        """200 rounds with the consumer racing the refiller, no barrier.

        Correctness must hold even when the consumer outruns the
        refiller (inline refills fill the gap); every aggregate is
        checked against the exact expected sum.
        """
        session = proto.session(
            pool_size=8, low_water=4, rng=np.random.default_rng(0)
        )
        rng = np.random.default_rng(1)
        monkeypatch.setattr(BackgroundRefiller, "POLL_INTERVAL_S", 0.0001)
        with BackgroundRefiller() as refiller:
            refiller.register(session)
            for r in range(200):
                updates = {i: gf.random(DIM, rng) for i in range(N)}
                dropouts = set(
                    rng.choice(N, size=int(rng.integers(0, 3)),
                               replace=False).tolist()
                )
                result = session.run_round(updates, dropouts, rng)
                expected = proto.expected_aggregate(
                    updates, result.survivors
                )
                assert np.array_equal(result.aggregate, expected), r
        assert session.stats.rounds == 200
        assert (
            session.stats.pool_hits + session.stats.pool_misses == 200
        )

    def test_many_cohorts_share_one_refiller(self, gf):
        cfg = ServiceConfig(
            num_cohorts=6,
            num_users=N,
            model_dim=96,
            num_shards=3,
            pool_size=4,
            low_water=2,
            refill_mode=RefillMode.BACKGROUND,
            dropout_tolerance=2,
            privacy=2,
            seed=3,
        )
        with AggregationService(cfg, gf=gf) as svc:
            svc.run_synthetic(rounds=25, dropout_rate=0.1, settle=True)
            snap = svc.status()
        assert snap["metrics"]["total_rounds"] == 6 * 25
        assert snap["metrics"]["total_stalls"] == 0

    def test_repeated_start_stop_cycles_never_wedge(self, gf, proto,
                                                    monkeypatch):
        monkeypatch.setattr(BackgroundRefiller, "POLL_INTERVAL_S", 0.0001)
        for cycle in range(20):
            session = proto.session(
                pool_size=2, low_water=1, rng=np.random.default_rng(cycle)
            )
            refiller = BackgroundRefiller().start()
            refiller.register(session)
            refiller.stop(timeout=30.0)
            assert not refiller.running, cycle

"""End-to-end aggregation service: cohorts, sweeps, metrics, FL.

Covers the acceptance criterion at service level: the sharded +
background-refilled service produces bit-identical aggregates to the
single-shard synchronous path, with zero online stalls at steady state
(vs >= 1 per pool cycle for synchronous refill).
"""

import threading

import numpy as np
import pytest

from repro.exceptions import ProtocolError, ReproError
from repro.field import FiniteField
from repro.protocols import LightSecAgg, LSAParams
from repro.protocols.base import (
    AggregationResult,
    RoundMetrics,
    SessionStats,
    Transcript,
)
from repro.service import (
    AggregationService,
    RefillMode,
    RoundPhase,
    ServiceConfig,
)

N, DIM = 8, 41


def config(**overrides):
    base = dict(
        num_cohorts=2,
        num_users=N,
        model_dim=DIM,
        num_shards=2,
        pool_size=4,
        low_water=2,
        refill_mode=RefillMode.BACKGROUND,
        dropout_tolerance=2,
        privacy=2,
        seed=0,
    )
    base.update(overrides)
    return ServiceConfig(**base)


class TestServiceBitIdentity:
    def test_sharded_background_matches_single_shard_sync(self, gf):
        """Same update/dropout streams through both deployments."""
        sync_cfg = config(
            num_shards=1, low_water=0, refill_mode=RefillMode.SYNC,
            num_cohorts=1,
        )
        shard_cfg = config(num_shards=3, num_cohorts=1)
        rounds = 6
        aggregates = {}
        for key, cfg in (("sync", sync_cfg), ("sharded", shard_cfg)):
            with AggregationService(cfg, gf=gf) as svc:
                results = svc.run_synthetic(
                    rounds=rounds,
                    dropout_rate=0.2,
                    rng=np.random.default_rng(77),
                    settle=True,
                )
            aggregates[key] = [r[0] for r in results]
        for got, want in zip(aggregates["sharded"], aggregates["sync"]):
            assert got.survivors == want.survivors
            assert np.array_equal(got.aggregate, want.aggregate)

    def test_aggregates_match_expected_sum(self, gf):
        with AggregationService(config(), gf=gf) as svc:
            rng = np.random.default_rng(5)
            updates = {i: gf.random(DIM, rng) for i in range(N)}
            result = svc.run_round(1, updates, {3})
        expected = LightSecAgg(
            gf,
            LSAParams.from_guarantees(N, privacy=2, dropout_tolerance=2),
            DIM,
        ).expected_aggregate(updates, result.survivors)
        assert np.array_equal(result.aggregate, expected)


class TestStallAccounting:
    def test_background_zero_stalls_sync_stalls_every_cycle(self, gf):
        rounds = 8
        with AggregationService(
            config(num_cohorts=1, num_shards=1), gf=gf
        ) as svc:
            svc.run_synthetic(rounds=rounds, settle=True)
            bg_stalls = svc.metrics.total_stalls
        with AggregationService(
            config(
                num_cohorts=1, num_shards=1, low_water=0,
                refill_mode=RefillMode.SYNC,
            ),
            gf=gf,
        ) as svc:
            svc.run_synthetic(rounds=rounds)
            sync_stalls = svc.metrics.total_stalls
        assert bg_stalls == 0
        # Warm pool of 4 drains after round 4; rounds 5..8 hit one empty
        # pool (the inline refill tops it back up for three more rounds).
        assert sync_stalls >= 1

    def test_pool_depth_series_is_recorded(self, gf):
        with AggregationService(config(num_cohorts=1), gf=gf) as svc:
            svc.run_synthetic(rounds=3, settle=True)
            snap = svc.status()
        series = snap["metrics"]["cohorts"][0]["pool_depth_series"]
        assert len(series) >= 3
        times = [t for t, _ in series]
        assert times == sorted(times)


class TestCohortStateMachine:
    @pytest.fixture(autouse=True)
    def _cohort_over(self, cohort_over):
        self.cohort_over = cohort_over

    def make_cohort(self, gf, **kw):
        params = LSAParams.from_guarantees(N, privacy=2, dropout_tolerance=2)
        session = LightSecAgg(gf, params, DIM).session(
            pool_size=2, rng=np.random.default_rng(0)
        )
        return self.cohort_over(0, session, DIM, **kw)

    def test_round_cycles_through_phases_back_to_idle(self, gf):
        cohort = self.make_cohort(gf)
        assert cohort.phase is RoundPhase.IDLE
        rng = np.random.default_rng(1)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        cohort.run_round(updates, set())
        assert cohort.phase is RoundPhase.IDLE
        assert cohort.rounds == 1

    def test_failed_round_returns_to_idle(self, gf):
        cohort = self.make_cohort(gf)
        rng = np.random.default_rng(2)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        with pytest.raises(ProtocolError):
            cohort.run_round(updates, set(range(N - 1)))
        assert cohort.phase is RoundPhase.IDLE
        cohort.run_round(updates, set())  # still usable
        assert cohort.rounds == 1

    def test_closed_cohort_rejects_rounds(self, gf):
        cohort = self.make_cohort(gf)
        cohort.close()
        assert cohort.phase is RoundPhase.CLOSED
        rng = np.random.default_rng(3)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        with pytest.raises(ProtocolError, match="cohort 0 is closed"):
            cohort.run_round(updates, set())

    def test_close_racing_aggregating_round_lets_it_complete(self):
        """Regression: close() landing while a round is AGGREGATING used
        to make the success path's AGGREGATING -> IDLE transition throw
        *after* the session round had already committed its pool
        accounting.  Semantics now: the in-flight round completes and
        returns its result; the cohort stays CLOSED; later rounds fail
        with a clear closed-cohort error."""
        aggregating = threading.Event()
        release = threading.Event()
        sentinel = np.arange(DIM, dtype=np.uint64)

        class _GatedSession:
            num_users = N
            model_dim = DIM
            gf = None  # the transport only checks its shards agree on it
            pool_level = 0
            pool_size = 1
            closed = False
            stats = SessionStats()

            def drain(self, weights, rows, dropouts):
                aggregating.set()
                assert release.wait(timeout=30.0)
                return AggregationResult(
                    aggregate=sentinel, survivors=[], transcript=Transcript(),
                    metrics=RoundMetrics(),
                )

            def close(self):
                self.closed = True

        cohort = self.cohort_over(3, _GatedSession(), DIM)
        updates = {i: np.zeros(DIM, dtype=np.uint64) for i in range(N)}
        results = []
        runner = threading.Thread(
            target=lambda: results.append(cohort.run_round(updates, set()))
        )
        runner.start()
        assert aggregating.wait(timeout=30.0)
        assert cohort.phase is RoundPhase.AGGREGATING
        cohort.close()  # races the in-flight round
        release.set()
        runner.join(timeout=30.0)
        assert not runner.is_alive()
        # the round completed and returned
        assert len(results) == 1
        assert np.array_equal(results[0].aggregate, sentinel)
        assert cohort.phase is RoundPhase.CLOSED
        assert cohort.rounds == 1
        # CLOSED is terminal: the completing seal did not reopen it in
        # the status, nor in the phase ring.
        assert cohort.status()["phase"] == "closed"
        assert cohort.engine.transitions[-1].phase is RoundPhase.CLOSED
        with pytest.raises(ProtocolError, match="cohort 3 is closed"):
            cohort.run_round(updates, set())
        with pytest.raises(ProtocolError, match="cohort 3 is closed"):
            cohort.submit_update(0, np.zeros(DIM))
        with pytest.raises(ProtocolError, match="cohort 3 is closed"):
            cohort.join_member()
        assert cohort.status()["phase"] == "closed"

    def test_stall_counted_on_cold_pool(self, gf):
        cohort = self.make_cohort(gf)
        rng = np.random.default_rng(4)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        cohort.run_round(updates, set())  # cold pool: stall
        cohort.run_round(updates, set())  # warmed by inline refill
        assert cohort.stalls == 1

    def test_status_snapshot(self, gf):
        cohort = self.make_cohort(gf)
        status = cohort.status()
        assert status == {
            "cohort_id": 0,
            "phase": "idle",
            "rounds": 0,
            "stalls": 0,
            "pool_level": 0,
            "pool_size": 2,
            # the engine's fields, which every cohort now carries
            "buffer_fill": 0,
            "buffer_capacity": N,
            "drains": 0,
            "server_round": 0,
            "num_users": N,
            "members": list(range(N)),
            "membership_events": {"join": 0, "leave": 0},
        }


class TestSweepsAndConfig:
    def test_round_robin_visits_every_live_cohort(self, gf):
        with AggregationService(config(num_cohorts=3), gf=gf) as svc:
            svc.cohorts[1].close()
            results = svc.run_synthetic(rounds=2)
        assert all(sorted(sweep) == [0, 2] for sweep in results)
        assert svc.cohorts[0].rounds == 2 and svc.cohorts[2].rounds == 2

    def test_invalid_configs_rejected(self):
        for bad in (
            dict(num_cohorts=0),
            dict(num_shards=0),
            dict(num_shards=DIM + 1),
            dict(pool_size=0),
            dict(low_water=4),
        ):
            with pytest.raises(ReproError):
                config(**bad)
        with pytest.raises(TypeError, match="protocol"):
            config(protocol="naive")  # the service hosts LightSecAgg only

    def test_shard_dim_pair_fails_at_config_build_with_clear_message(self):
        """The bad (num_shards, model_dim) pair that ShardPlan would reject
        is caught when the config is built, naming both knobs and the
        valid range — not later, inside session construction."""
        with pytest.raises(
            ReproError,
            match=r"cannot split model_dim=41 into 64 non-empty shards: "
                  r"num_shards must be in \[1, model_dim\]",
        ):
            config(num_shards=64)

    def test_infeasible_protocol_geometry_fails_at_config_build(self):
        # T + D >= N violates Theorem 1; previously this surfaced as a
        # ParameterError from deep inside LSAParams during cohort
        # construction.  Now the config names the offending triple.
        with pytest.raises(
            ReproError, match=r"infeasible protocol geometry for N=8, T=5, D=4"
        ):
            config(privacy=5, dropout_tolerance=4)
        with pytest.raises(ReproError, match="need >= 2 users"):
            config(num_users=1, num_shards=1)

    def test_transport_knobs_validated(self):
        from repro.service import TransportKind

        with pytest.raises(ReproError, match="num_workers only applies"):
            config(num_workers=2)  # default transport is INLINE
        with pytest.raises(ReproError, match=">= 1 worker"):
            config(transport=TransportKind.PROCESS, num_workers=0)
        with pytest.raises(ReproError, match="must be a TransportKind"):
            config(transport="process")
        cfg = config(transport=TransportKind.PROCESS, num_workers=2)
        assert cfg.num_workers == 2

    def test_service_stop_is_clean_and_idempotent(self, gf):
        svc = AggregationService(config(), gf=gf).start()
        svc.run_synthetic(rounds=1)
        svc.stop()
        svc.stop()
        assert all(c.phase is RoundPhase.CLOSED for c in svc.cohorts)
        assert svc.refiller is not None and not svc.refiller.running


class TestServiceDrivesFL:
    def test_sharded_session_under_secure_fedavg(self, gf):
        """The FL loop runs unchanged over a service-layer session."""
        from repro.fl import (
            LocalTrainingConfig,
            SecureFederatedAveraging,
            iid_partition,
            logistic_regression,
            make_mnist_like,
        )
        from repro.service import InlineTransport, ShardedSession, ShardPlan

        clients = iid_partition(make_mnist_like(240, seed=3), N, seed=1)
        dim = logistic_regression(seed=0).dim
        params = LSAParams.from_guarantees(N, privacy=2, dropout_tolerance=2)
        plan = ShardPlan(dim, 2)
        sharded = ShardedSession(
            plan,
            InlineTransport([
                LightSecAgg(gf, params, w).session(
                    pool_size=2, rng=np.random.default_rng([9, s])
                )
                for s, w in enumerate(plan.widths)
            ]),
        )

        def make_trainer(session):
            return SecureFederatedAveraging(
                logistic_regression(seed=0),
                clients,
                LightSecAgg(gf, params, dim),
                local_config=LocalTrainingConfig(
                    epochs=1, batch_size=32, lr=0.05
                ),
                session_rng=np.random.default_rng(123),
                session=session,
            )

        fed_sharded = make_trainer(sharded)
        fed_single = make_trainer(None)
        for r in range(3):
            rec_a = fed_sharded.run_round(
                dropouts={r % N}, rng=np.random.default_rng(r)
            )
            rec_b = fed_single.run_round(
                dropouts={r % N}, rng=np.random.default_rng(r)
            )
            assert rec_a.survivors == rec_b.survivors
        # Bit-exact: the sharded aggregate is the same field sum.
        assert np.array_equal(
            fed_sharded.global_params, fed_single.global_params
        )

"""Runtime cohort membership: add/remove while the service is live.

The service used to freeze its cohort set at construction; these tests
pin the daemon-grade contract that replaced it:

* cohorts created at runtime are immediately servable and their results
  are bit-identical to a statically configured cohort with the same
  spec (same ``(seed, cohort_id, shard)`` derivation);
* removing a cohort mid-round lets the in-flight round finish with its
  result, detaches the cohort from registry + refiller + transport,
  and never perturbs its neighbours;
* creates and closes racing from many threads keep the registry
  consistent, and the metrics ledger stays honest (every completed
  round is counted exactly once, no counters for retired ids grow);
* ``stop()`` is terminal: a cohort still being built when it lands is
  closed instead of registered — no live cohort on a stopped service.
"""

import multiprocessing
import threading

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.field import FiniteField
from repro.service import (
    AggregationService,
    CohortSpec,
    RefillMode,
    ServiceConfig,
    TransportKind,
)
from repro.service import service as service_module

N, DIM = 6, 48


@pytest.fixture(scope="module")
def gf():
    return FiniteField()


def make_service(gf, *, build_cohorts=False, **kwargs):
    config = ServiceConfig(
        num_users=N, model_dim=DIM, pool_size=3, low_water=1,
        refill_mode=RefillMode.BACKGROUND, **kwargs
    )
    return AggregationService(
        config, gf=gf, build_cohorts=build_cohorts
    ).start()


def spec(**overrides):
    fields = dict(num_users=N, model_dim=DIM, pool_size=3, low_water=1)
    fields.update(overrides)
    return CohortSpec(**fields)


def run_one_round(gf, svc, cohort_id, seed=9):
    rng = np.random.default_rng(seed)
    updates = {i: gf.random(DIM, rng) for i in range(N)}
    return updates, svc.run_round(cohort_id, updates, {1})


class TestRuntimeAdd:
    def test_added_cohort_matches_static_cohort_bitwise(self, gf):
        """A cohort added at runtime derives the same shard seeds as a
        statically built cohort with the same id, so equal inputs give
        equal aggregates."""
        static = make_service(gf, build_cohorts=True, num_cohorts=1)
        try:
            updates, static_result = run_one_round(gf, static, 0)
        finally:
            static.stop()

        dynamic = make_service(gf)
        try:
            cohort = dynamic.add_cohort(spec())
            assert cohort.cohort_id == 0
            _, dynamic_result = run_one_round(gf, dynamic, 0)
        finally:
            dynamic.stop()
        assert np.array_equal(
            static_result.aggregate, dynamic_result.aggregate
        )
        assert static_result.survivors == dynamic_result.survivors

    def test_added_cohort_pool_is_warm(self, gf):
        svc = make_service(gf)
        try:
            cohort = svc.add_cohort(spec(pool_size=4))
            assert cohort.status()["pool_level"] == 4
            _, result = run_one_round(gf, svc, cohort.cohort_id)
            assert svc.metrics.snapshot()["total_stalls"] == 0
        finally:
            svc.stop()

    def test_heterogeneous_specs_coexist(self, gf):
        """Cohorts with different geometry live side by side — per-cohort
        specs, not one service-wide plan."""
        svc = make_service(gf)
        try:
            small = svc.add_cohort(spec(model_dim=32))
            big = svc.add_cohort(spec(model_dim=128, num_shards=2))
            rng = np.random.default_rng(1)
            r_small = svc.run_round(
                small.cohort_id,
                {i: gf.random(32, rng) for i in range(N)}, set(),
            )
            r_big = svc.run_round(
                big.cohort_id,
                {i: gf.random(128, rng) for i in range(N)}, set(),
            )
            assert r_small.aggregate.shape == (32,)
            assert r_big.aggregate.shape == (128,)
        finally:
            svc.stop()


class TestRuntimeRemove:
    def test_remove_leaves_neighbours_untouched(self, gf):
        svc = make_service(gf)
        try:
            a = svc.add_cohort(spec())
            b = svc.add_cohort(spec())
            svc.remove_cohort(a.cohort_id)
            with pytest.raises(ProtocolError, match="no cohort"):
                svc.run_round(a.cohort_id, {}, set())
            _, result = run_one_round(gf, svc, b.cohort_id)
            assert result.aggregate.shape == (DIM,)
            assert [c.cohort_id for c in svc.cohorts] == [b.cohort_id]
        finally:
            svc.stop()

    def test_remove_unknown_cohort_raises(self, gf):
        svc = make_service(gf)
        try:
            with pytest.raises(ProtocolError, match="no cohort 5"):
                svc.remove_cohort(5)
        finally:
            svc.stop()


class TestConcurrentMembership:
    def test_parallel_creates_get_unique_ids(self, gf):
        svc = make_service(gf)
        try:
            created = []
            lock = threading.Lock()

            def create():
                cohort = svc.add_cohort(spec(pool_size=2, low_water=0))
                with lock:
                    created.append(cohort.cohort_id)

            threads = [threading.Thread(target=create) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert sorted(created) == list(range(8))
            assert len(svc.cohorts) == 8
        finally:
            svc.stop()

    def test_churn_with_rounds_keeps_metrics_honest(self, gf):
        """Three threads: one serving rounds on a stable cohort, two
        creating/destroying churn cohorts.  The stable cohort's round
        count is exact, retired cohorts stop accruing, and the registry
        ends consistent."""
        svc = make_service(gf)
        try:
            stable = svc.add_cohort(spec())
            rounds_target = 12
            errors = []

            def serve():
                try:
                    for seed in range(rounds_target):
                        run_one_round(gf, svc, stable.cohort_id, seed=seed)
                except Exception as exc:  # noqa: BLE001 — fail the test
                    errors.append(exc)

            def churn():
                try:
                    for _ in range(4):
                        cohort = svc.add_cohort(
                            spec(pool_size=2, low_water=0)
                        )
                        run_one_round(gf, svc, cohort.cohort_id)
                        svc.remove_cohort(cohort.cohort_id)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=serve)] + [
                threading.Thread(target=churn) for _ in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert errors == []

            snapshot = svc.metrics.snapshot()
            per_cohort = snapshot["cohorts"]
            assert per_cohort[stable.cohort_id]["rounds"] == rounds_target
            # every churn cohort ran exactly one round before retiring
            churn_rounds = sum(
                stats["rounds"] for cid, stats in per_cohort.items()
                if cid != stable.cohort_id
            )
            assert churn_rounds == 8
            assert snapshot["total_rounds"] == rounds_target + 8
            # registry: only the stable cohort remains
            assert [c.cohort_id for c in svc.cohorts] == [stable.cohort_id]
        finally:
            svc.stop()


class TestStopIsTerminal:
    def test_add_cohort_across_stop_leaves_nothing_behind(
        self, gf, monkeypatch
    ):
        """``add_cohort`` parked in ``build_transport`` while ``stop()``
        sweeps the registry used to register a live process-lane cohort
        (two worker children) on a stopped service."""
        svc = make_service(gf)
        entered, release = threading.Event(), threading.Event()
        build = service_module.build_transport

        def held_build(*args, **kwargs):
            entered.set()
            assert release.wait(timeout=30)
            return build(*args, **kwargs)

        monkeypatch.setattr(service_module, "build_transport", held_build)
        outcome = []

        def add():
            try:
                outcome.append(svc.add_cohort(
                    spec(num_shards=2, transport=TransportKind.PROCESS)
                ))
            except ProtocolError as exc:
                outcome.append(exc)

        adder = threading.Thread(target=add)
        adder.start()
        try:
            assert entered.wait(timeout=30)
            svc.stop()
        finally:
            release.set()
        adder.join(timeout=60)
        assert not adder.is_alive()
        assert svc.cohorts == []
        assert [
            p.name for p in multiprocessing.active_children()
            if p.name.startswith("shard-worker-")
        ] == []
        assert isinstance(outcome[0], ProtocolError), outcome
        assert "service is stopped" in str(outcome[0])
        assert svc.refiller._sessions == []

    def test_add_cohort_after_stop_raises(self, gf):
        svc = make_service(gf)
        svc.stop()
        with pytest.raises(ProtocolError, match="service is stopped"):
            svc.add_cohort(spec())
        assert svc.cohorts == []

    def test_never_started_service_accepts_cohorts(self, gf):
        svc = AggregationService(
            ServiceConfig(num_users=N, model_dim=DIM), gf=gf,
            build_cohorts=False,
        )
        try:
            assert svc.add_cohort(spec()).cohort_id == 0
        finally:
            svc.stop()

    def test_stop_releases_pooled_material(self, gf):
        """A stopped service is cyclic garbage; its warmed pools must not
        ride along until whatever gen-2 collection comes next."""
        svc = make_service(gf)
        cohort = svc.add_cohort(spec(num_shards=2))
        sessions = cohort.session.shard_sessions
        assert all(s.pool_level == 3 for s in sessions)
        svc.stop()
        assert all(len(s._pool) == 0 for s in sessions)

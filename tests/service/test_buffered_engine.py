"""Buffered-async round engine: oracle bit-identity + elastic membership.

The acceptance criteria pinned here:

* a buffered cohort drains **bit-identical** to the single-process
  :class:`~repro.asyncfl.secure_aggregator.AsyncSecureAggregator`
  oracle fed the same deliveries and the same drain rng stream — on
  inline (1 and 3 shards), process, and socket transports, across mixed
  staleness, recovery dropouts, and join/leave churn between drains;
* elastic membership re-keys the mask pool: joins/leaves between drains
  invalidate precomputed rounds and subsequent drains still match an
  oracle built for the *new* member set;
* seal/drain ordering holds under concurrent submitters — every update
  drains exactly once, drain indices are a gapless permutation, and the
  buffer never overfills;
* every cohort is this cohort: one built without buffered knobs takes
  submissions and membership changes too, and sweeps run rounds on it.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asyncfl import AsyncDelivery, AsyncSecureAggregator
from repro.exceptions import ProtocolError, ReproError
from repro.field import FiniteField
from repro.protocols.lightsecagg.params import LSAParams
from repro.quantization import ModelQuantizer, QuantizationConfig
from repro.service import (
    AggregationService,
    RefillMode,
    ServiceConfig,
    ShardWorkerServer,
    TransportKind,
)
from repro.service.engines import (
    RoundPhase,
    build_staleness,
    drain_stream,
)

N, K, DIM = 6, 4, 48


@pytest.fixture(scope="module")
def gf():
    return FiniteField()


def buffered_config(**overrides):
    base = dict(
        num_cohorts=1, num_users=N, model_dim=DIM, pool_size=3,
        low_water=1, refill_mode=RefillMode.BACKGROUND,
        buffer_size=K, seed=7,
    )
    base.update(overrides)
    return ServiceConfig(**base)


class Oracle:
    """AsyncSecureAggregator driven with the engine's own rng stream."""

    def __init__(self, gf, num_users, *, staleness_fn="constant",
                 staleness_alpha=1.0, quant_levels=1 << 16, seed=7):
        self.gf = gf
        self.seed = seed
        self.params = LSAParams.from_guarantees(
            num_users, privacy=1, dropout_tolerance=1
        )
        self.quantizer = ModelQuantizer(
            gf, QuantizationConfig(levels=quant_levels)
        )
        self.staleness = build_staleness(staleness_fn, alpha=staleness_alpha)

    def aggregate(self, cohort_id, drain_index, deliveries, recovery=()):
        agg = AsyncSecureAggregator(
            self.gf, self.params, DIM, self.quantizer, self.staleness
        )
        return agg.aggregate(
            deliveries,
            rng=drain_stream(self.seed, cohort_id, drain_index),
            recovery_dropouts=set(recovery),
        )


def submit_all(cohort, subs, dropouts_on_first=()):
    """Push (user_id, download_round, update) tuples; return the drain."""
    result = None
    for i, (uid, dl, vec) in enumerate(subs):
        out = cohort.submit_update(
            uid, vec, download_round=dl,
            dropouts=set(dropouts_on_first) if i == 0 else None,
        )
        if out["drained"]:
            result = out
    assert result is not None, "buffer never sealed"
    return result


def deliveries_for(subs, current_round):
    return [
        AsyncDelivery(user_id=uid, staleness=current_round - dl, update=vec)
        for uid, dl, vec in subs
    ]


class TestOracleBitIdentity:
    """Service drains == single-process oracle, per transport."""

    def _drive(self, gf, svc, *, staleness_fn="constant",
               staleness_alpha=1.0):
        cohort = svc.cohorts[0]
        rng = np.random.default_rng(31)
        oracle = Oracle(gf, N, staleness_fn=staleness_fn,
                        staleness_alpha=staleness_alpha)

        # drain 0: fresh updates, one recovery dropout (member 5).
        subs0 = [(i, 0, rng.normal(size=DIM)) for i in range(K)]
        out0 = submit_all(cohort, subs0, dropouts_on_first=(5,))
        expected0 = oracle.aggregate(0, 0, deliveries_for(subs0, 0),
                                     recovery=(5,))
        np.testing.assert_array_equal(out0["aggregate"], expected0)
        assert out0["drain_index"] == 0 and out0["num_updates"] == K

        # drain 1: mixed staleness — some clients trained on round 0.
        subs1 = [(0, 0, rng.normal(size=DIM)),
                 (2, 1, rng.normal(size=DIM)),
                 (3, 1, rng.normal(size=DIM)),
                 (4, 0, rng.normal(size=DIM))]
        out1 = submit_all(cohort, subs1)
        expected1 = oracle.aggregate(0, 1, deliveries_for(subs1, 1))
        np.testing.assert_array_equal(out1["aggregate"], expected1)
        assert out1["staleness"] == [1, 0, 0, 1]

        # churn: one join and one leave between drains (acceptance bar).
        joined = cohort.join_member()
        assert joined["user_id"] == N and joined["num_users"] == N + 1
        left = cohort.leave_member(1)
        assert left["num_users"] == N

        # drain 2 against an oracle for the *new* member set; the
        # departed member 1 observed as a recovery dropout maps through
        # sorted-member slots (member 6 -> slot 5).
        members = sorted(cohort.engine.members())
        assert members == [0, 2, 3, 4, 5, 6]
        subs2 = [(0, 2, rng.normal(size=DIM)),
                 (2, 1, rng.normal(size=DIM)),
                 (6, 2, rng.normal(size=DIM)),
                 (5, 0, rng.normal(size=DIM))]
        out2 = submit_all(cohort, subs2, dropouts_on_first=(6,))
        oracle2 = Oracle(gf, N, staleness_fn=staleness_fn,
                         staleness_alpha=staleness_alpha)
        expected2 = oracle2.aggregate(
            0, 2, deliveries_for(subs2, 2),
            recovery={members.index(6)},
        )
        np.testing.assert_array_equal(out2["aggregate"], expected2)
        assert cohort.status()["drains"] == 3

    def test_inline_one_shard(self, gf):
        with AggregationService(buffered_config(), gf=gf) as svc:
            self._drive(gf, svc)

    def test_inline_three_shards_polynomial_staleness(self, gf):
        config = buffered_config(
            num_shards=3, staleness_fn="polynomial", staleness_alpha=0.5
        )
        with AggregationService(config, gf=gf) as svc:
            self._drive(gf, svc, staleness_fn="polynomial",
                        staleness_alpha=0.5)

    def test_process_transport(self, gf):
        config = buffered_config(
            num_shards=2, transport=TransportKind.PROCESS, num_workers=2
        )
        with AggregationService(config, gf=gf) as svc:
            self._drive(gf, svc)

    def test_socket_transport(self, gf):
        server = ShardWorkerServer().start()
        try:
            config = buffered_config(
                num_shards=2, transport=TransportKind.SOCKET,
                connect=(server.address,),
            )
            with AggregationService(config, gf=gf) as svc:
                self._drive(gf, svc)
        finally:
            server.stop()

    def test_hinge_staleness(self, gf):
        config = buffered_config(staleness_fn="hinge", staleness_alpha=2.0)
        with AggregationService(config, gf=gf) as svc:
            cohort = svc.cohorts[0]
            rng = np.random.default_rng(5)
            subs = [(i, 0, rng.normal(size=DIM)) for i in range(K)]
            out = submit_all(cohort, subs)
            oracle = Oracle(gf, N, staleness_fn="hinge", staleness_alpha=2.0)
            np.testing.assert_array_equal(
                out["aggregate"], oracle.aggregate(0, 0,
                                                   deliveries_for(subs, 0))
            )


class TestLifecycle:
    def test_phase_transitions_and_status(self, gf):
        with AggregationService(buffered_config(), gf=gf) as svc:
            cohort = svc.cohorts[0]
            engine = cohort.engine
            assert cohort.phase is RoundPhase.IDLE

            rng = np.random.default_rng(0)
            for i in range(K - 1):
                out = cohort.submit_update(i, rng.normal(size=DIM))
                assert not out["drained"]
                assert out["buffer_fill"] == i + 1
                assert cohort.phase is RoundPhase.FILLING

            status = cohort.status()
            assert status["buffer_fill"] == K - 1
            assert status["buffer_capacity"] == K
            assert status["drains"] == 0

            out = cohort.submit_update(K - 1, rng.normal(size=DIM))
            assert out["drained"] and out["round"] == 1
            assert cohort.phase is RoundPhase.IDLE
            phases = [t.phase for t in engine.transitions]
            assert phases[-4:] == [
                RoundPhase.FILLING, RoundPhase.SEALED,
                RoundPhase.AGGREGATING, RoundPhase.IDLE,
            ]
            assert all(
                t.started_at_time > 0 for t in engine.transitions
            )

    def test_scheduler_sweep_runs_rounds_on_a_buffered_cohort(self, gf):
        config = buffered_config()
        with AggregationService(config, gf=gf) as svc:
            rng = np.random.default_rng(1)
            report = svc.run_synthetic(rounds=2, dropout_rate=0.0, rng=rng)
            assert svc.metrics.total_rounds == 2
            cohort = svc.cohorts[0]
            assert cohort.rounds == 2
            assert [sorted(sweep) for sweep in report] == [[0], [0]]
            # rounds advance the server round buffered staleness counts
            status = cohort.status()
            assert status["server_round"] == 2 and status["drains"] == 0

    def test_download_round_validation(self, gf):
        with AggregationService(buffered_config(), gf=gf) as svc:
            cohort = svc.cohorts[0]
            with pytest.raises(ProtocolError, match="download_round"):
                cohort.submit_update(
                    0, np.zeros(DIM), download_round=3
                )

    def test_wrong_shape_rejected(self, gf):
        with AggregationService(buffered_config(), gf=gf) as svc:
            with pytest.raises(ProtocolError, match="shape"):
                svc.submit_update(0, 0, np.zeros(DIM + 1))

    def test_default_cohort_takes_the_buffered_surface(self, gf):
        config = ServiceConfig(
            num_cohorts=1, num_users=N, model_dim=DIM, pool_size=2,
            low_water=1, refill_mode=RefillMode.BACKGROUND,
        )
        with AggregationService(config, gf=gf) as svc:
            cohort = svc.cohorts[0]
            out = cohort.submit_update(0, np.zeros(DIM))
            assert out == {
                "drained": False, "buffer_fill": 1, "buffer_capacity": N,
                "round": 0,
            }
            assert cohort.join_member()["user_id"] == N
            assert cohort.leave_member(0)["num_users"] == N
            # every cohort's status carries the engine's fields
            assert set(cohort.status()) == {
                "cohort_id", "phase", "rounds", "stalls",
                "pool_level", "pool_size", "buffer_fill",
                "buffer_capacity", "drains", "server_round", "num_users",
                "members", "membership_events",
            }


class TestElasticMembership:
    def test_join_invalidates_pool_and_rekeys(self, gf):
        with AggregationService(buffered_config(), gf=gf) as svc:
            cohort = svc.cohorts[0]
            out = cohort.join_member()
            assert out["user_id"] == N
            assert out["num_users"] == N + 1
            assert out["invalidated_rounds"] >= 0
            # the new member can submit immediately
            res = cohort.submit_update(N, np.zeros(DIM))
            assert res["buffer_fill"] == 1

    def test_member_ids_never_reused(self, gf):
        with AggregationService(buffered_config(), gf=gf) as svc:
            cohort = svc.cohorts[0]
            cohort.join_member()          # -> member 6
            cohort.leave_member(6)
            out = cohort.join_member()    # id 6 is burned
            assert out["user_id"] == 7

    def test_leave_validations(self, gf):
        with AggregationService(buffered_config(), gf=gf) as svc:
            cohort = svc.cohorts[0]
            with pytest.raises(ProtocolError, match="no member"):
                cohort.leave_member(99)
            # N=6, buffer K=4: leaving below the seal threshold refuses
            cohort.leave_member(0)
            cohort.leave_member(1)
            with pytest.raises(ProtocolError):
                cohort.leave_member(2)

    def test_departed_member_cannot_submit(self, gf):
        with AggregationService(buffered_config(), gf=gf) as svc:
            cohort = svc.cohorts[0]
            cohort.leave_member(2)
            with pytest.raises(ProtocolError, match="no member 2"):
                cohort.submit_update(2, np.zeros(DIM))


class TestConcurrentSubmitters:
    """Seal/drain ordering under racing submitters."""

    @pytest.mark.parametrize("threads,per_thread", [(4, 3), (6, 4)])
    def test_every_update_drains_exactly_once(self, gf, threads,
                                              per_thread):
        total = threads * per_thread
        assert total % K == 0
        with AggregationService(buffered_config(), gf=gf) as svc:
            cohort = svc.cohorts[0]
            results, errors = [], []
            lock = threading.Lock()

            def worker(slot):
                rng = np.random.default_rng(slot)
                try:
                    for _ in range(per_thread):
                        out = cohort.submit_update(
                            slot % N, rng.normal(size=DIM)
                        )
                        with lock:
                            results.append(out)
                except Exception as exc:  # noqa: BLE001 — fail the test
                    errors.append(exc)

            ts = [threading.Thread(target=worker, args=(i,))
                  for i in range(threads)]
            for t in ts:
                t.start()
            for t in ts:
                t.join(timeout=120)
            assert errors == []

            drains = [r for r in results if r["drained"]]
            fills = [r for r in results if not r["drained"]]
            # every submission is accounted for, each drain took K
            assert len(results) == total
            assert sum(d["num_updates"] for d in drains) == total
            # drain indices are a gapless permutation
            assert sorted(d["drain_index"] for d in drains) == list(
                range(total // K)
            )
            # the buffer never overfilled
            assert all(1 <= r["buffer_fill"] < K for r in fills)
            assert cohort.status()["drains"] == total // K
            assert cohort.status()["buffer_fill"] == 0


@st.composite
def op_sequences(draw):
    """Sequential op scripts: submit / join / leave interleavings."""
    ops = draw(st.lists(
        st.sampled_from(["submit", "submit", "submit", "join", "leave"]),
        min_size=K, max_size=24,
    ))
    return ops


class TestSealDrainOrderingProperties:
    @settings(max_examples=25, deadline=None)
    @given(ops=op_sequences(), seed=st.integers(0, 2**16))
    def test_invariants_over_random_op_interleavings(self, ops, seed):
        gf = FiniteField()
        config = buffered_config(seed=seed)
        svc = AggregationService(config, gf=gf)
        try:
            cohort = svc.cohorts[0]
            engine = cohort.engine
            rng = np.random.default_rng(seed)
            drains_seen = []
            for op in ops:
                members = sorted(engine.members())
                if op == "submit":
                    uid = int(members[int(rng.integers(len(members)))])
                    out = cohort.submit_update(uid, rng.normal(size=DIM))
                    if out["drained"]:
                        drains_seen.append(out["drain_index"])
                        assert out["num_updates"] == K
                    else:
                        assert 1 <= out["buffer_fill"] < K
                elif op == "join":
                    cohort.join_member()
                else:
                    uid = int(members[int(rng.integers(len(members)))])
                    try:
                        cohort.leave_member(uid)
                    except ProtocolError:
                        pass  # geometry floor / below seal threshold
                # invariants after every op
                status = cohort.status()
                assert 0 <= status["buffer_fill"] < K
                assert status["num_users"] == len(engine.members())
                assert status["num_users"] >= max(2, K)
            # drain indices arrive in order with no gaps
            assert drains_seen == list(range(len(drains_seen)))
            assert cohort.phase in (
                RoundPhase.IDLE, RoundPhase.FILLING
            )
        finally:
            svc.stop()


class TestConfigValidation:
    def test_buffer_size_bounds(self, gf):
        with pytest.raises(ReproError, match="buffer_size"):
            buffered_config(buffer_size=N + 1)
        with pytest.raises(ReproError, match="buffer_size"):
            buffered_config(buffer_size=0)

    def test_buffer_size_defaults_to_num_users(self, gf):
        spec = ServiceConfig(num_users=N, model_dim=DIM).cohort_spec()
        assert spec.buffer_size is None and spec.buffer_capacity == N

    def test_unknown_staleness_fn(self, gf):
        with pytest.raises(ReproError, match="staleness_fn"):
            buffered_config(staleness_fn="exponential")

    def test_buffered_knobs_round_trip_through_describe(self, gf):
        config = buffered_config(staleness_fn="polynomial")
        spec = config.cohort_spec()
        assert spec.buffer_size == K
        described = spec.describe()
        assert "kind" not in described
        assert described["buffer_size"] == K
        assert described["staleness_fn"] == "polynomial"

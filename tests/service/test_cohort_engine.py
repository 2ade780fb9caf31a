"""One engine for every cohort: rounds, submissions and join/leave.

Every cohort runs :class:`~repro.service.engines.RoundEngine`; a round
is its seal at unit weight and zero staleness.  Pinned here:

* a cohort built from the default spec goes join -> round -> leave ->
  round, on the inline and socket lanes, and each round is the plain
  field sum of its survivors' updates, keyed by member id;
* rounds and drains share one server round: a drain after a round
  draws the stream of the server round it seals at, and equals the
  :class:`~repro.asyncfl.secure_aggregator.AsyncSecureAggregator`
  oracle under that index;
* the engine's four refusals — every staleness weight quantized to
  zero, fewer than two members, fewer members than the buffer
  capacity, an infeasible re-key — are typed ``ProtocolError`` s that
  leave the cohort idle and ready for its next valid operation;
* an HTTP round on a churned cohort is keyed by its live members.
"""

import json

import numpy as np
import pytest

from repro.asyncfl import AsyncDelivery, AsyncSecureAggregator
from repro.exceptions import ProtocolError
from repro.protocols.lightsecagg.params import LSAParams
from repro.quantization import ModelQuantizer, QuantizationConfig
from repro.service import (
    AggregationService,
    RefillMode,
    RoundPhase,
    ServiceConfig,
    ShardWorkerServer,
    TransportKind,
)
from repro.service.api import (
    ControlPlane,
    decode_vector,
    dispatch,
    encode_vector,
)
from repro.service.engines import build_staleness, drain_stream

DIM = 40


def field_sum(gf, updates, members):
    return gf.sum(np.stack([updates[m] for m in members]), axis=0)


def round_inputs(gf, members, seed):
    rng = np.random.default_rng(seed)
    return {m: gf.random(DIM, rng) for m in members}


def check_round(gf, cohort, members, dropouts, seed):
    updates = round_inputs(gf, members, seed)
    result = cohort.run_round(updates, set(dropouts))
    survivors = [m for m in members if m not in dropouts]
    assert result.survivors == survivors
    assert np.array_equal(result.aggregate, field_sum(gf, updates, survivors))


class TestDefaultSpecCohortChurns:
    """join -> round -> leave -> round on a cohort no knob made buffered."""

    def drive(self, gf, **lane):
        config = ServiceConfig(
            model_dim=DIM, num_shards=2,
            refill_mode=RefillMode.BACKGROUND, low_water=1, **lane,
        )
        with AggregationService(config, gf=gf) as svc:
            cohort = svc.cohorts[0]
            n = config.num_users
            assert cohort.engine.members() == list(range(n))
            assert cohort.join_member()["user_id"] == n
            check_round(gf, cohort, list(range(n + 1)), {3}, seed=1)
            assert cohort.leave_member(0)["num_users"] == n
            members = list(range(1, n + 1))
            assert cohort.engine.members() == members
            check_round(gf, cohort, members, {n}, seed=2)
            status = cohort.status()
            assert (status["rounds"], status["server_round"]) == (2, 2)
            assert status["membership_events"] == {"join": 1, "leave": 1}

    def test_inline(self, gf):
        self.drive(gf)

    def test_socket(self, gf):
        worker = ShardWorkerServer().start()
        try:
            self.drive(
                gf, transport=TransportKind.SOCKET,
                connect=(worker.address,),
            )
        finally:
            worker.stop()

    def test_unknown_member_is_refused_before_the_session(self, gf):
        with AggregationService(ServiceConfig(model_dim=DIM), gf=gf) as svc:
            cohort = svc.cohorts[0]
            updates = round_inputs(gf, range(8), seed=3)
            updates[9] = updates.pop(7)
            with pytest.raises(ProtocolError, match=r"no member\(s\) \[9\]"):
                cohort.run_round(updates, set())
            assert cohort.phase is RoundPhase.IDLE
            check_round(gf, cohort, list(range(8)), set(), seed=4)


class TestRoundThenDrain:
    N, K, SEED = 6, 4, 21

    def test_drain_draws_the_server_round_it_seals_at(self, gf):
        config = ServiceConfig(
            num_users=self.N, model_dim=DIM, buffer_size=self.K,
            pool_size=3, seed=self.SEED,
        )
        with AggregationService(config, gf=gf) as svc:
            cohort = svc.cohorts[0]
            check_round(gf, cohort, list(range(self.N)), {2}, seed=5)
            rng = np.random.default_rng(6)
            # download rounds 0 and 1: the round moved the model once
            subs = [(u, u % 2, rng.normal(size=DIM)) for u in range(self.K)]
            for uid, dl, vec in subs:
                out = cohort.submit_update(uid, vec, download_round=dl)
            assert out["drained"]
            # the stated rule: one round, then this drain -> index 1
            assert (out["drain_index"], out["round"]) == (1, 2)
            assert out["staleness"] == [1, 0, 1, 0]
            oracle = AsyncSecureAggregator(
                gf,
                LSAParams.from_guarantees(
                    self.N, privacy=1, dropout_tolerance=1
                ),
                DIM,
                ModelQuantizer(gf, QuantizationConfig(levels=1 << 16)),
                build_staleness("constant"),
            )
            expected = oracle.aggregate(
                [AsyncDelivery(user_id=u, staleness=1 - dl, update=v)
                 for u, dl, v in subs],
                rng=drain_stream(self.SEED, cohort.cohort_id, 1),
                recovery_dropouts=set(),
            )
            np.testing.assert_array_equal(out["aggregate"], expected)
            status = cohort.status()
            assert (status["rounds"], status["drains"]) == (2, 1)
            assert status["server_round"] == 2


# ----------------------------------------------------------------------
# the engine's refusals, each followed by a valid operation
# ----------------------------------------------------------------------
def six_drains_then_a_stale_one(cohort):
    for _ in range(6):
        assert cohort.submit_update(0, np.ones(DIM))["drained"]
    cohort.submit_update(0, np.ones(DIM), download_round=0)


def fresh_drain(gf, cohort):
    assert cohort.submit_update(1, np.ones(DIM))["drained"]


def join(gf, cohort):
    assert cohort.join_member()["num_users"] == 5


#: arm -> (spec overrides, provoke, error, the next valid operation)
ERROR_ARMS = {
    "zero-weights": (
        dict(num_users=4, buffer_size=1, staleness_fn="polynomial",
             staleness_alpha=8.0, staleness_levels=1),
        six_drains_then_a_stale_one,
        "all staleness weights quantized to zero",
        fresh_drain,
    ),
    "below-two-members": (
        dict(num_users=2, privacy=0, dropout_tolerance=0, buffer_size=1),
        lambda c: c.leave_member(0),
        "cannot drop below 2 members",
        lambda gf, c: check_round(gf, c, [0, 1], set(), seed=7),
    ),
    "below-buffer-capacity": (
        dict(num_users=4),
        lambda c: c.leave_member(0),
        "fewer than the buffer capacity 4",
        join,
    ),
    "infeasible-rekey": (
        dict(num_users=4, buffer_size=2),
        lambda c: (c.leave_member(0), c.leave_member(1)),
        "infeasible membership change to N=2 with T=1, D=1",
        lambda gf, c: check_round(gf, c, [1, 2, 3], set(), seed=8),
    ),
}


@pytest.mark.parametrize("arm", sorted(ERROR_ARMS))
def test_refusal_leaves_the_cohort_idle_and_ready(gf, arm):
    overrides, provoke, message, next_op = ERROR_ARMS[arm]
    config = ServiceConfig(model_dim=DIM, pool_size=2, **overrides)
    with AggregationService(config, gf=gf) as svc:
        cohort = svc.cohorts[0]
        members = cohort.engine.members()
        with pytest.raises(ProtocolError, match=message):
            provoke(cohort)
        assert cohort.phase is RoundPhase.IDLE
        status = cohort.status()
        assert status["phase"] == "idle"
        assert status["buffer_fill"] == 0
        if arm != "infeasible-rekey":  # its first leave went through
            assert cohort.engine.members() == members
        next_op(gf, cohort)
        assert cohort.phase is RoundPhase.IDLE


def test_http_round_is_keyed_by_live_members(gf):
    """After a join and a leave the round body names members 1..N; an
    id outside them is a 400 naming the update, not a 409 later."""
    service = AggregationService(
        ServiceConfig(), gf=gf, build_cohorts=False
    ).start()
    control = ControlPlane(service)
    try:
        spec = {"model_dim": DIM, "buffer_size": 4}
        assert dispatch(control, "POST", "/cohorts", spec).status == 201
        assert dispatch(control, "POST", "/cohorts/0/members", {}).status \
            == 201
        assert dispatch(control, "DELETE", "/cohorts/0/members/0", {}) \
            .status == 200
        members = list(range(1, 9))
        updates = round_inputs(gf, members, seed=9)
        body = {
            "updates": {
                str(m): encode_vector(v, "u32", gf.q)
                for m, v in updates.items()
            },
            "dropouts": [8],
        }
        response = dispatch(control, "POST", "/cohorts/0/rounds", body)
        assert response.status == 200, response.body
        reply = json.loads(response.body)
        assert reply["survivors"] == members[:-1]
        aggregate = decode_vector(reply["aggregate"], "u32", gf.q, DIM, "")
        assert np.array_equal(
            aggregate, field_sum(gf, updates, members[:-1])
        )
        body["updates"]["0"] = body["updates"].pop("8")
        refused = json.loads(
            dispatch(control, "POST", "/cohorts/0/rounds", body).body
        )
        assert refused["error"]["field"] == "updates[0]"
    finally:
        control.drain()

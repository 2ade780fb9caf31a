"""HTTP surface of the buffered-async workload.

The acceptance criteria pinned here:

* a buffered cohort created over ``POST /cohorts`` fills via
  ``POST /cohorts/{id}/updates`` (f64 payloads), drains at K, and the
  returned aggregate is **byte-identical** to the single-process
  :class:`~repro.asyncfl.secure_aggregator.AsyncSecureAggregator`
  oracle — on inline AND socket transports, including after at least
  one join (``POST .../members``) and one leave
  (``DELETE .../members/{u}``);
* every new error lane answers its status with a JSON body.
"""

import base64
import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.asyncfl import AsyncDelivery, AsyncSecureAggregator
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
from repro.service.api import (
    ControlPlane,
    ControlPlaneServer,
    SchemaError,
    SubmitUpdateRequest,
    decode_real_vector,
    encode_real_vector,
    encode_vector,
)
from repro.service.engines import build_staleness, drain_stream

N, K, DIM = 6, 4, 48


@pytest.fixture(scope="module")
def gf():
    return FiniteField()


def make_daemon(gf, **config_kwargs):
    config = ServiceConfig(refill_mode=RefillMode.BACKGROUND,
                           **config_kwargs)
    service = AggregationService(config, gf=gf, build_cohorts=False).start()
    control = ControlPlane(service)
    server = ControlPlaneServer(control).start()
    return service, control, server


class Client:
    def __init__(self, address):
        self.base = f"http://{address}"

    def request(self, method, path, body=None, timeout=30):
        data = None if body is None else json.dumps(body).encode()
        req = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, body=None):
        return self.request("POST", path, body or {})

    def delete(self, path):
        return self.request("DELETE", path)


def buffered_spec(**overrides):
    body = {"num_users": N, "model_dim": DIM, "pool_size": 3,
            "low_water": 1, "kind": "buffered", "buffer_size": K,
            "seed": 13}
    body.update(overrides)
    return body


def oracle_aggregate(gf, num_users, cohort_id, drain_index, deliveries,
                     *, seed=13, recovery=()):
    agg = AsyncSecureAggregator(
        gf,
        LSAParams.from_guarantees(num_users, privacy=1,
                                  dropout_tolerance=1),
        DIM,
        ModelQuantizer(gf, QuantizationConfig(levels=1 << 16)),
        build_staleness("constant"),
    )
    return agg.aggregate(
        deliveries,
        rng=drain_stream(seed, cohort_id, drain_index),
        recovery_dropouts=set(recovery),
    )


def submit(client, cid, uid, vec, download_round=None, dropouts=None):
    body = {"user_id": uid, "update": encode_real_vector(vec)}
    if download_round is not None:
        body["download_round"] = download_round
    if dropouts is not None:
        body["dropouts"] = sorted(dropouts)
    return client.post(f"/cohorts/{cid}/updates", body)


def drive_buffered_acceptance(gf, client):
    """Two drains with one join and one leave in between, vs oracle."""
    status, created = client.post("/cohorts", buffered_spec())
    assert status == 201
    cid = created["cohort_id"]
    assert "kind" not in created and "kind" not in created["spec"]
    assert created["buffer_capacity"] == K

    rng = np.random.default_rng(3)

    # drain 0: fresh updates, member 5 flagged for recovery
    subs0 = [(i, rng.normal(size=DIM)) for i in range(K)]
    sealed = None
    for j, (uid, vec) in enumerate(subs0):
        status, out = submit(client, cid, uid, vec, download_round=0,
                             dropouts={5} if j == 0 else None)
        assert status == 200, out
        if out.get("drained"):
            sealed = out
    got = np.frombuffer(base64.b64decode(sealed["aggregate"]),
                        dtype="<f8")
    expected = oracle_aggregate(
        gf, N, cid, 0,
        [AsyncDelivery(user_id=u, staleness=0, update=v)
         for u, v in subs0],
        recovery={5},
    )
    np.testing.assert_array_equal(got, expected)

    # churn between drains: one join, one leave (the acceptance bar)
    status, joined = client.post(f"/cohorts/{cid}/members")
    assert status == 201 and joined["user_id"] == N
    status, left = client.delete(f"/cohorts/{cid}/members/1")
    assert status == 200 and left["num_users"] == N

    # drain 1 with mixed staleness against the re-keyed member set
    subs1 = [(0, 0, rng.normal(size=DIM)), (2, 1, rng.normal(size=DIM)),
             (3, 1, rng.normal(size=DIM)), (6, 0, rng.normal(size=DIM))]
    sealed = None
    for uid, dl, vec in subs1:
        status, out = submit(client, cid, uid, vec, download_round=dl)
        assert status == 200, out
        if out.get("drained"):
            sealed = out
    got = np.frombuffer(base64.b64decode(sealed["aggregate"]),
                        dtype="<f8")
    expected = oracle_aggregate(
        gf, N, cid, 1,
        [AsyncDelivery(user_id=u, staleness=1 - dl, update=v)
         for u, dl, v in subs1],
    )
    np.testing.assert_array_equal(got, expected)
    assert sealed["staleness"] == [1, 0, 0, 1]

    # the cohort status surfaces the buffered fields over HTTP
    status, body = client.get(f"/cohorts/{cid}")
    assert body["buffer_fill"] == 0
    assert body["drains"] == 2
    assert body["members"] == [0, 2, 3, 4, 5, 6]


class TestBufferedBitIdentity:
    def test_inline_transport(self, gf):
        service, control, server = make_daemon(gf)
        try:
            drive_buffered_acceptance(gf, Client(server.address))
        finally:
            server.stop()
            service.stop()

    def test_socket_transport(self, gf):
        worker = ShardWorkerServer().start()
        try:
            service, control, server = make_daemon(
                gf, transport=TransportKind.SOCKET,
                connect=(worker.address,),
            )
            try:
                client = Client(server.address)
                drive_buffered_acceptance(
                    gf,
                    _SpecClient(client, {"num_shards": 2}),
                )
            finally:
                server.stop()
                service.stop()
        finally:
            worker.stop()


class _SpecClient:
    """Client wrapper injecting extra spec fields into POST /cohorts."""

    def __init__(self, inner, extra_spec):
        self.inner = inner
        self.extra_spec = extra_spec

    def post(self, path, body=None):
        if path == "/cohorts":
            body = {**(body or {}), **self.extra_spec}
        return self.inner.post(path, body)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestErrorLanes:
    def test_submit_and_join_on_a_cohort_without_kind(self, gf):
        service, control, server = make_daemon(gf)
        try:
            client = Client(server.address)
            _, made = client.post("/cohorts", {
                "num_users": N, "model_dim": DIM, "pool_size": 2,
                "low_water": 1,
            })
            status, body = submit(
                client, made["cohort_id"], 0, np.zeros(DIM)
            )
            assert status == 200, body
            assert (body["drained"], body["buffer_fill"]) == (False, 1)
            status, body = client.post(
                f"/cohorts/{made['cohort_id']}/members"
            )
            assert status == 201 and body["user_id"] == N
        finally:
            server.stop()
            service.stop()

    def test_kind_key_is_accepted_and_dropped_or_a_400(self, gf):
        """The benchmark's buffered churn workload still posts
        ``"kind": "buffered"``; any other kind is refused by name."""
        service, control, server = make_daemon(gf)
        try:
            client = Client(server.address)
            for kind in ("buffered", "sync"):
                status, made = client.post(
                    "/cohorts", buffered_spec(kind=kind)
                )
                assert status == 201, made
                assert "kind" not in made and "kind" not in made["spec"]
            status, body = client.post(
                "/cohorts", buffered_spec(kind="bogus")
            )
            assert status == 400
            assert body["error"]["type"] == "validation"
            assert body["error"]["field"] == "kind"
            assert "bogus" in body["error"]["message"]
            assert len(service.cohorts) == 2
        finally:
            server.stop()
            service.stop()

    def test_departed_member_409_and_unknown_member_409(self, gf):
        service, control, server = make_daemon(gf)
        try:
            client = Client(server.address)
            _, made = client.post("/cohorts", buffered_spec())
            cid = made["cohort_id"]
            client.delete(f"/cohorts/{cid}/members/2")
            status, body = submit(client, cid, 2, np.zeros(DIM))
            assert status == 409 and "member 2" in body["error"]["message"]
            status, body = client.delete(f"/cohorts/{cid}/members/99")
            assert status == 409
        finally:
            server.stop()
            service.stop()

    def test_bad_spec_and_bad_payload_400(self, gf):
        service, control, server = make_daemon(gf)
        try:
            client = Client(server.address)
            # buffer_size out of range -> 400, not a cohort
            status, body = client.post(
                "/cohorts", buffered_spec(buffer_size=N + 1)
            )
            assert status == 400, body
            # short payload -> 400 validation
            _, made = client.post("/cohorts", buffered_spec())
            status, body = client.post(
                f"/cohorts/{made['cohort_id']}/updates",
                {"user_id": 0,
                 "update": encode_real_vector(np.zeros(DIM - 1))},
            )
            assert status == 400
            assert body["error"]["type"] == "validation"
            # integer-field payloads are not a buffered encoding
            status, body = client.post(
                f"/cohorts/{made['cohort_id']}/updates",
                {"user_id": 0,
                 "update": encode_vector(np.zeros(DIM, dtype=np.uint64),
                                         "u32", gf.q),
                 "encoding": "u32"},
            )
            assert status == 400
        finally:
            server.stop()
            service.stop()


class TestSchemas:
    def test_f64_round_trip(self):
        rng = np.random.default_rng(0)
        vec = rng.normal(size=DIM)
        out = decode_real_vector(encode_real_vector(vec), DIM, "update")
        np.testing.assert_array_equal(out, vec)

    def test_f64_rejects_wrong_length(self):
        with pytest.raises(SchemaError):
            decode_real_vector(
                encode_real_vector(np.zeros(DIM)), DIM + 1, "update"
            )

    def test_f64_rejects_non_finite(self):
        bad = np.zeros(DIM)
        bad[3] = np.inf
        with pytest.raises(SchemaError, match="finite"):
            decode_real_vector(encode_real_vector(bad), DIM, "update")

    def test_f64_rejects_garbage_base64(self):
        with pytest.raises(SchemaError):
            decode_real_vector("!!!not-base64!!!", DIM, "update")

    def test_submit_request_validation(self):
        ok = SubmitUpdateRequest.from_json(
            {"user_id": 3, "update": encode_real_vector(np.zeros(4)),
             "download_round": 2, "dropouts": [1, 5]}
        )
        assert ok.user_id == 3 and ok.download_round == 2
        assert ok.dropouts == (1, 5)
        np.testing.assert_array_equal(ok.decode(4), np.zeros(4))

        with pytest.raises(SchemaError, match="user_id"):
            SubmitUpdateRequest.from_json(
                {"update": encode_real_vector(np.zeros(4))}
            )
        with pytest.raises(SchemaError, match="encoding"):
            SubmitUpdateRequest.from_json(
                {"user_id": 0, "update": "AA==", "encoding": "u32"}
            )
        with pytest.raises(SchemaError, match="download_round"):
            SubmitUpdateRequest.from_json(
                {"user_id": 0, "update": "AA==", "download_round": -1}
            )
        with pytest.raises(SchemaError):
            SubmitUpdateRequest.from_json(
                {"user_id": 0, "update": "AA==", "unknown_field": 1}
            )

"""In-process HTTP tests for the control plane (the PR's acceptance bar).

* a cohort created via ``POST /cohorts`` completes a round
  **bit-identical** to the same config driven through the synchronous
  :class:`AggregationService` path — on inline AND socket transports;
* ``POST /drain`` with a round in flight returns that round's result to
  its caller, then the drain summary, and the server stops with zero
  leaked threads;
* every error lane answers with its status and a JSON body, never a
  traceback.
"""

import base64
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.field import FiniteField
from repro.service import (
    AggregationService,
    RefillMode,
    ServiceConfig,
    ShardWorkerServer,
    TransportKind,
)
from repro.service.api import (
    ENCODINGS,
    ControlPlane,
    ControlPlaneServer,
    RoundRequest,
    decode_vector,
    encode_vector,
)
from repro.service.api import server as server_module

N, DIM = 6, 96


@pytest.fixture(scope="module")
def gf():
    return FiniteField()


def make_daemon(gf, **config_kwargs):
    """An empty started daemon: service + control + HTTP listener."""
    config = ServiceConfig(
        refill_mode=RefillMode.BACKGROUND, **config_kwargs
    )
    service = AggregationService(config, gf=gf, build_cohorts=False).start()
    control = ControlPlane(service)
    server = ControlPlaneServer(control).start()
    return service, control, server


class Client:
    """Tiny urllib JSON client pinned to one daemon."""

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
                ctype = resp.headers.get("Content-Type", "")
                raw = resp.read()
                if ctype.startswith("application/json"):
                    return resp.status, json.loads(raw)
                return resp.status, raw.decode()
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, body=None):
        return self.request("POST", path, body or {})

    def delete(self, path):
        return self.request("DELETE", path)


def raw_request(address, text):
    """Send raw bytes; return (status, headers, JSON body).

    For requests urllib refuses to build (malformed framing headers).
    An empty reply — the handler thread died — fails the status parse.
    """
    host, port = address.split(":")
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(text.encode("ascii"))
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("ascii").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split()[1]), headers, json.loads(payload)


def spec_body(**overrides):
    body = {"num_users": N, "model_dim": DIM, "pool_size": 3,
            "low_water": 1}
    body.update(overrides)
    return body


def reference_round(gf, updates, dropouts, *, seed=0, **spec_overrides):
    """The same cohort driven through the synchronous library path."""
    body = spec_body(**spec_overrides)
    config = ServiceConfig(
        num_cohorts=1,
        num_users=body["num_users"],
        model_dim=body["model_dim"],
        pool_size=body["pool_size"],
        low_water=body["low_water"],
        num_shards=body.get("num_shards", 1),
        transport=TransportKind(body.get("transport", "inline")),
        connect=tuple(body["connect"]) if "connect" in body else None,
        seed=seed,
    )
    svc = AggregationService(config, gf=gf).start()
    try:
        return svc.run_round(0, dict(updates), set(dropouts))
    finally:
        svc.stop()


def field_sum(gf, updates, survivors):
    """The plain field sum of the survivors' vectors, mod q."""
    total = sum(updates[u].astype(object) for u in survivors)
    return np.asarray(total % gf.q, dtype=np.uint64)


def drive_round_over_http(gf, client, updates, dropouts, encoding="packed"):
    payload = {
        "updates": {
            str(uid): encode_vector(vec, encoding, gf.q)
            for uid, vec in updates.items()
        },
        "dropouts": sorted(dropouts),
        "encoding": encoding,
    }
    return client.post("/cohorts/0/rounds", payload)


class TestBitIdentity:
    """POST /cohorts + POST rounds == the synchronous library path."""

    @pytest.mark.parametrize("encoding", ["u32", "packed"])
    def test_inline_transport(self, gf, encoding):
        rng = np.random.default_rng(5)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        dropouts = {1, 4}
        expected = reference_round(gf, updates, dropouts)

        service, control, server = make_daemon(gf)
        try:
            client = Client(server.address)
            status, created = client.post("/cohorts", spec_body())
            assert status == 201 and created["cohort_id"] == 0
            status, round_body = drive_round_over_http(
                gf, client, updates, dropouts, encoding
            )
            assert status == 200
            assert round_body["encoding"] == encoding
            assert round_body["survivors"] == sorted(expected.survivors)
            aggregate = decode_vector(
                round_body["aggregate"], encoding, gf.q, DIM, "aggregate"
            )
            assert np.array_equal(aggregate, expected.aggregate)
            assert np.array_equal(
                aggregate, field_sum(gf, updates, expected.survivors)
            )
        finally:
            control.drain()
            server.stop()

    def test_process_transport_u32_and_packed_agree(self, gf):
        """The same vectors sent as u32 and as packed to a process-lane
        cohort: bit-identical aggregates, both the plain field sum of
        the survivors."""
        rng = np.random.default_rng(9)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        dropouts = {2}
        service, control, server = make_daemon(gf)
        try:
            client = Client(server.address)
            status, _ = client.post(
                "/cohorts", spec_body(transport="process", num_shards=2)
            )
            assert status == 201
            aggregates = {}
            for encoding in ENCODINGS:
                status, body = drive_round_over_http(
                    gf, client, updates, dropouts, encoding
                )
                assert status == 200 and body["encoding"] == encoding
                aggregates[encoding] = decode_vector(
                    body["aggregate"], encoding, gf.q, DIM, "aggregate"
                )
            survivors = sorted(set(updates) - dropouts)
            assert body["survivors"] == survivors
            plain = field_sum(gf, updates, survivors)
            for aggregate in aggregates.values():
                assert np.array_equal(aggregate, plain)
        finally:
            control.drain()
            server.stop()

    def test_socket_transport(self, gf):
        rng = np.random.default_rng(6)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        dropouts = {0}
        with ShardWorkerServer() as worker:
            overrides = dict(
                transport="socket", num_shards=2,
                connect=[worker.address],
            )
            expected = reference_round(gf, updates, dropouts, **overrides)
            service, control, server = make_daemon(gf)
            try:
                client = Client(server.address)
                status, created = client.post(
                    "/cohorts", spec_body(**overrides)
                )
                assert status == 201
                assert created["spec"]["transport"] == "socket"
                status, round_body = drive_round_over_http(
                    gf, client, updates, dropouts
                )
                assert status == 200
                aggregate = decode_vector(
                    round_body["aggregate"], "packed", gf.q, DIM,
                    "aggregate",
                )
                assert round_body["survivors"] == sorted(expected.survivors)
                assert np.array_equal(aggregate, expected.aggregate)
            finally:
                control.drain()
                server.stop()

    def test_synthetic_round_matches_library_synthetic(self, gf):
        """A synthetic HTTP round equals run_synthetic at equal seeds."""
        config = ServiceConfig(
            num_cohorts=1, num_users=N, model_dim=DIM, pool_size=3
        )
        svc = AggregationService(config, gf=gf).start()
        try:
            reference = svc.run_synthetic(
                rounds=1, dropout_rate=0.3,
                rng=np.random.default_rng(17),
            )
        finally:
            svc.stop()

        service, control, server = make_daemon(gf)
        try:
            client = Client(server.address)
            client.post("/cohorts", spec_body())
            status, body = client.post(
                "/cohorts/0/rounds",
                {"synthetic": {"seed": 17, "dropout_rate": 0.3},
                 "encoding": "u32"},
            )
            assert status == 200
            aggregate = decode_vector(
                body["aggregate"], "u32", gf.q, DIM, "aggregate"
            )
            ref = reference[0][0]  # first sweep, cohort 0
            assert body["survivors"] == sorted(ref.survivors)
            assert np.array_equal(aggregate, ref.aggregate)
        finally:
            control.drain()
            server.stop()


def test_round_reply_names_its_own_seal(gf):
    """A second seal on the cohort that lands between a round's seal and
    its reply must not shift the reply: ``round`` is the server round
    that seal advanced the cohort to (the drain reply's convention)."""
    config = ServiceConfig(num_users=N, model_dim=DIM, pool_size=3)
    service = AggregationService(config, gf=gf).start()
    try:
        cohort = service.cohorts[0]
        seal = cohort.run_round

        def seal_then_race(updates, dropouts):
            result = seal(updates, dropouts)
            seal(updates, dropouts)  # the racing seal, before the reply
            return result

        cohort.run_round = seal_then_race
        request = RoundRequest.from_json({"synthetic": {"seed": 0}})
        reply = ControlPlane(service).run_round(0, request)
        assert reply.round_index == 1
        assert reply.to_json()["round"] == 1
        assert cohort.status()["rounds"] == 2
    finally:
        service.stop()


class TestLifecycleAndErrors:
    def test_error_lanes(self, gf):
        service, control, server = make_daemon(gf)
        try:
            client = Client(server.address)
            # 404: unknown route and unknown cohort
            assert client.get("/nope")[0] == 404
            status, body = client.get("/cohorts/7")
            assert status == 404 and body["error"]["type"] == "not-found"
            # 405: wrong method on a real route
            status, body = client.delete("/cohorts")
            assert status == 405
            assert "GET" in body["error"]["message"]
            # 400 validation with field attribution
            status, body = client.post("/cohorts", {"num_users": "six"})
            assert status == 400
            assert body["error"]["type"] == "validation"
            assert body["error"]["field"] == "num_users"
            # ...and for a transport name that is not a lane
            status, body = client.post("/cohorts", spec_body(transport="shm"))
            assert status == 400
            assert body["error"]["field"] == "transport"
            # 400 invalid-spec from the config layer
            status, body = client.post("/cohorts", spec_body(num_users=1))
            assert status == 400
            assert body["error"]["type"] == "invalid-spec"
            # 400 invalid JSON body
            req = urllib.request.Request(
                client.base + "/cohorts", data=b"not json", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(req, timeout=30)
            assert excinfo.value.code == 400
            # 409: round against a cohort that does not admit it
            client.post("/cohorts", spec_body())
            status, _ = client.post(
                "/cohorts/0/rounds",
                {"synthetic": {"seed": 0, "dropout_rate": 0.9}},
            )
            assert status == 409  # too many dropouts -> ProtocolError
            # 400: u64 is not an encoding, and under the default u32 a
            # body of 8-byte words is the wrong length
            status, body = client.post(
                "/cohorts/0/rounds", {"synthetic": {}, "encoding": "u64"}
            )
            assert status == 400 and body["error"]["field"] == "encoding"
            assert "['u32', 'packed']" in body["error"]["message"]
            u64_words = base64.b64encode(
                np.zeros(DIM, dtype="<u8").tobytes()
            ).decode()
            status, body = client.post(
                "/cohorts/0/rounds",
                {"updates": {str(i): u64_words for i in range(N)}},
            )
            assert status == 400 and body["error"]["type"] == "validation"
            assert body["error"]["field"] == "updates[0]"
        finally:
            control.drain()
            server.stop()

    def test_aliased_update_key_is_a_400_not_a_dropped_upload(self, gf):
        """``"1"`` beside ``"01"`` (or ``"+1"``, ``" 1"``, ``"1_0"``, an
        Arabic-Indic digit) used to collapse onto one user id: the later
        vector replaced the earlier one and the round answered 200."""
        rng = np.random.default_rng(8)
        updates = {i: gf.random(DIM, rng) for i in range(N)}
        payload = {
            "updates": {
                str(uid): encode_vector(vec, "u32", gf.q)
                for uid, vec in updates.items()
            },
        }
        other = encode_vector(gf.random(DIM, rng), "u32", gf.q)
        service, control, server = make_daemon(gf)
        try:
            client = Client(server.address)
            client.post("/cohorts", spec_body())
            for alias in ("01", "+1", " 1", "1_0", "\u0661"):
                body = {"updates": {**payload["updates"], alias: other}}
                status, reply = client.post("/cohorts/0/rounds", body)
                assert status == 400, alias
                assert reply["error"]["type"] == "validation"
                assert reply["error"]["field"] == f"updates[{alias!r}]"
            # none of those ran a round: the canonical body is round 1
            status, reply = client.post("/cohorts/0/rounds", payload)
            assert status == 200 and reply["round"] == 1
            assert reply["survivors"] == list(range(N))
        finally:
            control.drain()
            server.stop()

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_a_typed_400(self, gf, length):
        """``abc`` used to kill the handler thread (dropped connection);
        ``-5`` was read as an empty body, so the POST created a default
        cohort.  Both are refused, typed, and create nothing."""
        service, control, server = make_daemon(gf)
        try:
            status, _, body = raw_request(
                server.address,
                "POST /cohorts HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {length}\r\n\r\n",
            )
            assert status == 400
            assert body["error"]["type"] == "invalid-content-length"
            assert length in body["error"]["message"]
            status, listing = Client(server.address).get("/cohorts")
            assert status == 200 and listing["cohorts"] == []
        finally:
            control.drain()
            server.stop()

    def test_oversized_content_length_is_a_typed_413(self, gf):
        """A declared length above ``MAX_BODY_BYTES`` used to park the
        handler thread in ``rfile.read`` on a body that never arrives
        (this request would hang until the client gave up).  It is
        refused unread, the connection closed, nothing created."""
        service, control, server = make_daemon(gf)
        try:
            length = server_module.MAX_BODY_BYTES + 1
            status, _, body = raw_request(
                server.address,
                "POST /cohorts HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {length}\r\n\r\n",
            )
            assert status == 413
            assert body["error"]["type"] == "body-too-large"
            assert str(length) in body["error"]["message"]
            status, listing = Client(server.address).get("/cohorts")
            assert status == 200 and listing["cohorts"] == []
        finally:
            control.drain()
            server.stop()

    def test_405_sends_the_allow_header(self, gf):
        service, control, server = make_daemon(gf)
        try:
            status, headers, body = raw_request(
                server.address,
                "DELETE /cohorts HTTP/1.1\r\nHost: x\r\n"
                "Connection: close\r\n\r\n",
            )
            assert status == 405
            assert body["error"]["type"] == "method-not-allowed"
            assert headers["Allow"] == "GET, POST"
        finally:
            control.drain()
            server.stop()

    def test_delete_cohort_leaves_neighbours_serving(self, gf):
        service, control, server = make_daemon(gf)
        try:
            client = Client(server.address)
            client.post("/cohorts", spec_body())
            client.post("/cohorts", spec_body())
            status, body = client.delete("/cohorts/0")
            assert status == 200 and body == {"cohort_id": 0, "closed": True}
            # deleted cohort is gone; neighbour still serves rounds
            assert client.get("/cohorts/0")[0] == 404
            status, _ = client.post(
                "/cohorts/1/rounds", {"synthetic": {"seed": 1}}
            )
            assert status == 200
            status, listing = client.get("/cohorts")
            assert [c["cohort_id"] for c in listing["cohorts"]] == [1]
            # a later create never recycles the retired id
            status, created = client.post("/cohorts", spec_body())
            assert created["cohort_id"] == 2
        finally:
            control.drain()
            server.stop()

    def test_healthz_and_metrics_content_type(self, gf):
        service, control, server = make_daemon(gf)
        try:
            client = Client(server.address)
            status, body = client.get("/healthz")
            assert status == 200 and body["status"] == "ok"
            req = urllib.request.Request(client.base + "/metrics")
            with urllib.request.urlopen(req, timeout=30) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
                text = resp.read().decode()
            assert "# TYPE repro_uptime_seconds gauge" in text
        finally:
            control.drain()
            server.stop()


class TestDrain:
    def test_drain_with_round_in_flight(self, gf, monkeypatch):
        """The acceptance scenario: a round is mid-flight when /drain
        lands.  The round's caller still gets its 200 + aggregate, the
        drain summary counts it, the process is left thread-clean."""
        before = set(threading.enumerate())
        service, control, server = make_daemon(gf)
        client = Client(server.address)
        client.post("/cohorts", spec_body())

        release = threading.Event()
        entered = threading.Event()
        cohort = service.cohorts[0]
        original = cohort.run_round

        def slow_round(*args, **kwargs):
            entered.set()
            assert release.wait(timeout=30)
            return original(*args, **kwargs)

        monkeypatch.setattr(cohort, "run_round", slow_round)

        round_result = {}

        def submit():
            round_result["response"] = client.post(
                "/cohorts/0/rounds", {"synthetic": {"seed": 2}}
            )

        t = threading.Thread(target=submit)
        t.start()
        assert entered.wait(timeout=30)

        drain_result = {}

        def drain():
            drain_result["response"] = client.post("/drain")

        td = threading.Thread(target=drain)
        td.start()
        # drain must wait for the in-flight round, not race past it
        time.sleep(0.2)
        assert control._drain_summary is None
        # ...and must already refuse new work
        status, body = client.post(
            "/cohorts/0/rounds", {"synthetic": {"seed": 3}}
        )
        assert status == 409 and "draining" in body["error"]["message"]
        assert client.post("/cohorts", spec_body())[0] == 409

        release.set()
        t.join(timeout=30)
        td.join(timeout=30)
        status, body = round_result["response"]
        assert status == 200 and body["round"] == 1
        status, summary = drain_result["response"]
        assert status == 200
        assert summary["drained"] is True
        assert summary["total_rounds"] == 1

        # the drain stopped the listener; serve_until returns immediately
        server.serve_until(max_seconds=5)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            leaked = [
                th for th in set(threading.enumerate()) - before
                if th.is_alive()
            ]
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked, f"leaked threads: {leaked}"

    def test_drain_is_idempotent(self, gf):
        service, control, server = make_daemon(gf)
        try:
            client = Client(server.address)
            first = control.drain()
            second = control.drain()
            assert first == second
            assert control.draining
        finally:
            server.stop()

    def test_max_seconds_self_drains(self, gf):
        service, control, server = make_daemon(gf)
        t0 = time.monotonic()
        server.serve_until(max_seconds=0.3)
        assert time.monotonic() - t0 < 10
        assert control.draining

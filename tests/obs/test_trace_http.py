"""HTTP surface of round tracing: the two trace endpoints + schema.

``GET /cohorts/{id}/traces`` lists recent round summaries (newest
first) and ``GET /traces/{trace_id}`` serves one full stitched span
tree.  The tree's JSON shape is a published contract, pinned by
``tests/obs/golden/trace.schema.json`` — the same schema the CI
daemon-smoke job validates against a live daemon — so external
consumers (dashboards, the ``repro trace`` CLI) can rely on it.
"""

import json
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.field import FiniteField
from repro.service import AggregationService, RefillMode, ServiceConfig
from repro.service.api import ControlPlane, ControlPlaneServer, encode_vector

N, DIM = 6, 32

SCHEMA_PATH = Path(__file__).parent / "golden" / "trace.schema.json"


@pytest.fixture(scope="module")
def gf():
    return FiniteField()


@pytest.fixture
def daemon(gf):
    config = ServiceConfig(refill_mode=RefillMode.BACKGROUND)
    service = AggregationService(config, gf=gf, build_cohorts=False).start()
    control = ControlPlane(service)
    server = ControlPlaneServer(control).start()
    yield service, control, server
    control.drain()
    server.stop()


def http(address, method, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        f"http://{address}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def run_rounds(gf, address, rounds=1):
    status, created = http(address, "POST", "/cohorts", {
        "num_users": N, "model_dim": DIM, "pool_size": 3, "low_water": 1,
        "num_shards": 2,
    })
    assert status == 201
    cohort_id = created["cohort_id"]
    rng = np.random.default_rng(3)
    for _ in range(rounds):
        updates = {
            str(i): encode_vector(gf.random(DIM, rng), "u32", gf.q)
            for i in range(N)
        }
        status, _ = http(address, "POST", f"/cohorts/{cohort_id}/rounds", {
            "updates": updates, "dropouts": [1], "encoding": "u32",
        })
        assert status == 200
    return cohort_id


class TestTraceEndpoints:
    def test_listing_then_full_tree_matches_schema(self, gf, daemon,
                                                   validate_json_schema):
        _, _, server = daemon
        cohort_id = run_rounds(gf, server.address, rounds=2)

        status, listing = http(
            server.address, "GET", f"/cohorts/{cohort_id}/traces"
        )
        assert status == 200
        assert listing["cohort_id"] == cohort_id
        assert listing["tracing"] is True
        summaries = listing["traces"]
        assert len(summaries) == 2
        # newest first
        assert [s["round_index"] for s in summaries] == [1, 0]
        for summary in summaries:
            assert summary["spans"] > 0
            assert summary["duration_seconds"] > 0
            assert summary["slow"] is False

        status, trace = http(
            server.address, "GET", f"/traces/{summaries[0]['trace_id']}"
        )
        assert status == 200
        schema = json.loads(SCHEMA_PATH.read_text())
        validate_json_schema(trace, schema)
        assert trace["trace_id"] == summaries[0]["trace_id"]
        assert trace["cohort_id"] == cohort_id
        assert trace["root"]["name"] == "round"
        names = [s["name"] for s in trace["root"]["children"]]
        assert "collect" in names
        assert "reconstruct" in names
        assert any(n.startswith("shard_compute[") for n in names)

    def test_unknown_trace_is_404(self, daemon):
        _, _, server = daemon
        status, body = http(server.address, "GET", "/traces/999999999")
        assert status == 404
        assert body["error"]["type"] == "not-found"
        assert "evicted" in body["error"]["message"]

    def test_unknown_cohort_traces_is_404(self, daemon):
        _, _, server = daemon
        status, body = http(server.address, "GET", "/cohorts/42/traces")
        assert status == 404
        assert body["error"]["type"] == "not-found"

    def test_status_reports_tracer_state(self, gf, daemon):
        service, _, server = daemon
        run_rounds(gf, server.address, rounds=1)
        tracing = service.status()["tracing"]
        assert tracing == {"enabled": True, "retained": 1, "slow_rounds": 0}


class TestTracingDisabledDaemon:
    def test_endpoints_answer_but_retain_nothing(self, gf):
        config = ServiceConfig(
            refill_mode=RefillMode.BACKGROUND, tracing=False
        )
        service = AggregationService(
            config, gf=gf, build_cohorts=False
        ).start()
        control = ControlPlane(service)
        server = ControlPlaneServer(control).start()
        try:
            cohort_id = run_rounds(gf, server.address, rounds=1)
            status, listing = http(
                server.address, "GET", f"/cohorts/{cohort_id}/traces"
            )
            assert status == 200
            assert listing["tracing"] is False
            assert listing["traces"] == []
        finally:
            control.drain()
            server.stop()

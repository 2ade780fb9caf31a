"""``repro trace``: the Fig-5-style ASCII diagram CLI, file and HTTP.

The command renders a captured trace from a JSON file, a direct
``GET /traces/{id}`` URL, or a ``GET /cohorts/{id}/traces`` listing URL
(following the newest summary) — plus its error lanes, which must exit
with a message, never a traceback.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.field import FiniteField
from repro.obs import RoundTrace, Span, Tracer
from repro.service import AggregationService, RefillMode, ServiceConfig
from repro.service.api import ControlPlane, ControlPlaneServer, encode_vector

N, DIM = 6, 32


def fixed_trace_json():
    tracer = Tracer()
    trace = tracer.start_round(2, 5)
    t0 = trace.root.start
    trace.add_span(Span("collect", start=t0, end=t0 + 0.002,
                        tags={"users": "6"}))
    trace.add_span(Span(
        "shard_compute[0]", start=t0 + 0.002, end=t0 + 0.03,
        tags={"pid": "777", "host": "wk-1", "transport": "socket"},
    ))
    tracer.finish(trace)
    return trace.to_json()


class TestTraceFromFile:
    def test_renders_diagram(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(fixed_trace_json()))
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cohort 2  round 5" in out
        assert "shard_compute[0]" in out
        assert "pid=777" in out and "host=wk-1" in out
        assert "#" in out

    def test_width_flag(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(fixed_trace_json()))
        assert main(["trace", str(path), "--width", "24"]) == 0
        bars = [
            line for line in capsys.readouterr().out.splitlines()
            if "|" in line
        ]
        assert bars and all(
            len(line.split("|")[1]) == 24 for line in bars
        )

    def test_missing_file_exits_with_message(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["trace", str(tmp_path / "nope.json")])

    def test_invalid_json_exits_with_message(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["trace", str(path)])

    def test_non_trace_json_exits_with_message(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"traces": []}))
        with pytest.raises(SystemExit, match="does not look like"):
            main(["trace", str(path)])


class TestTraceOverHttp:
    @pytest.fixture
    def daemon(self):
        gf = FiniteField()
        config = ServiceConfig(refill_mode=RefillMode.BACKGROUND)
        service = AggregationService(
            config, gf=gf, build_cohorts=False
        ).start()
        control = ControlPlane(service)
        server = ControlPlaneServer(control).start()
        yield gf, control, server
        control.drain()
        server.stop()

    def test_listing_url_follows_newest_trace(self, daemon, capsys):
        gf, control, server = daemon
        import urllib.request

        def post(path, body):
            req = urllib.request.Request(
                f"http://{server.address}{path}",
                data=json.dumps(body).encode(), method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=30) as resp:
                return json.loads(resp.read())

        created = post("/cohorts", {
            "num_users": N, "model_dim": DIM, "pool_size": 3,
            "low_water": 1, "num_shards": 2,
        })
        rng = np.random.default_rng(4)
        post(f"/cohorts/{created['cohort_id']}/rounds", {
            "updates": {
                str(i): encode_vector(gf.random(DIM, rng), "u32", gf.q)
                for i in range(N)
            },
            "dropouts": [], "encoding": "u32",
        })
        url = f"http://{server.address}/cohorts/{created['cohort_id']}/traces"
        assert main(["trace", url]) == 0
        out = capsys.readouterr().out
        assert "round 0" in out
        assert "reconstruct" in out

    def test_empty_listing_reports_and_exits_nonzero(self, daemon, capsys):
        _, _, server = daemon
        import urllib.request

        req = urllib.request.Request(
            f"http://{server.address}/cohorts",
            data=json.dumps({
                "num_users": N, "model_dim": DIM, "pool_size": 3,
                "low_water": 1,
            }).encode(),
            method="POST", headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=30):
            pass
        url = f"http://{server.address}/cohorts/0/traces"
        assert main(["trace", url]) == 1
        assert "no traces retained" in capsys.readouterr().out

    def test_unreachable_url_exits_with_message(self):
        with pytest.raises(SystemExit, match="cannot fetch"):
            main(["trace", "http://127.0.0.1:1/traces/1"])

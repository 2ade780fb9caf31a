"""Black-box daemon smoke: the real ``repro serve`` / ``repro
shard-worker`` processes, driven exactly the way CI and operators do.

* ``repro serve --json`` publishes its ephemeral address on stdout,
  serves cohorts over HTTP (inline and process transports) — synthetic
  rounds, and one round of explicit vectors as ``u32`` and as ``packed``,
  whose aggregates are bit-identical and the plain field sum — answers ``/metrics``, and exits 0 on ``POST /drain``
  with a final JSON drain line;
* SIGTERM takes the same graceful path: drain, summary line, exit 0 —
  for both daemons (satellite: the shard worker used to die mid-frame);
* ``--max-seconds`` bounds the run for CI without any HTTP traffic.
"""

import base64
import glob
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.field import DEFAULT_PRIME
from repro.service.api import decode_vector, encode_vector

pytestmark = pytest.mark.timeout(180)

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)
TRACE_SCHEMA = os.path.join(
    os.path.dirname(os.path.dirname(__file__)),
    "obs", "golden", "trace.schema.json",
)


def spawn(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    # a hung daemon dumps thread stacks on the SIGABRT wait_exit sends
    env["PYTHONFAULTHANDLER"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


def wait_exit(proc, timeout=60):
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGABRT)
        try:
            out, err = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        pytest.fail(f"daemon did not exit; stdout={out!r} stderr={err!r}")
    assert proc.returncode == 0, (
        f"exit {proc.returncode}; stdout={out!r} stderr={err!r}"
    )
    return out, err


def serve_daemon():
    proc = spawn("serve", "--listen", "127.0.0.1:0", "--json")
    line = proc.stdout.readline()
    assert line, proc.stderr.read()
    startup = json.loads(line)
    assert startup["event"] == "listening"
    return proc, f"http://{startup['address']}"


def call(base, method, path, body=None, timeout=60):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            raw = resp.read()
            if resp.headers.get("Content-Type", "").startswith(
                "application/json"
            ):
                return resp.status, json.loads(raw)
            return resp.status, raw.decode()
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.mark.parametrize("transport", ["inline", "process"])
def test_serve_end_to_end(transport, validate_json_schema):
    """Create a cohort, run rounds, scrape metrics + a round trace, run
    one round of explicit vectors in both encodings, drain — exit 0."""
    proc, base = serve_daemon()
    try:
        spec = {"num_users": 5, "model_dim": 64, "pool_size": 2,
                "low_water": 1, "transport": transport}
        if transport == "process":
            spec.update(num_shards=2, num_workers=2)
        status, created = call(base, "POST", "/cohorts", spec)
        assert status == 201, created
        cid = created["cohort_id"]
        for seed in range(2):
            status, body = call(
                base, "POST", f"/cohorts/{cid}/rounds",
                {"synthetic": {"seed": seed, "dropout_rate": 0.2}},
            )
            assert status == 200, body
            assert len(body["survivors"]) == 4
        status, text = call(base, "GET", "/metrics")
        assert status == 200
        assert f'repro_rounds_total{{cohort="{cid}"}} 2' in text
        if transport == "process":
            # sharded backends report scatter/gather rounds; unsharded
            # inline cohorts run the bare session (no transport wrapper)
            assert 'repro_transport_rounds_total{transport="process"} 2' \
                in text
            # ...whose rows were staged in shared memory, never framed
            [staged] = re.findall(
                r'^repro_transport_shm_bytes_total\{transport="process"\} '
                r'(\d+)$', text, re.MULTILINE,
            )
            assert int(staged) > 0
            assert 'repro_transport_shm_fallbacks_total{transport="process"}' \
                ' 0' in text
        # observability: the rounds left traces, and the served span
        # tree honours the committed schema (the published contract)
        status, listing = call(base, "GET", f"/cohorts/{cid}/traces")
        assert status == 200 and listing["tracing"] is True
        assert len(listing["traces"]) == 2
        status, trace = call(
            base, "GET", f"/traces/{listing['traces'][0]['trace_id']}"
        )
        assert status == 200
        with open(TRACE_SCHEMA, encoding="utf-8") as fh:
            validate_json_schema(trace, json.load(fh))
        assert trace["root"]["name"] == "round"
        if transport == "process":
            # sharded lane: worker-reported compute spans were stitched in
            names = [s["name"] for s in trace["root"]["children"]]
            assert any(n.startswith("shard_compute[") for n in names)
        status, health = call(base, "GET", "/healthz")
        assert health["status"] == "ok" and health["cohorts"] == 1
        # explicit vectors with no "encoding" key ride u32 both ways
        rng = np.random.default_rng(3)
        vectors = rng.integers(0, DEFAULT_PRIME, size=(5, 64), dtype="<u4")
        status, body = call(
            base, "POST", f"/cohorts/{cid}/rounds",
            {"updates": {
                str(i): base64.b64encode(v.tobytes()).decode()
                for i, v in enumerate(vectors)
            }, "dropouts": [4]},
        )
        assert status == 200, body
        assert body["encoding"] == "u32" and body["survivors"] == [0, 1, 2, 3]
        aggregate = np.frombuffer(base64.b64decode(body["aggregate"]), "<u4")
        plain = vectors[:4].astype(np.uint64).sum(axis=0) % DEFAULT_PRIME
        assert np.array_equal(aggregate, plain)
        # the same round packed: a bit-identical aggregate
        status, body = call(
            base, "POST", f"/cohorts/{cid}/rounds",
            {"updates": {
                str(i): encode_vector(v, "packed", DEFAULT_PRIME)
                for i, v in enumerate(vectors)
            }, "dropouts": [4], "encoding": "packed"},
        )
        assert status == 200, body
        assert np.array_equal(decode_vector(
            body["aggregate"], "packed", DEFAULT_PRIME, 64, "aggregate"
        ), aggregate)
        # a body of 8-byte words is the wrong length for u32: a 400
        status, body = call(
            base, "POST", f"/cohorts/{cid}/rounds",
            {"updates": {
                str(i): base64.b64encode(v.astype("<u8").tobytes()).decode()
                for i, v in enumerate(vectors)
            }},
        )
        assert status == 400, body
        assert body["error"]["field"] == "updates[0]"
        status, summary = call(base, "POST", "/drain")
        assert status == 200 and summary["drained"] is True
        assert summary["total_rounds"] == 4
    except BaseException:
        # don't let wait_exit's 60s hang-and-fail mask the real failure
        proc.kill()
        proc.communicate()
        raise
    out, err = wait_exit(proc)
    final = json.loads(out.strip().splitlines()[-1])
    assert final["event"] == "drained" and final["total_rounds"] == 4
    # the drained daemon unlinked every segment it created
    assert glob.glob(f"/dev/shm/repro-shm-{proc.pid:x}-*") == []


def test_serve_trace_log_writes_span_events(tmp_path):
    """--trace-log appends one JSON line per span close, flushed by the
    time drain answers."""
    log = tmp_path / "events.jsonl"
    proc = spawn("serve", "--listen", "127.0.0.1:0", "--json",
                 "--trace-log", str(log))
    line = proc.stdout.readline()
    base = f"http://{json.loads(line)['address']}"
    try:
        call(base, "POST", "/cohorts",
             {"num_users": 4, "model_dim": 32, "pool_size": 2})
        call(base, "POST", "/cohorts/0/rounds", {"synthetic": {"seed": 0}})
        call(base, "POST", "/drain")
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    wait_exit(proc)
    events = [json.loads(l) for l in log.read_text().splitlines()]
    assert events, "no span events logged"
    assert all(e["event"] == "span" for e in events)
    roots = [e for e in events if e["span"] == "round"]
    assert len(roots) == 1
    assert roots[0]["cohort_id"] == 0 and roots[0]["round_index"] == 0
    assert "slow" in roots[0]


def test_serve_sigterm_drains_and_exits_zero():
    proc, base = serve_daemon()
    call(base, "POST", "/cohorts",
         {"num_users": 4, "model_dim": 32, "pool_size": 2})
    call(base, "POST", "/cohorts/0/rounds", {"synthetic": {"seed": 0}})
    proc.send_signal(signal.SIGTERM)
    out, _ = wait_exit(proc)
    final = json.loads(out.strip().splitlines()[-1])
    assert final["event"] == "drained"
    assert final["drained"] is True and final["total_rounds"] == 1


@pytest.mark.parametrize("delay_s", [0.0, 0.05, 0.1, 0.2])
def test_serve_sigterm_after_drain_still_exits_zero(delay_s):
    """A supervisor that POSTs /drain and then sends SIGTERM to a daemon
    already on its way out must not turn a clean exit into -15: the
    signal can land after the interpreter stopped running Python-level
    handlers.  The first SIGTERM goes ``delay_s`` after the drain reply,
    then one every 10 ms until the daemon is gone, so some signal lands
    in every phase of its exit path."""
    proc, base = serve_daemon()
    try:
        status, summary = call(base, "POST", "/drain")
        assert status == 200 and summary["drained"] is True
        time.sleep(delay_s)
        deadline = time.monotonic() + 30
        while proc.poll() is None and time.monotonic() < deadline:
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.01)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    out, _ = wait_exit(proc)
    final = json.loads(out.strip().splitlines()[-1])
    assert final["event"] == "drained" and final["drained"] is True


def test_serve_max_seconds_bounds_the_run():
    proc = spawn("serve", "--listen", "127.0.0.1:0", "--json",
                 "--max-seconds", "1")
    t0 = time.monotonic()
    out, _ = wait_exit(proc)
    assert time.monotonic() - t0 < 60
    events = [json.loads(line) for line in out.strip().splitlines()]
    assert [e["event"] for e in events] == ["listening", "drained"]


def test_shard_worker_sigterm_exits_zero():
    proc = spawn("shard-worker", "--listen", "127.0.0.1:0")
    line = proc.stdout.readline()
    assert "listening" in line
    proc.send_signal(signal.SIGTERM)
    wait_exit(proc)

"""The control plane's one admission gate, off the happy path.

Every mutating operation — round, submission, join, leave, cohort
create, cohort delete — is admitted and counted by ``_in_flight``; drain
and delete wait on those counts with one loop.  Each scenario here parks
one operation mid-flight and lands a drain or delete on top of it:

* a drain that timed out can be retried, by ``POST /drain`` and by the
  daemon's own ``serve_until`` expiry — it used to hang forever;
* a join/leave admitted before a drain or delete is waited for and gets
  its normal body — it used to be closed underneath (409);
* a create admitted before a drain is waited for and closed *by* the
  drain — it used to outlive it, worker processes and all;
* a drainer queued behind a slow one is bounded by its own timeout;
* the async round lane is gone: ``"mode"`` is a stray key.

Every scenario runs twice: through :func:`dispatch` (no sockets) and
over the HTTP listener.
"""

import json
import multiprocessing
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.field import FiniteField
from repro.service import AggregationService, RefillMode, ServiceConfig
from repro.service import service as service_module
from repro.service.api import ControlPlane, ControlPlaneServer, dispatch

N, K, DIM = 6, 4, 48
SYNC = {"num_users": N, "model_dim": DIM, "pool_size": 3, "low_water": 1}
BUFFERED = {**SYNC, "kind": "buffered", "buffer_size": K}
ROUND = {"synthetic": {"seed": 1}}


class Hold:
    """Wrap a callable so one call parks inside it until released."""

    def __init__(self, fn):
        self.fn = fn
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, *args, **kwargs):
        self.entered.set()
        assert self.release.wait(timeout=30)
        return self.fn(*args, **kwargs)


class Background:
    """Run ``fn(*args)`` on a daemon thread; a hang fails, never blocks."""

    def __init__(self, fn, *args):
        self._outcome = None

        def work():
            try:
                self._outcome = (fn(*args), None)
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                self._outcome = (None, exc)

        self._thread = threading.Thread(target=work, daemon=True)
        self._thread.start()

    @property
    def done(self):
        return not self._thread.is_alive()

    def result(self, timeout=10.0):
        self._thread.join(timeout)
        assert self.done, f"still blocked after {timeout:g}s"
        value, exc = self._outcome
        if exc is not None:
            raise exc
        return value


class Daemon:
    """One started daemon; ``call`` goes through dispatch or over HTTP."""

    def __init__(self, lane):
        config = ServiceConfig(refill_mode=RefillMode.BACKGROUND)
        self.service = AggregationService(
            config, gf=FiniteField(), build_cohorts=False
        ).start()
        self.control = ControlPlane(self.service)
        self.server = ControlPlaneServer(self.control).start()
        self.lane = lane

    def call(self, method, path, body=None):
        """``(status, json body, headers)`` of one request."""
        if self.lane == "dispatch":
            response = dispatch(self.control, method, path, body or {})
            return (
                response.status,
                json.loads(response.body),
                dict(response.headers),
            )
        request = urllib.request.Request(
            f"http://{self.server.address}{path}",
            data=json.dumps(body or {}).encode() if method == "POST"
            else None,
            method=method,
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as resp:
                return resp.status, json.loads(resp.read()), dict(resp.headers)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read()), dict(exc.headers)

    def create(self, spec):
        status, body, _ = self.call("POST", "/cohorts", spec)
        assert status == 201, body
        return self.service.get_cohort(body["cohort_id"])

    def close(self):
        self.control.drain(timeout_s=30)
        self.server.stop()


@pytest.fixture(params=["dispatch", "http"])
def daemon(request):
    d = Daemon(request.param)
    yield d
    d.close()


def shard_workers():
    return [
        p.name for p in multiprocessing.active_children()
        if p.name.startswith("shard-worker-")
    ]


class TestDrainRetry:
    def hold_a_round(self, daemon, monkeypatch):
        cohort = daemon.create(SYNC)
        hold = Hold(cohort.run_round)
        monkeypatch.setattr(cohort, "run_round", hold)
        running = Background(daemon.call, "POST", "/cohorts/0/rounds", ROUND)
        assert hold.entered.wait(timeout=30)
        status, body, _ = daemon.call("POST", "/drain", {"timeout_s": 0.2})
        assert status == 409
        assert "1 round(s) still in flight after 0.2s" in (
            body["error"]["message"]
        )
        # the timed-out drain changed nothing but the admission flag
        assert daemon.control.draining
        assert daemon.control._drain_summary is None
        hold.release.set()
        assert running.result()[0] == 200

    def test_timed_out_drain_then_drain_completes(self, daemon, monkeypatch):
        self.hold_a_round(daemon, monkeypatch)
        t0 = time.monotonic()
        status, summary, _ = Background(
            daemon.call, "POST", "/drain", {"timeout_s": 5.0}
        ).result()
        assert status == 200 and summary["drained"] is True
        assert summary["total_rounds"] == 1
        assert time.monotonic() - t0 < 5.0

    def test_timed_out_drain_then_daemon_exit_path(self, daemon, monkeypatch):
        """SIGTERM and ``--max-seconds`` expiry both end in
        ``control.drain()``: the daemon must still be able to exit."""
        self.hold_a_round(daemon, monkeypatch)
        Background(daemon.server.serve_until, 0.1).result()
        assert daemon.control._drain_summary["drained"] is True

    def test_failed_stop_does_not_strand_the_next_drainer(
        self, daemon, monkeypatch
    ):
        stop = daemon.service.stop
        calls = []

        def flaky_stop():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transport teardown blew up")
            stop()

        monkeypatch.setattr(daemon.service, "stop", flaky_stop)
        assert daemon.call("POST", "/drain")[0] == 500
        status, summary, _ = Background(
            daemon.call, "POST", "/drain", {"timeout_s": 5.0}
        ).result()
        assert status == 200 and summary["drained"] is True

    def test_second_drainer_is_bounded_by_its_own_timeout(
        self, daemon, monkeypatch
    ):
        hold = Hold(daemon.service.stop)
        monkeypatch.setattr(daemon.service, "stop", hold)
        first = Background(daemon.call, "POST", "/drain")
        try:
            assert hold.entered.wait(timeout=30)
            status, body, _ = Background(
                daemon.call, "POST", "/drain", {"timeout_s": 0.1}
            ).result(timeout=5)
            assert status == 409
            assert "after 0.1s" in body["error"]["message"]
        finally:
            hold.release.set()
        status, summary, _ = first.result()
        assert status == 200 and summary["drained"] is True
        assert daemon.control.drain(timeout_s=1.0) == summary


class TestAdmittedOperationsAreWaitedFor:
    @pytest.mark.parametrize("closer", ["drain", "delete"])
    @pytest.mark.parametrize("op", ["join", "leave"])
    def test_membership_change(self, daemon, monkeypatch, op, closer):
        cohort = daemon.create(BUFFERED)
        hold = Hold(cohort.session.rekey)
        monkeypatch.setattr(cohort.session, "rekey", hold)
        member = Background(
            daemon.call,
            *(("POST", "/cohorts/0/members") if op == "join"
              else ("DELETE", f"/cohorts/0/members/{N - 1}")),
        )
        try:
            assert hold.entered.wait(timeout=30)
            counted = daemon.control._inflight_total
            closing = Background(
                daemon.call,
                *(("POST", "/drain") if closer == "drain"
                  else ("DELETE", "/cohorts/0")),
            )
            time.sleep(0.3)
            returned_early = closing.done
        finally:
            hold.release.set()
        status, body, _ = member.result()
        expected = (201, N + 1) if op == "join" else (200, N - 1)
        assert (status, body.get("num_users")) == expected, body
        assert body["cohort_id"] == 0
        assert closing.result()[0] == 200
        assert not returned_early
        assert counted == 1

    def test_create_is_closed_by_the_drain_it_raced(
        self, daemon, monkeypatch, created_segments
    ):
        segments_before = created_segments()
        hold = Hold(service_module.build_transport)
        monkeypatch.setattr(service_module, "build_transport", hold)
        creating = Background(
            daemon.call, "POST", "/cohorts",
            {**SYNC, "num_shards": 2, "transport": "process"},
        )
        try:
            assert hold.entered.wait(timeout=30)
            counted = daemon.control._inflight_total
            draining = Background(daemon.call, "POST", "/drain")
            time.sleep(0.3)
            returned_early = draining.done
        finally:
            hold.release.set()
        status, created, _ = creating.result(timeout=30)
        assert status == 201 and created["cohort_id"] == 0
        status, summary, _ = draining.result(timeout=30)
        assert status == 200
        assert shard_workers() == []
        assert created_segments() == segments_before
        assert [c.phase.value for c in daemon.service.cohorts] == ["closed"]
        assert summary["cohorts_closed"] == 1
        assert not returned_early
        assert counted == 1

    def test_delete_counts_in_the_total_not_in_its_own_cohort(
        self, daemon, monkeypatch
    ):
        daemon.create(SYNC)
        hold = Hold(daemon.service.remove_cohort)
        monkeypatch.setattr(daemon.service, "remove_cohort", hold)
        deleting = Background(daemon.call, "DELETE", "/cohorts/0")
        try:
            assert hold.entered.wait(timeout=30)
            assert daemon.control._inflight_total == 1
            assert daemon.control._inflight == {}
            draining = Background(daemon.call, "POST", "/drain")
            time.sleep(0.3)
            returned_early = draining.done
        finally:
            hold.release.set()
        assert deleting.result()[0] == 200
        status, summary, _ = draining.result()
        assert not returned_early
        assert status == 200 and summary["cohorts_closed"] == 0

    def test_work_after_a_drain_began_is_refused(self, daemon):
        daemon.create(BUFFERED)
        assert daemon.control.drain()["drained"] is True
        for method, path in [
            ("POST", "/cohorts"),
            ("POST", "/cohorts/0/members"),
            ("DELETE", "/cohorts/0/members/0"),
            ("DELETE", "/cohorts/0"),
        ]:
            status, body, _ = daemon.call(method, path, SYNC)
            assert status == 409, (method, path, body)
            assert "draining" in body["error"]["message"]


class TestOneRoundLane:
    def test_mode_is_a_stray_key_and_handles_have_no_route(self, daemon):
        daemon.create(SYNC)
        status, body, _ = daemon.call(
            "POST", "/cohorts/0/rounds", {**ROUND, "mode": "async"}
        )
        assert status == 400 and body["error"]["type"] == "validation"
        assert "unknown field(s) ['mode']" in body["error"]["message"]
        status, body, _ = daemon.call("GET", "/cohorts/0/rounds/1")
        assert status == 404 and body["error"]["type"] == "not-found"
        status, body, headers = daemon.call("GET", "/cohorts/0/rounds")
        assert status == 405 and headers["Allow"] == "POST"
        assert daemon.call("POST", "/cohorts/0/rounds", ROUND)[0] == 200


def test_gate_counts_balance_under_churn_racing_a_drain():
    """More threads than cores hammer every counted operation while a
    drain lands: each call ends in its normal status or a typed 409,
    and the gate's counts return to zero (a lost update would not)."""
    daemon = Daemon("dispatch")
    daemon.create(BUFFERED)
    daemon.create(SYNC)
    statuses = []
    stop = threading.Event()

    def churn(worker):
        while not stop.is_set():
            for method, path, body in [
                ("POST", "/cohorts/0/members", None),
                ("DELETE", f"/cohorts/0/members/{N + worker}", None),
                ("POST", "/cohorts/1/rounds", ROUND),
                ("POST", "/cohorts", SYNC),
                ("DELETE", f"/cohorts/{2 + worker}", None),
            ]:
                statuses.append(daemon.call(method, path, body)[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [
        threading.Thread(target=churn, args=(w,), daemon=True)
        for w in range(8)
    ]
    try:
        for t in threads:
            t.start()
        time.sleep(0.5)
        summary = daemon.control.drain(timeout_s=30)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=30)
        sys.setswitchinterval(interval)
        daemon.close()
    assert not any(t.is_alive() for t in threads)
    assert summary["drained"] is True
    assert daemon.control._inflight_total == 0
    assert daemon.control._inflight == {}
    assert daemon.control._closing == set()
    assert set(statuses) <= {200, 201, 404, 409}, sorted(set(statuses))
    assert {200, 201, 409} <= set(statuses)
    assert all(c.phase.value == "closed" for c in daemon.service.cohorts)

"""Cross-process trace stitching and tracing's zero-interference claims.

The acceptance criteria pinned here:

* every transport lane (inline / process, staged and framed / socket)
  produces aggregates **bit-identical** to an untraced inline baseline
  with tracing on — tracing observes rounds, it never perturbs them;
* a socket round against a shard worker running in a *separate OS
  process* (spawned via ``python -m repro shard-worker``) yields one
  stitched :class:`RoundTrace` whose ``shard_compute[i]`` spans carry
  the remote worker's pid/host tags — the spans crossed the wire;
* with tracing disabled nothing is retained and results are identical.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.service import (
    AggregationService,
    RefillMode,
    ServiceConfig,
    ShardWorkerServer,
    TransportKind,
)

N, DIM = 8, 37
ROUNDS = 3

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


def run_lane(gf, kind, tracing=True, connect=None, rounds=ROUNDS):
    """Run one service lane; return (per-round outputs, its traces)."""
    cfg = ServiceConfig(
        num_cohorts=1,
        num_users=N,
        model_dim=DIM,
        num_shards=2,
        pool_size=3,
        low_water=0,
        refill_mode=RefillMode.SYNC,
        dropout_tolerance=2,
        privacy=2,
        transport=kind,
        connect=connect,
        seed=7,
        tracing=tracing,
    )
    with AggregationService(cfg, gf=gf) as svc:
        sweeps = svc.run_synthetic(
            rounds=rounds, dropout_rate=0.2, rng=np.random.default_rng(9)
        )
        traces = svc.traces(cohort_id=0, limit=rounds + 1)
    outputs = [
        (sweep[0].aggregate.tobytes(), tuple(sweep[0].survivors))
        for sweep in sweeps
    ]
    return outputs, list(reversed(traces))  # oldest first


def top_names(trace):
    return [s.name for s in trace.root.children]


def compute_spans(trace):
    return [
        s for s in trace.root.children if s.name.startswith("shard_compute[")
    ]


@pytest.fixture(scope="module")
def baseline(gf_module):
    """Untraced inline outputs: the bit-identity reference for all lanes."""
    outputs, traces = run_lane(gf_module, TransportKind.INLINE, tracing=False)
    assert traces == []
    return outputs


@pytest.fixture(scope="module")
def gf_module():
    from repro.field import DEFAULT_PRIME, FiniteField

    return FiniteField(DEFAULT_PRIME)


@pytest.fixture
def server():
    server = ShardWorkerServer().start()
    yield server
    server.stop()


LANES = ("inline", "process", "framed", "socket")


class TestTracedLanes:
    @pytest.mark.parametrize("lane", LANES)
    def test_lane_bit_identical_and_fully_traced(self, gf_module, baseline,
                                                 server, lane_name, lane):
        kind = TransportKind(lane_name(lane))
        connect = (server.address,) if kind is TransportKind.SOCKET else None
        outputs, traces = run_lane(gf_module, kind, connect=connect)
        assert outputs == baseline  # tracing never perturbs aggregates

        assert len(traces) == ROUNDS  # one stitched trace per round
        for round_index, trace in enumerate(traces):
            assert trace.cohort_id == 0
            assert trace.round_index == round_index
            assert trace.root.end is not None
            assert trace.root.tags["transport"] == kind.value
            names = top_names(trace)
            assert "collect" in names
            assert "reconstruct" in names
            computes = compute_spans(trace)
            assert len(computes) == 2  # one per shard
            for s in computes:
                assert s.tags["transport"] == kind.value
                assert s.tags["pid"].isdigit()
                assert s.tags["host"]
                assert s.duration > 0
        if kind is not TransportKind.INLINE:
            # remote lanes bracket compute with scatter/gather spans
            assert "shard_scatter" in top_names(traces[0])
            assert "shard_gather" in top_names(traces[0])

    def test_process_lane_reports_remote_pids(self, gf_module):
        """Process workers live in child processes: the compute spans'
        pid tags must name them, not the coordinator."""
        _, traces = run_lane(gf_module, TransportKind.PROCESS)
        for s in compute_spans(traces[-1]):
            assert s.tags["pid"] != str(os.getpid())

    def test_inline_lane_nests_protocol_spans(self, gf_module):
        """Inline shards run on the coordinator thread, so once the
        offline pool drains, the session's refill-on-miss spans
        (offline_refill -> mask_encode) nest under shard_compute."""
        _, traces = run_lane(gf_module, TransportKind.INLINE, rounds=6)
        nested = {
            child.name
            for trace in traces
            for top in compute_spans(trace)
            for child in top.walk()
        }
        assert "mask_encode" in nested
        assert "offline_refill" in nested

    def test_tracing_disabled_retains_nothing(self, gf_module, baseline):
        outputs, traces = run_lane(
            gf_module, TransportKind.INLINE, tracing=False
        )
        assert outputs == baseline
        assert traces == []


class TestSocketStitching:
    """The tentpole acceptance: worker spans from a genuinely separate
    OS process appear inside the coordinator's round trace."""

    @pytest.fixture
    def worker_proc(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "shard-worker",
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on (\S+)", line)
            assert match, f"no listening line from worker: {line!r}"
            yield proc, match.group(1)
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_round_trace_carries_remote_worker_spans(self, gf_module,
                                                     worker_proc):
        proc, address = worker_proc
        _, traces = run_lane(
            gf_module, TransportKind.SOCKET, connect=(address,), rounds=2
        )
        assert len(traces) == 2
        for trace in traces:
            computes = compute_spans(trace)
            assert len(computes) == 2
            for s in computes:
                # the span's identity tags name the worker subprocess
                assert s.tags["pid"] == str(proc.pid)
                assert s.tags["pid"] != str(os.getpid())
                assert s.tags["host"]
                assert s.tags["transport"] == "socket"
            # worker compute sits inside the coordinator's round window
            lo, hi = trace.root.start, trace.root.end
            for s in computes:
                assert lo <= s.start and s.end <= hi + 1.0  # clock slack

    def test_queue_wait_child_when_reported(self, gf_module, worker_proc):
        proc, address = worker_proc
        _, traces = run_lane(
            gf_module, TransportKind.SOCKET, connect=(address,), rounds=1
        )
        waits = [
            child
            for s in compute_spans(traces[0])
            for child in s.children
            if child.name == "queue_wait"
        ]
        # queue_wait is emitted only for a positive dwell; when present
        # it must lead directly into compute on the worker's clock
        for w in waits:
            assert w.duration >= 0
            assert w.tags["pid"] == str(proc.pid)

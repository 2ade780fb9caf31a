"""The four workloads, driven through public entry points only.

Each workload owns its inputs (made from the seed), its topology (real
``repro serve`` / ``repro shard-worker`` subprocesses over HTTP/TCP, or
the in-process :class:`~repro.service.AggregationService` facade), one
closed-loop client, and a correctness oracle for every output.  All
service settings not set here stay at their shipped defaults
(``wire_format=packed``, ``tracing=True``).

Why these four (the names are fixed; later issues cite them):

* ``sync_http_socket`` — the north-star path end to end: HTTP submit ->
  engine -> scatter -> worker compute over TCP -> gather -> reconstruct.
  The only workload where ``service.api``, ``wire`` and the socket hop do
  most of the work, so the only one where transport/wire changes show.
* ``sync_facade_inline`` — the same rounds (geometry, seed, updates,
  dropouts) with HTTP, wire and transport bypassed: field/coding/session
  kernels and the engine do all the work.  A wire/transport/api change
  must show no change here; its aggregates must hash equal to the HTTP
  workload's.
* ``sync_refill_bound`` — synchronous refill with low-water 0 and no
  waits puts the *offline* encode on the critical path of every 4th op.
  The two workloads above hide refill behind untimed waits, so offline
  kernel gains show only here, and an "online win" that merely moves
  work offline shows here as a loss.  d=8192 keeps a refill's working
  set near 32 MB: at d=65536 the same loop was page-fault bound and
  varied 3x between pool cycles.
* ``buffered_http_churn`` — the same session pool used differently:
  drains instead of rounds, and join/leave re-keys that invalidate the
  pool (the write beside the read).  75% of ops are non-sealing submits
  (per-request cost of the API and engine), 25% seal and drain.
"""

from __future__ import annotations

import base64
import hashlib
import json
import time
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.asyncfl import AsyncDelivery, AsyncSecureAggregator
from repro.field import FiniteField
from repro.protocols.lightsecagg.params import LSAParams
from repro.quantization import ModelQuantizer, QuantizationConfig
from repro.service import AggregationService, RefillMode, ServiceConfig
from repro.service.api.schemas import (
    decode_vector,
    encode_real_vector,
    encode_vector,
)
from repro.service.engines import build_staleness, drain_stream

import harness


class OpResult:
    """One op's timed latency plus what verification needs."""

    __slots__ = ("op_id", "latency", "ok", "kind", "payload")

    def __init__(self, op_id: int, latency: float, ok: bool = True,
                 kind: str = "op", payload=None):
        self.op_id = op_id
        self.latency = latency
        self.ok = ok
        self.kind = kind
        self.payload = payload


class Workload:
    """Shared shape: prepare inputs, set up, run blocks, verify, tear down."""

    name = ""
    block_ops = 8          # ops per throughput block
    warmup_blocks = 1
    fixed_blocks = 13      # timed blocks when --seconds is not given
    min_blocks = 13        # timed blocks a --seconds run never goes below
    waits_untimed = False  # block time = sum of latencies (else wall)
    over_http = False
    setup_repeats = 5
    sha_ops = 0            # ops (from op 0) hashed into aggregate_sha256
    op_body_bytes = 0      # HTTP request + response body bytes of ops
    last_request = b""     # one real request / response body, for probes
    last_response = b""
    drains_verified: Optional[int] = None

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.gf = FiniteField()
        self.failed = 0
        self.attempted = 0
        self.failures: List[str] = []
        self._sha = hashlib.sha256()
        self._sha_count = 0
        self.wait_seconds = 0.0

    # -- to override ------------------------------------------------------
    def prepare(self) -> None:
        """Make every input from the seed (driver side, before set-up)."""

    def setup(self) -> None:
        """Topology up, cohort created, pools warm: ready for the first op."""
        raise NotImplementedError

    def teardown(self) -> List[str]:
        """Stop everything; return what leaked."""
        raise NotImplementedError

    def op(self, op_id: int, rec: harness.SpanRecorder) -> OpResult:
        raise NotImplementedError

    def after_block(self, block: int, rec) -> List[OpResult]:
        """Extra timed requests closing a block (churn); default none."""
        return []

    def verify(self, result: OpResult) -> bool:
        raise NotImplementedError

    def finish(self) -> None:
        """Post-hoc verification after the op loop (buffered oracle)."""

    def counters(self) -> Dict:
        """The program's published counters, as parsed Prometheus text."""
        raise NotImplementedError

    def program_traces(self) -> List[Dict[str, float]]:
        """Top-level phase durations (s) of the program's recent traces."""
        raise NotImplementedError

    def peak_rss_mib(self) -> float:
        raise NotImplementedError

    def probe_context(self) -> Dict:
        raise NotImplementedError

    # -- shared -----------------------------------------------------------
    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def hash_aggregate(self, aggregate: np.ndarray) -> None:
        if self._sha_count < self.sha_ops:
            self._sha.update(
                np.ascontiguousarray(aggregate, dtype="<u8").tobytes()
            )
            self._sha_count += 1

    @property
    def aggregate_sha256(self) -> Optional[str]:
        if not self.sha_ops or self._sha_count < self.sha_ops:
            return None
        return self._sha.hexdigest()


# ----------------------------------------------------------------------
# synchronous rounds
# ----------------------------------------------------------------------
def encode_updates_prefix(updates: Dict[int, np.ndarray], q: int) -> bytes:
    """The constant part of a ``POST .../rounds`` body, encoded once."""
    vectors = ", ".join(
        f'"{uid}": "{encode_vector(vec, "packed", q)}"'
        for uid, vec in sorted(updates.items())
    )
    return ('{"encoding": "packed", "updates": {' + vectors + "}").encode()


def sync_round_body(prefix: bytes, dropouts: Set[int]) -> bytes:
    return prefix + b', "dropouts": ' + json.dumps(
        sorted(dropouts)).encode() + b"}"


class SyncRounds(Workload):
    """Lock-step rounds: fixed updates, a seeded dropout sequence."""

    num_users = 16
    guarantee = 2          # T = D
    model_dim = 65536
    num_shards = 4
    pool_size = 8
    low_water = 2
    refill_mode = RefillMode.BACKGROUND
    num_dropouts = 1       # on rounds with r % 3 != 0

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.updates = {
            uid: self.gf.random(self.model_dim, rng)
            for uid in range(self.num_users)
        }
        self._drop_rng = np.random.default_rng([self.seed, 1])
        self._dropouts: List[Set[int]] = []

    def dropouts_for(self, op_id: int) -> Set[int]:
        while len(self._dropouts) <= op_id:
            r = len(self._dropouts)
            picked = self._drop_rng.choice(
                self.num_users, self.num_dropouts, replace=False
            )
            # Drawn on every round so the sequence does not depend on
            # which rounds use it.
            self._dropouts.append(
                {int(u) for u in picked} if r % 3 else set()
            )
        return self._dropouts[op_id]

    def cohort_fields(self) -> Dict:
        return dict(
            num_users=self.num_users, privacy=self.guarantee,
            dropout_tolerance=self.guarantee, model_dim=self.model_dim,
            num_shards=self.num_shards, pool_size=self.pool_size,
            low_water=self.low_water, seed=self.seed,
        )

    def verify(self, result: OpResult) -> bool:
        if not result.ok:
            self.fail(f"op {result.op_id}: {result.payload}")
            return False
        survivors, aggregate = result.payload
        dropouts = self.dropouts_for(result.op_id)
        expected_survivors = [
            u for u in range(self.num_users) if u not in dropouts
        ]
        expected = np.sum(
            np.stack([self.updates[u] for u in expected_survivors]), axis=0
        ) % np.uint64(self.gf.q)
        self.hash_aggregate(aggregate)
        if list(survivors) != expected_survivors:
            self.fail(f"op {result.op_id}: survivors {survivors}")
            return False
        if not np.array_equal(aggregate, expected):
            self.fail(f"op {result.op_id}: aggregate != plain field sum")
            return False
        return True

    def probe_context(self) -> Dict:
        return dict(
            kind="sync", gf=self.gf, **self.cohort_fields(),
            updates=self.updates, dropouts=self.dropouts_for(1),
            buffer_size=min(4, self.num_users),
        )


class FacadeSync(SyncRounds):
    """Rounds through the in-process facade (``cohort.run_round``)."""

    tracing = True

    def setup(self) -> None:
        config = ServiceConfig(
            refill_mode=self.refill_mode, tracing=self.tracing,
            **self.cohort_fields(),
        )
        self.svc = AggregationService(config, gf=self.gf).start()
        self.cohort = self.svc.cohorts[0]

    def teardown(self) -> List[str]:
        before = harness.shm_segments()
        self.svc.stop()
        leaks = [f"shm segment {s} left behind"
                 for s in sorted(harness.shm_segments() - before)]
        if self.svc.refiller is not None and self.svc.refiller.running:
            leaks.append("background refiller thread still running")
        return leaks

    def op(self, op_id: int, rec) -> OpResult:
        with rec.span("op", op_id):
            with rec.span("client.encode", op_id):
                dropouts = set(self.dropouts_for(op_id))
            t0 = time.perf_counter()
            with rec.span("facade.call", op_id):
                result = self.cohort.run_round(self.updates, dropouts)
            latency = time.perf_counter() - t0
            with rec.span("client.decode", op_id):
                payload = (list(result.survivors), result.aggregate)
            if self.waits_untimed:
                t0 = time.perf_counter()
                with rec.span("pool.wait", op_id):
                    idle = self.svc.refiller.wait_until_idle(timeout=60.0)
                self.wait_seconds += time.perf_counter() - t0
                if not idle:
                    return OpResult(op_id, latency, False,
                                    payload="pool wait timed out")
        return OpResult(op_id, latency, payload=payload)

    def counters(self) -> Dict:
        return harness.parse_prometheus(self.svc.metrics.render_prometheus())

    def program_traces(self) -> List[Dict[str, float]]:
        return [t.phase_durations() for t in self.svc.traces(limit=20)]

    def peak_rss_mib(self) -> float:
        return harness.rss_hwm_mib()


class SyncFacadeInline(FacadeSync):
    name = "sync_facade_inline"
    waits_untimed = True
    sha_ops = 112


class SyncRefillBound(FacadeSync):
    name = "sync_refill_bound"
    num_users = 64
    guarantee = 8
    model_dim = 8192
    num_shards = 1
    pool_size = 4
    low_water = 0
    refill_mode = RefillMode.SYNC
    num_dropouts = 8
    block_ops = 4          # one pool cycle
    warmup_blocks = 2
    fixed_blocks = 120
    min_blocks = 26


class OverHttp:
    """What every daemon-backed workload reads from its :class:`Topology`."""

    over_http = True
    topo: harness.Topology
    cohort_id: int

    def teardown(self) -> List[str]:
        return self.topo.stop()

    def counters(self) -> Dict:
        return self.topo.metrics()

    def program_traces(self) -> List[Dict[str, float]]:
        """Top-level span durations of the daemon's recent traces."""
        listing = self.topo.get_json(f"/cohorts/{self.cohort_id}/traces")
        out = []
        for summary in listing["traces"]:
            trace = self.topo.get_json(f"/traces/{summary['trace_id']}")
            phases: Dict[str, float] = {}
            for child in trace["root"]["children"]:
                phase = child["name"].split("[", 1)[0]
                phases[phase] = (
                    phases.get(phase, 0.0) + child["duration_seconds"])
            out.append(phases)
        return out

    def peak_rss_mib(self) -> float:
        return self.topo.peak_rss_mib()


class SyncHttpSocket(OverHttp, SyncRounds):
    name = "sync_http_socket"
    waits_untimed = True
    sha_ops = 112
    setup_repeats = 7      # two processes start at once: noisiest set-up

    def prepare(self) -> None:
        super().prepare()
        self.prefix = encode_updates_prefix(self.updates, self.gf.q)

    def setup(self) -> None:
        self.topo = harness.Topology(with_worker=True, log_stem=self.name)
        self.topo.start()
        self.cohort_id = create_cohort(self.topo, dict(
            self.cohort_fields(), transport="socket",
            connect=[self.topo.worker_address]))
        self.path = f"/cohorts/{self.cohort_id}/rounds"

    def _wait_for_pool(self) -> bool:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            status = self.topo.get_json(f"/cohorts/{self.cohort_id}")
            if status["pool_level"] > self.low_water:
                return True
            time.sleep(0.005)
        return False

    def op(self, op_id: int, rec) -> OpResult:
        topo = self.topo
        with rec.span("op", op_id):
            with rec.span("client.encode", op_id):
                body = sync_round_body(self.prefix, self.dropouts_for(op_id))
            bytes_before = topo.body_bytes
            t0 = time.perf_counter()
            with rec.span("http.exchange", op_id):
                status, raw = topo.request("POST", self.path, body)
            latency = time.perf_counter() - t0
            self.op_body_bytes += topo.body_bytes - bytes_before
            self.last_request, self.last_response = body, raw
            if status != 200:
                return OpResult(op_id, latency, False,
                                payload=f"HTTP {status}: {raw[:200]!r}")
            with rec.span("client.decode", op_id):
                response = json.loads(raw)
                aggregate = decode_vector(
                    response["aggregate"], response["encoding"], self.gf.q,
                    self.model_dim, "aggregate",
                )
            if response["pool_level"] <= self.low_water:
                t0 = time.perf_counter()
                with rec.span("pool.wait", op_id):
                    ready = self._wait_for_pool()
                self.wait_seconds += time.perf_counter() - t0
                if not ready:
                    return OpResult(op_id, latency, False,
                                    payload="pool wait timed out")
        return OpResult(op_id, latency,
                        payload=(response["survivors"], aggregate))

    def probe_context(self) -> Dict:
        return dict(super().probe_context(), request_body=self.last_request,
                    topology=self.topo)


def create_cohort(topo: harness.Topology, spec: Dict) -> int:
    """``POST /cohorts``; a refusal stops the topology before raising."""
    try:
        status, payload = topo.request(
            "POST", "/cohorts", json.dumps(spec).encode())
        if status != 201:
            raise RuntimeError(f"POST /cohorts -> {status}: {payload!r}")
        return json.loads(payload)["cohort_id"]
    except BaseException:
        topo.stop()
        raise


# ----------------------------------------------------------------------
# buffered-async submissions with membership churn
# ----------------------------------------------------------------------
class BufferedHttpChurn(OverHttp, Workload):
    name = "buffered_http_churn"
    block_ops = 16         # four drains, then one join + one leave
    fixed_blocks = 100
    min_blocks = 7
    num_users = 8
    guarantee = 2
    buffer_size = 4
    model_dim = 16384
    num_shards = 2
    pool_size = 4
    low_water = 1
    num_vectors = 8        # distinct pre-encoded update vectors

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.vectors = [
            rng.normal(size=self.model_dim) for _ in range(self.num_vectors)
        ]
        self.prefixes = [
            ('{"update": "' + encode_real_vector(v) + '"').encode()
            for v in self.vectors
        ]
        self._rng = np.random.default_rng([self.seed, 1])
        self.members = list(range(self.num_users))
        self.drains = 0
        self._fill: List[Tuple[int, int, int]] = []  # (member, lag, vector)
        self._drain_log: List[Dict] = []

    def cohort_fields(self) -> Dict:
        return dict(
            num_users=self.num_users, privacy=self.guarantee,
            dropout_tolerance=self.guarantee, model_dim=self.model_dim,
            num_shards=self.num_shards, pool_size=self.pool_size,
            low_water=self.low_water, seed=self.seed, kind="buffered",
            buffer_size=self.buffer_size, staleness_fn="polynomial",
        )

    def setup(self) -> None:
        self.topo = harness.Topology(with_worker=False, log_stem=self.name)
        self.topo.start()
        self.cohort_id = create_cohort(self.topo, self.cohort_fields())
        self.path = f"/cohorts/{self.cohort_id}"

    def _next_submission(self) -> Tuple[int, int, int, List[int]]:
        """(member, lag, vector index, dropouts) for the next submit."""
        rng = self._rng
        if not self._fill:
            self._batch = [
                int(m) for m in rng.choice(
                    self.members, self.buffer_size, replace=False)
            ]
        slot = len(self._fill)
        member = self._batch[slot]
        lag = int(rng.integers(2)) if self.drains > 0 else 0
        vector = int(rng.integers(self.num_vectors))
        dropouts: List[int] = []
        sealing = slot == self.buffer_size - 1
        if sealing and self.drains % 3 == 2:
            dropouts = [int(rng.choice(self.members))]
        return member, lag, vector, dropouts

    def op(self, op_id: int, rec) -> OpResult:
        topo = self.topo
        with rec.span("op", op_id):
            with rec.span("client.encode", op_id):
                member, lag, vector, dropouts = self._next_submission()
                body = self.prefixes[vector] + (
                    f', "user_id": {member}, "download_round": '
                    f'{self.drains - lag}, "dropouts": {dropouts}}}'
                ).encode()
            bytes_before = topo.body_bytes
            t0 = time.perf_counter()
            with rec.span("http.exchange", op_id):
                status, raw = topo.request(
                    "POST", self.path + "/updates", body)
            latency = time.perf_counter() - t0
            self.op_body_bytes += topo.body_bytes - bytes_before
            if status != 200:
                return OpResult(op_id, latency, False,
                                payload=f"HTTP {status}: {raw[:200]!r}")
            with rec.span("client.decode", op_id):
                response = json.loads(raw)
                self._fill.append((member, lag, vector))
                sealing = len(self._fill) == self.buffer_size
                if sealing:
                    self.last_request, self.last_response = body, raw
                    response["aggregate"] = np.frombuffer(
                        base64.b64decode(response["aggregate"]), dtype="<f8"
                    )
                    slot_of = {m: i for i, m in enumerate(self.members)}
                    self._drain_log.append(dict(
                        op_id=op_id, drain_index=self.drains,
                        fill=self._fill, response=response,
                        recovery={slot_of[m] for m in dropouts},
                        num_members=len(self.members),
                    ))
                    self._fill = []
                    self.drains += 1
        expected_fill = 0 if sealing else len(self._fill)
        return OpResult(op_id, latency,
                        kind="seal" if sealing else "fill",
                        payload=(response, expected_fill))

    def after_block(self, block: int, rec) -> List[OpResult]:
        """One join and one leave: two re-keys that invalidate the pool."""
        topo = self.topo
        results = []
        for kind in ("join", "leave"):
            if kind == "join":
                method, path, want = "POST", self.path + "/members", 201
            else:
                method = "DELETE"
                path, want = f"{self.path}/members/{self.members[0]}", 200
            bytes_before = topo.body_bytes
            t0 = time.perf_counter()
            with rec.span(f"http.exchange.{kind}", None):
                status, raw = topo.request(method, path)
            latency = time.perf_counter() - t0
            self.op_body_bytes += topo.body_bytes - bytes_before
            ok = status == want
            if ok:
                reply = json.loads(raw)
                if kind == "join":
                    self.members.append(reply["user_id"])
                else:
                    self.members.pop(0)
                ok = reply["num_users"] == len(self.members)
            results.append(OpResult(-1, latency, ok, kind=kind,
                                    payload=f"HTTP {status}: {raw[:200]!r}"))
        return results

    def verify(self, result: OpResult) -> bool:
        if not result.ok:
            self.fail(f"{result.kind} {result.op_id}: {result.payload}")
            return False
        if result.kind in ("join", "leave"):
            return True
        response, expected_fill = result.payload
        sealing = result.kind == "seal"
        if bool(response.get("drained")) != sealing or (
            not sealing and response.get("buffer_fill") != expected_fill
        ):
            self.fail(f"op {result.op_id}: unexpected buffer state "
                      f"{ {k: v for k, v in response.items() if k != 'aggregate'} }")
            return False
        return True  # the drain's aggregate is checked post hoc in finish()

    def finish(self) -> None:
        """Every drain against the single-process oracle, post hoc."""
        quantizer = ModelQuantizer(
            self.gf, QuantizationConfig(levels=1 << 16))
        staleness = build_staleness("polynomial")
        oracles: Dict[int, AsyncSecureAggregator] = {}
        for entry in self._drain_log:
            n = entry["num_members"]
            if n not in oracles:
                oracles[n] = AsyncSecureAggregator(
                    self.gf,
                    LSAParams.from_guarantees(
                        n, privacy=self.guarantee,
                        dropout_tolerance=self.guarantee),
                    self.model_dim, quantizer, staleness,
                )
            response = entry["response"]
            deliveries = [
                AsyncDelivery(user_id=member, staleness=lag,
                              update=self.vectors[vector])
                for member, lag, vector in entry["fill"]
            ]
            expected = oracles[n].aggregate(
                deliveries,
                rng=drain_stream(self.seed, self.cohort_id,
                                 entry["drain_index"]),
                recovery_dropouts=entry["recovery"],
            )
            survivors = [s for s in range(n) if s not in entry["recovery"]]
            problems = []
            if response["drain_index"] != entry["drain_index"]:
                problems.append(f"drain_index {response['drain_index']}")
            if response["staleness"] != [lag for _, lag, _ in entry["fill"]]:
                problems.append(f"staleness {response['staleness']}")
            if response["survivors"] != survivors:
                problems.append(f"survivors {response['survivors']}")
            if not np.array_equal(response["aggregate"], expected):
                problems.append("aggregate != AsyncSecureAggregator oracle")
            if problems:
                self.fail(f"drain {entry['drain_index']} (op "
                          f"{entry['op_id']}): " + ", ".join(problems))
        self.drains_verified = len(self._drain_log)
        self._drain_log = []

    def probe_context(self) -> Dict:
        rng = np.random.default_rng([self.seed, 2])
        fields = self.cohort_fields()
        for key in ("kind", "staleness_fn"):
            fields.pop(key)
        return dict(
            kind="buffered", gf=self.gf, **fields,
            updates={uid: self.gf.random(self.model_dim, rng)
                     for uid in range(self.num_users)},
            dropouts={1}, real_update=self.vectors[0],
            request_body=self.last_request, topology=self.topo,
        )


WORKLOADS = {
    cls.name: cls
    for cls in (SyncHttpSocket, SyncFacadeInline, SyncRefillBound,
                BufferedHttpChurn)
}

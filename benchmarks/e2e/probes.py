"""Layer probes: time each layer's exported functions from outside.

After the op loop of a traced run, one recorded op's inputs are replayed
through each layer's public function at the workload's (shard) shapes,
:data:`CALLS` times, and the median is reported.  Every probe runs on
every workload — at that workload's shapes — so each per-layer time is a
real measurement everywhere; :data:`CALLS_PER_OP` says on which workloads
the layer actually sits on the op path and how often.

A probe whose target cannot be imported or raises reports ``None`` with
the error string; it never fails the run.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Callable, Dict, Tuple

import numpy as np

CALLS = 20

#: workload -> metric -> (calls per op, nested).  ``nested`` probes run
#: inside another listed probe (``field.add`` inside ``session.run_round``)
#: and are left out of the attribution sum to avoid double counting.
#: Counts are for the median op: the pool-hit round, the non-sealing
#: submit.
_SYNC_SHARDED = {
    "sharding.scatter_ms": (16, False),
    "sharding.gather_ms": (1, False),
    "session.run_round_ms": (4, False),
    "field.add_ms": (4, True),
    "field.sum_ms": (4, True),
    "coding.decode_aggregate_ms": (4, True),
}
CALLS_PER_OP: Dict[str, Dict[str, Tuple[int, bool]]] = {
    "sync_facade_inline": dict(_SYNC_SHARDED),
    "sync_http_socket": dict(
        _SYNC_SHARDED,
        **{
            "api.decode_request_ms": (1, False),
            "api.encode_response_ms": (1, False),
            "api.empty_request_ms": (1, False),
            "wire.encode_request_ms": (4, False),
            "wire.decode_request_ms": (4, False),
            "wire.encode_result_ms": (4, False),
            "wire.decode_result_ms": (4, False),
            "wire.pack_bits_ms": (4, True),
            "wire.unpack_bits_ms": (4, True),
        },
    ),
    "sync_refill_bound": {
        "session.run_round_ms": (1, False),
        "field.add_ms": (1, True),
        "field.sum_ms": (1, True),
        "coding.decode_aggregate_ms": (1, True),
    },
    "buffered_http_churn": {
        "api.decode_request_ms": (1, False),
        "api.empty_request_ms": (1, False),
    },
}


class _Shapes:
    """The workload's geometry and one op's inputs, cut to one shard."""

    def __init__(self, ctx: Dict, rec):
        from repro.coding.mask_encoding import MaskEncoder
        from repro.protocols.lightsecagg.params import LSAParams
        from repro.service.sharding import ShardPlan

        self.ctx = ctx
        self.rec = rec
        self.values: Dict[str, float] = {}
        self.gf = ctx["gf"]
        self.n = ctx["num_users"]
        self.dim = ctx["model_dim"]
        self.plan = ShardPlan(self.dim, ctx["num_shards"])
        self.shard_dim = self.plan.widths[0]
        self.params = LSAParams.from_guarantees(
            self.n, privacy=ctx["privacy"],
            dropout_tolerance=ctx["dropout_tolerance"],
        )
        self.u = self.params.target_survivors
        self.pool = ctx["pool_size"]
        self.encoder = MaskEncoder(
            self.gf, num_users=self.n, target_survivors=self.u,
            privacy=ctx["privacy"], model_dim=self.shard_dim,
        )
        self.rng = np.random.default_rng([ctx["seed"], 99])
        self.updates = ctx["updates"]
        self.dropouts = set(ctx["dropouts"])
        self.shard_updates = {
            uid: self.plan.scatter(vec)[0]
            for uid, vec in self.updates.items()
        }

    def time(self, metric: str, fn: Callable[[], object]) -> None:
        """Record the median of :data:`CALLS` timed calls of ``fn`` as
        ``metric`` (ms), under one ``probe.<layer>.<fn>`` span."""
        times = []
        with self.rec.span("probe." + metric.rsplit("_ms", 1)[0]):
            for _ in range(CALLS):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
        self.values[metric] = statistics.median(times) * 1e3

    def session_spec(self, protocol: str):
        from repro.service.transport import ShardSessionSpec

        return ShardSessionSpec(
            protocol=protocol, num_users=self.n, shard_dim=self.shard_dim,
            privacy=self.ctx["privacy"],
            dropout_tolerance=self.ctx["dropout_tolerance"],
            pool_size=self.pool, low_water=0,
            seed=(self.ctx["seed"], 0, 0), field_modulus=self.gf.q,
        )


# ----------------------------------------------------------------------
# one function per layer; each stores its metrics in ``s.values``
# ----------------------------------------------------------------------
def probe_field(s: _Shapes) -> None:
    gf = s.gf
    stacked = np.stack([s.shard_updates[u] for u in range(s.n)])
    masks = gf.random((s.n, s.shard_dim), s.rng)
    grid = gf.random((s.n, s.u, s.encoder.share_dim), s.rng)
    generator = s.encoder.code.generator_matrix.T.copy()  # (N, U)
    data = gf.random((s.u, s.pool * s.n * s.encoder.share_dim), s.rng)

    def sums():
        gf.sum(stacked, axis=0)   # masked-update sum
        gf.sum(grid, axis=0)      # aggregated-share sum

    s.time("field.add_ms", lambda: gf.add(stacked, masks))
    s.time("field.sum_ms", sums)
    s.time("field.matmul_ms", lambda: gf.matmul(generator, data))


def probe_coding(s: _Shapes) -> None:
    masks = s.gf.random((s.pool * s.n, s.shard_dim), s.rng)
    shares = {
        j: s.gf.random(s.encoder.share_dim, s.rng) for j in range(s.u)
    }
    s.time("coding.encode_batch_ms",
           lambda: s.encoder.encode_batch(masks, s.rng))
    s.time("coding.decode_aggregate_ms",
           lambda: s.encoder.decode_aggregate(shares))


def probe_session(s: _Shapes) -> None:
    """``LightSecAggSession`` rounds on pool hits; refills timed apart."""
    session = s.session_spec("lightsecagg").build(s.gf)
    rounds, refills = [], []
    try:
        while len(rounds) < CALLS:
            with s.rec.span("probe.session.refill"):
                t0 = time.perf_counter()
                added = session.refill()
                refills.append((time.perf_counter() - t0) / added)
            with s.rec.span("probe.session.run_round"):
                for _ in range(min(added, CALLS - len(rounds))):
                    t0 = time.perf_counter()
                    session.run_round(s.shard_updates, s.dropouts)
                    rounds.append(time.perf_counter() - t0)
    finally:
        session.close()
    s.values["session.run_round_ms"] = statistics.median(rounds) * 1e3
    s.values["session.refill_ms_per_round"] = (
        statistics.median(refills) * 1e3)


def probe_asyncfl(s: _Shapes) -> None:
    from repro.quantization import ModelQuantizer, QuantizationConfig

    batch = s.ctx["buffer_size"]
    weights = np.arange(1, batch + 1, dtype=np.uint64)
    updates = np.stack([s.shard_updates[u] for u in range(batch)])
    session = s.session_spec("lightsecagg-buffered").build(s.gf)
    drains = []
    sizes = [s.n + 1, s.n]

    def rekey():  # join, leave, join, ...
        sizes.reverse()
        session.rekey(sizes[1])

    try:
        while len(drains) < CALLS:
            added = session.refill()
            with s.rec.span("probe.asyncfl.drain"):
                for _ in range(min(added, CALLS - len(drains))):
                    t0 = time.perf_counter()
                    session.drain(weights, updates, {1})
                    drains.append(time.perf_counter() - t0)
        s.values["asyncfl.drain_ms"] = statistics.median(drains) * 1e3
        s.time("asyncfl.rekey_ms", rekey)
    finally:
        session.close()
    real = s.ctx.get("real_update")
    if real is None:
        real = s.rng.normal(size=s.dim)
    quantizer = ModelQuantizer(s.gf, QuantizationConfig(levels=1 << 16))
    s.time("quantization.quantize_ms", lambda: quantizer.quantize(real, s.rng))


def probe_wire(s: _Shapes) -> None:
    from repro.service.api.schemas import field_bits
    from repro.wire import (
        ShardRoundRequest, ShardRoundResult, decode_message,
        encode_segments, pack_bits, unpack_bits,
    )

    request = ShardRoundRequest.from_updates(
        0, 1, s.shard_updates, s.dropouts, packed=True)
    session = s.session_spec("lightsecagg").build(s.gf)
    try:
        outcome = session.run_round(s.shard_updates, s.dropouts)
        result = ShardRoundResult.from_result(
            0, 1, outcome, False, session.pool_level, session.stats,
            packed=True)
    finally:
        session.close()
    request_frame = b"".join(encode_segments(request, 1))
    result_frame = b"".join(encode_segments(result, 1))
    bits = field_bits(s.gf.q)
    packed = pack_bits(outcome.aggregate, bits)
    s.values["wire.request_bytes"] = float(len(request_frame))
    s.values["wire.result_bytes"] = float(len(result_frame))
    s.time("wire.encode_request_ms",
           lambda: b"".join(encode_segments(request, 1)))
    s.time("wire.decode_request_ms", lambda: decode_message(request_frame))
    s.time("wire.encode_result_ms",
           lambda: b"".join(encode_segments(result, 1)))
    s.time("wire.decode_result_ms", lambda: decode_message(result_frame))
    s.time("wire.pack_bits_ms", lambda: pack_bits(outcome.aggregate, bits))
    s.time("wire.unpack_bits_ms",
           lambda: unpack_bits(packed, bits, s.shard_dim))


def probe_sharding(s: _Shapes) -> None:
    vector = s.updates[0]
    pieces = s.plan.scatter(vector)
    s.time("sharding.scatter_ms", lambda: s.plan.scatter(vector))
    s.time("sharding.gather_ms", lambda: s.plan.gather(pieces))


def probe_api(s: _Shapes) -> None:
    """Request decode / response encode on a real (or twin) body."""
    from repro.service.api.schemas import (
        RoundRequest, RoundResponse, SubmitUpdateRequest,
        encode_real_vector, encode_vector,
    )
    from repro.service.config import CohortSpec

    gf = s.gf
    if s.ctx["kind"] == "buffered":
        body = s.ctx["request_body"]
        aggregate = s.rng.normal(size=s.dim)

        def decode():
            SubmitUpdateRequest.from_json(json.loads(body)).decode(s.dim)

        def encode():  # the sealing submit's reply
            json.dumps({
                "drained": True, "drain_index": 0, "round": 1,
                "num_updates": 4, "total_weight": 4,
                "weights": [1, 1, 1, 1], "staleness": [0, 0, 0, 0],
                "survivors": list(range(s.n)), "cohort_id": 0,
                "aggregate": encode_real_vector(aggregate),
                "encoding": "f64",
            }).encode("utf-8")
    else:
        body = s.ctx.get("request_body")
        if not body:
            # Facade workloads send no body; probe the one their HTTP
            # twin would send for the same op.
            from workloads import encode_updates_prefix, sync_round_body

            body = sync_round_body(
                encode_updates_prefix(s.updates, gf.q), s.dropouts)
        spec = CohortSpec(
            num_users=s.n, model_dim=s.dim,
            num_shards=s.ctx["num_shards"], pool_size=s.pool,
            low_water=s.ctx["low_water"], privacy=s.ctx["privacy"],
            dropout_tolerance=s.ctx["dropout_tolerance"],
        )
        aggregate = gf.random(s.dim, s.rng)

        def decode():
            RoundRequest.from_json(json.loads(body)).materialize(spec, gf)

        def encode():
            json.dumps(RoundResponse(
                cohort_id=0, round_index=1, survivors=list(range(s.n)),
                aggregate_b64=encode_vector(aggregate, "packed", gf.q),
                encoding="packed", online_seconds=0.05, pool_level=4,
            ).to_json()).encode("utf-8")

    s.time("api.decode_request_ms", decode)
    s.time("api.encode_response_ms", encode)


def probe_api_live(s: _Shapes) -> None:
    """``GET /healthz``: connection + handler thread + dispatch."""
    topo = s.ctx.get("topology")
    if topo is None:
        raise LookupError("no daemon in this workload's topology")
    s.time("api.empty_request_ms", lambda: topo.request("GET", "/healthz"))


#: probe -> the metrics it owes (named in the error when it raises)
PROBES: Dict[Callable, Tuple[str, ...]] = {
    probe_field: ("field.add_ms", "field.sum_ms", "field.matmul_ms"),
    probe_coding: ("coding.encode_batch_ms", "coding.decode_aggregate_ms"),
    probe_session: ("session.run_round_ms", "session.refill_ms_per_round"),
    probe_asyncfl: ("asyncfl.drain_ms", "asyncfl.rekey_ms",
                    "quantization.quantize_ms"),
    probe_wire: ("wire.encode_request_ms", "wire.decode_request_ms",
                 "wire.encode_result_ms", "wire.decode_result_ms",
                 "wire.pack_bits_ms", "wire.unpack_bits_ms",
                 "wire.request_bytes", "wire.result_bytes"),
    probe_sharding: ("sharding.scatter_ms", "sharding.gather_ms"),
    probe_api: ("api.decode_request_ms", "api.encode_response_ms"),
    probe_api_live: ("api.empty_request_ms",),
}


def run_probes(ctx: Dict, rec) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Run every probe; returns ``(values, errors)`` keyed by metric."""
    errors: Dict[str, str] = {}
    try:
        shapes = _Shapes(ctx, rec)
    except Exception as exc:  # noqa: BLE001 — a probe never fails the run
        error = f"{type(exc).__name__}: {exc}"
        return {}, {m: error for metrics in PROBES.values() for m in metrics}
    for fn, metrics in PROBES.items():
        try:
            fn(shapes)
        except Exception as exc:  # noqa: BLE001
            for metric in metrics:
                if metric not in shapes.values:
                    errors[metric] = f"{type(exc).__name__}: {exc}"
    return shapes.values, errors

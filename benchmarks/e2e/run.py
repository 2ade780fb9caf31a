#!/usr/bin/env python3
"""End-to-end benchmark of the aggregation service.

Two ways in:

* ``python benchmarks/e2e/run.py --seed S`` runs all four workloads, each
  in fresh runner processes (an untraced pass, then a traced pass), with
  the issue's fixed op counts, and writes ``out/report.json`` plus
  ``out/trace-<workload>.jsonl``.
* ``python benchmarks/e2e/run.py --workload W --seed S --seconds T
  --trace 0|1`` is one pass of one workload (what the benchmark driver
  calls); its last stdout line is one JSON object holding the metrics
  ``BENCHMARK.json`` lists for that pass.

The untraced pass takes one ``perf_counter`` pair per op and yields the
end-to-end metrics.  The traced pass records the benchmark's own spans on
every other block (traced and untraced blocks share one topology and one
window — the median ratio of adjacent blocks is the tracing overhead),
then reads the program's counters and traces and runs the layer probes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

sys.path.insert(0, str(harness.SRC))

SCHEMA = "repro-e2e-bench/1"
WORKLOAD_NAMES = (
    "sync_http_socket", "sync_facade_inline", "sync_refill_bound",
    "buffered_http_churn",
)


def metric(value, unit: str, n: Optional[int] = None,
           error: Optional[str] = None) -> Dict:
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    if error is not None:
        out["error"] = error
    return out


# ----------------------------------------------------------------------
# the op loop
# ----------------------------------------------------------------------
class Window:
    """Samples of one run of consecutive blocks."""

    def __init__(self):
        self.latencies: List[float] = []
        self.traced: List[bool] = []
        self.kinds: List[str] = []
        self.churn: List[float] = []
        self.blocks: List[tuple] = []

    def ops(self, traced: Optional[bool] = None,
            kind: Optional[str] = None) -> List[float]:
        return [
            lat for lat, t, k in zip(self.latencies, self.traced, self.kinds)
            if (traced is None or t == traced) and (kind is None or k == kind)
        ]


def run_blocks(wl, rec, next_op: int, *, blocks: Optional[int],
               seconds: Optional[float], trace: bool) -> Window:
    """Run whole blocks: ``blocks`` of them, or until ``seconds`` elapse
    (never fewer than the workload's ``min_blocks``)."""
    window = Window()
    start = time.perf_counter()
    index = 0
    while True:
        if blocks is not None:
            if index >= blocks:
                break
        elif index >= wl.min_blocks and (
            time.perf_counter() - start >= seconds
        ):
            break
        traced = trace and index % 2 == 0
        rec.enabled = traced
        t0 = time.perf_counter()
        results = [wl.op(next_op + i, rec) for i in range(wl.block_ops)]
        extra = wl.after_block(index, rec)
        wall = time.perf_counter() - t0
        next_op += wl.block_ops
        for result in results + extra:
            with rec.span("verify", result.op_id):
                wl.verify(result)
        rec.enabled = False
        wl.attempted += len(results) + len(extra)
        window.latencies += [r.latency for r in results]
        window.kinds += [r.kind for r in results]
        window.traced += [traced] * len(results)
        window.churn += [r.latency for r in extra]
        timed = sum(r.latency for r in results + extra)
        window.blocks.append(
            (len(results), timed if wl.waits_untimed else wall))
        index += 1
    return window


def flat_counters(samples: Dict) -> Dict[str, float]:
    """Exposition-style keys; histogram buckets left out (sum/count stay)."""
    return {
        name + ("{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}"
                if labels else ""): value
        for name, series in sorted(samples.items())
        if not name.endswith("_bucket")
        for labels, value in sorted(series.items())
    }


# ----------------------------------------------------------------------
# one pass of one workload
# ----------------------------------------------------------------------
def zeroable_metrics(wl, ops: int, body_bytes: int, before: Dict,
                     after: Dict) -> Dict[str, Dict]:
    """The two end-to-end metrics that may read 0; both passes report
    them (see ``harness.EXTRA_END_TO_END``)."""
    transport_bytes = sum(
        harness.prom_delta(before, after, name)
        for name in ("repro_transport_bytes_sent_total",
                     "repro_transport_bytes_received_total")
    )
    return {
        "failed_share": metric(wl.failed / wl.attempted, "ratio",
                               wl.attempted),
        "wire_bytes_per_op": metric(
            (body_bytes + transport_bytes) / ops, "B", ops),
    }


def end_to_end_metrics(wl, window: Window, setups: List[float],
                       before: Dict, after: Dict, body_bytes: int,
                       rss: float) -> Dict[str, Dict]:
    ops = len(window.latencies)
    return {
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "ops_per_s": metric(
            harness.block_median_rate(window.blocks), "op/s",
            len(window.blocks)),
        "op_p50_ms": metric(
            harness.percentile(window.latencies, 50) * 1e3, "ms", ops),
        "op_p90_ms": metric(
            harness.percentile(window.latencies, 90) * 1e3, "ms", ops),
        "peak_rss_mb": metric(rss, "MiB", 1),
        **zeroable_metrics(wl, ops, body_bytes, before, after),
    }


def _median_ms(values: List[float]) -> Optional[float]:
    return statistics.median(values) * 1e3 if values else None


def per_layer_metrics(wl, window: Window, spans: Dict, before: Dict,
                      after: Dict, body_bytes: int, traces: List[Dict],
                      probe_values: Dict, probe_errors: Dict,
                      untraced_reference_ms: Optional[float]) -> Dict:
    from probes import CALLS

    ops = len(window.latencies)
    delta = functools.partial(harness.prom_delta, before, after)
    out: Dict[str, Dict] = {}
    for name in (*probe_values, *probe_errors):
        out[name] = metric(
            probe_values.get(name), "B" if name.endswith("_bytes") else "ms",
            CALLS if name in probe_values else 0, probe_errors.get(name))

    # counters the program publishes, over the timed window
    t_rounds = delta("repro_transport_rounds_total")
    t_seconds = delta("repro_transport_round_seconds_total")
    sent = delta("repro_transport_bytes_sent_total")
    received = delta("repro_transport_bytes_received_total")
    out["session.pool_miss_share"] = metric(
        delta("repro_stalls_total") / ops, "ratio", ops)
    round_ms = t_seconds / t_rounds * 1e3 if t_rounds else None
    out["transport.round_ms"] = metric(round_ms, "ms", int(t_rounds))
    session_ms = probe_values.get("session.run_round_ms")
    out["transport.hop_ms"] = metric(
        round_ms - wl.num_shards * session_ms
        if round_ms is not None and session_ms is not None else None,
        "ms", int(t_rounds))
    out["transport.bytes_sent_per_op"] = metric(sent / ops, "B", ops)
    out["transport.bytes_received_per_op"] = metric(received / ops, "B", ops)
    out["transport.shard_stalls_per_op"] = metric(
        delta("repro_transport_shard_stalls_total") / ops, "count", ops)
    out["refill.wait_ms_per_op"] = metric(
        wl.wait_seconds / ops * 1e3, "ms", ops)
    out["refill.background_refills_per_op"] = metric(
        delta("repro_background_refills_total") / ops, "count", ops)

    # outside timing against program-reported online seconds
    overhead = (sum(window.latencies)
                - delta("repro_online_seconds_total")) / ops * 1e3
    out["api.overhead_ms" if wl.over_http else "engines.overhead_ms"] = (
        metric(overhead, "ms", ops))
    out["api.request_bytes"] = metric(float(len(wl.last_request)), "B", 1)
    out["api.response_bytes"] = metric(float(len(wl.last_response)), "B", 1)
    seal, fill = window.ops(kind="seal"), window.ops(kind="fill")
    if seal and fill:
        out["engines.seal_extra_ms"] = metric(
            _median_ms(seal) - _median_ms(fill), "ms", len(seal))
    if window.churn:
        out["engines.churn_ms"] = metric(
            _median_ms(window.churn), "ms", len(window.churn))

    # the program's own round traces (top-level spans)
    for phase in ("shard_scatter", "shard_compute", "shard_gather",
                  "reconstruct", "offline_refill", "drain"):
        values = [t[phase] for t in traces if phase in t]
        if values:
            out[f"trace.{phase}_ms"] = metric(
                _median_ms(values), "ms", len(values))

    # the benchmark's own validity checks
    n = wl.block_ops
    sums = [sum(window.latencies[i:i + n])
            for i in range(0, len(window.latencies), n)]
    # even blocks ran with the span recorder on, the next one with it off
    pairs = [on / off for on, off in zip(sums[0::2], sums[1::2])]
    out["bench.trace_overhead_ratio"] = metric(
        statistics.median(pairs), "ratio", len(pairs))
    untraced_ops = window.ops(traced=False)
    untraced_p50 = harness.percentile(untraced_ops, 50) * 1e3
    encode = spans.get("client.encode")
    out["bench.client_encode_ms"] = metric(
        encode["total_ms"] if encode else None, "ms",
        encode["n"] if encode else 0)
    if untraced_reference_ms is not None:
        out["obs.tracing_overhead_ms"] = metric(
            untraced_p50 - untraced_reference_ms, "ms", len(untraced_ops))

    out.update(zeroable_metrics(wl, ops, body_bytes, before, after))
    return out


def attribution(name: str, layers: Dict, spans: Dict) -> Dict:
    """How much of the traced op's p50 the outside view accounts for."""
    from probes import CALLS_PER_OP

    exchange = spans.get("http.exchange") or spans.get("facade.call")
    shares = {}
    accounted = 0.0
    for layer, (calls, nested) in CALLS_PER_OP[name].items():
        value = layers.get(layer, {}).get("value")
        if value is None:
            continue
        shares[layer] = {
            "probe_ms": value, "calls_per_op": calls, "nested": nested,
            "share_of_op_p50": value * calls / exchange["total_ms"],
        }
        if not nested:
            accounted += value * calls
    return {
        "op_p50_ms": exchange["total_ms"],
        "accounted_ms": accounted,
        "unattributed_ms": exchange["total_ms"] - accounted,
        "unattributed_share": 1.0 - accounted / exchange["total_ms"],
        "layers": shares,
        "span_self_ms": {k: v["self_ms"] for k, v in spans.items()},
    }


def reconcile(wl, layers: Dict) -> List[str]:
    """The program's trace phases against the outside view; mismatches."""
    def value(name):
        return layers.get(name, {}).get("value")

    flags = []
    compute, session = value("trace.shard_compute_ms"), value(
        "session.run_round_ms")
    pairs = []
    if compute is not None and session is not None:
        pairs.append(("trace.shard_compute_ms", compute,
                      f"{wl.num_shards} x session.run_round_ms",
                      wl.num_shards * session))
    round_ms = value("transport.round_ms")
    if round_ms is not None and compute is not None:
        phases = [value(f"trace.shard_{p}_ms") or 0.0
                  for p in ("scatter", "gather")]
        inside = sum(phases) if any(phases) else compute
        pairs.append(("transport.round_ms", round_ms,
                      "trace scatter+gather (or compute, inline)", inside))
    for left, a, right, b in pairs:
        if abs(a - b) > 0.25 * max(a, b):
            flags.append(f"{left} = {a:.3f} ms but {right} = {b:.3f} ms")
    return flags


def tracing_off_reference(wl_cls, seed: int) -> float:
    """p50 of the same facade workload with ``tracing=False`` (ms)."""
    wl = wl_cls(seed)
    wl.tracing = False
    wl.prepare()
    wl.setup()
    try:
        rec = harness.SpanRecorder(enabled=False)
        run_blocks(wl, rec, 0, blocks=wl.warmup_blocks, seconds=None,
                   trace=False)
        window = run_blocks(wl, rec, wl.warmup_blocks * wl.block_ops,
                            blocks=5, seconds=None, trace=False)
    finally:
        wl.teardown()
    if wl.failed:
        raise RuntimeError(f"tracing-off reference failed: {wl.failures}")
    return harness.percentile(window.latencies, 50) * 1e3


def run_one(name: str, seed: int, seconds: Optional[float],
            trace: bool) -> int:
    try:
        import numpy as np
        from repro.field import FiniteField
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"benchmark needs the repo's src/ tree: {exc}",
              file=sys.stderr)
        return 2

    def on_sigterm(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_sigterm)
    spec = harness.load_benchmark_spec()
    host = harness.host_fingerprint()
    gf = FiniteField()
    gf.matmul(gf.random((4, 4), np.random.default_rng(0)),
              gf.random((4, 4), np.random.default_rng(1)))

    wl = WORKLOADS[name](seed)
    wl.prepare()
    rec = harness.SpanRecorder(enabled=False)
    setups: List[float] = []
    leaks: List[str] = []
    repeats = 1 if trace else wl.setup_repeats
    for _ in range(repeats - 1):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
        leaks += wl.teardown()
    t0 = time.perf_counter()
    wl.setup()
    try:
        setups.append(time.perf_counter() - t0)
        run_blocks(wl, rec, 0, blocks=wl.warmup_blocks, seconds=None,
                   trace=False)
        before = wl.counters()
        body_before = wl.op_body_bytes
        wl.wait_seconds = 0.0
        window = run_blocks(
            wl, rec, wl.warmup_blocks * wl.block_ops,
            blocks=wl.fixed_blocks if seconds is None else None,
            seconds=seconds, trace=trace,
        )
        after = wl.counters()
        body_bytes = wl.op_body_bytes - body_before
        wl.finish()
        result = {
            "schema": SCHEMA, "workload": name, "seed": seed,
            "trace": int(trace), "seconds": seconds,
            "ops": {"warmup": wl.warmup_blocks * wl.block_ops,
                    "timed": len(window.latencies),
                    "blocks": len(window.blocks),
                    "block_ops": wl.block_ops,
                    "churn": len(window.churn)},
            "aggregate_sha256": wl.aggregate_sha256,
            "drains_verified": wl.drains_verified,
        }
        if trace:
            traces = wl.program_traces()
            rec.enabled = True
            from probes import run_probes
            probe_values, probe_errors = run_probes(wl.probe_context(), rec)
            rec.enabled = False
            reference = None
            if name == "sync_facade_inline":
                reference = tracing_off_reference(WORKLOADS[name], seed)
            spans = harness.span_medians_ms(rec.spans)
            layers = per_layer_metrics(
                wl, window, spans, before, after, body_bytes, traces,
                probe_values, probe_errors, reference)
            result["per_layer"] = layers
            result["attribution"] = attribution(name, layers, spans)
            result["reconcile_flags"] = reconcile(wl, layers)
        else:
            result["end_to_end"] = end_to_end_metrics(
                wl, window, setups, before, after, body_bytes,
                wl.peak_rss_mib())
    finally:
        leaks += wl.teardown()
    for leak in leaks:
        wl.fail(f"leak: {leak}")
    result.update(
        attempted=wl.attempted, failed=wl.failed, failures=wl.failures,
        leaks=leaks, host=harness.finish_fingerprint(host),
    )

    harness.OUT.mkdir(exist_ok=True)
    with open(harness.OUT / f"result-{name}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if trace:
        write_trace(name, seed, rec, before, after)

    group = "per_layer" if trace else "end_to_end"
    print_metrics(name, result, group)
    wanted = [m["name"] for m in spec[group]]
    line = {
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {
            m: {k: result[group].get(m, {}).get(k) for k in ("value", "unit")}
            for m in wanted
        },
    }
    print(json.dumps(line), flush=True)
    return 0 if wl.failed == 0 else 1


def write_trace(name: str, seed: int, rec, before: Dict, after: Dict) -> None:
    selfs = harness.self_times(rec.spans)
    with open(harness.OUT / f"trace-{name}.jsonl", "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "header", "schema": SCHEMA,
                             "workload": name, "seed": seed,
                             "clock": "perf_counter seconds"}) + "\n")
        for when, samples in (("before", before), ("after", after)):
            fh.write(json.dumps({"type": "counters", "when": when,
                                 "samples": flat_counters(samples)}) + "\n")
        for index, (span, self_s) in enumerate(zip(rec.spans, selfs)):
            span_name, start, end, parent, op_id = span
            fh.write(json.dumps({
                "type": "span", "id": index, "name": span_name,
                "start": start, "end": end, "parent": parent,
                "op_id": op_id, "self": self_s}) + "\n")


def print_metrics(name: str, result: Dict, group: str) -> None:
    ops = result["ops"]
    print(f"== {name}  seed={result['seed']}  trace={result['trace']}  "
          f"ops: {ops['warmup']} warm-up + {ops['timed']} timed in "
          f"{ops['blocks']} blocks  failed {result['failed']}/"
          f"{result['attempted']}")
    for metric_name, m in result[group].items():
        value = ("null (" + m.get("error", "not measured") + ")"
                 if m["value"] is None else f"{m['value']:.6g}")
        print(f"  {metric_name:36s} {value:>14s} {m['unit']:6s} "
              f"n={m.get('n', '-')}")
    if "attribution" in result:
        a = result["attribution"]
        print(f"  op p50 {a['op_p50_ms']:.3f} ms = {a['accounted_ms']:.3f} ms"
              f" accounted by probes + {a['unattributed_ms']:.3f} ms "
              f"unattributed ({a['unattributed_share']:.1%})")
        for layer, s in a["layers"].items():
            print(f"    {layer:32s} {s['probe_ms']:.4f} ms x "
                  f"{s['calls_per_op']:2d} = {s['share_of_op_p50']:6.1%} "
                  f"of op p50{' (nested)' if s['nested'] else ''}")
        for flag in result["reconcile_flags"]:
            print(f"  MISMATCH {flag}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


# ----------------------------------------------------------------------
# all four workloads -> one report
# ----------------------------------------------------------------------
def run_all(seed: int, seconds: Optional[float], repeats: int,
            out_path: Path) -> int:
    host = harness.host_fingerprint()
    report = {
        "schema": SCHEMA, "seed": seed, "seconds": seconds,
        "repeats": repeats, "bounds": harness.end_to_end_table(),
        "workloads": {},
    }
    status = 0
    for name in WORKLOAD_NAMES:
        entry = {"end_to_end": {}, "per_layer": {}, "runs": []}
        for repeat in range(repeats):
            for trace in (0, 1):
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(seed + repeat),
                       "--trace", str(trace)]
                if seconds is not None:
                    cmd += ["--seconds", str(seconds)]
                child = subprocess.Popen(cmd)
                try:
                    code = child.wait()
                finally:
                    if child.poll() is None:
                        child.terminate()
                        child.wait()
                if code != 0:
                    status = 1
                path = harness.OUT / f"result-{name}-trace{trace}.json"
                if code not in (0, 1) or not path.exists():
                    entry["runs"].append({"trace": trace, "exit": code})
                    continue
                with open(path, encoding="utf-8") as fh:
                    result = json.load(fh)
                group = "per_layer" if trace else "end_to_end"
                for metric_name, m in result[group].items():
                    slot = entry[group].setdefault(
                        metric_name, {"unit": m["unit"], "values": [],
                                      "n": m.get("n")})
                    slot["values"].append(m["value"])
                entry["runs"].append({
                    k: result[k] for k in (
                        "seed", "trace", "ops", "attempted", "failed", "failures",
                        "leaks", "aggregate_sha256", "drains_verified")
                } | {"exit": code,
                     "attribution": result.get("attribution"),
                     "reconcile_flags": result.get("reconcile_flags")})
        for group in ("end_to_end", "per_layer"):
            for slot in entry[group].values():
                values = [v for v in slot["values"] if v is not None]
                slot["median"] = statistics.median(values) if values else None
        report["workloads"][name] = entry

    def sha(name):  # one entry per pass: (seed, trace) -> digest
        return {(r.get("seed"), r["trace"]): r.get("aggregate_sha256")
                for r in report["workloads"][name]["runs"]}

    http_sha, facade_sha = sha("sync_http_socket"), sha("sync_facade_inline")
    report["aggregate_sha256_match"] = (
        http_sha == facade_sha and None not in http_sha.values()
    )
    if not report["aggregate_sha256_match"]:
        status = 1
    report["host"] = harness.finish_fingerprint(host)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print("\n== summary (medians over", repeats, "run(s) per workload)")
    for name, entry in report["workloads"].items():
        failed = sum(r.get("failed", 1) for r in entry["runs"])
        print(f"{name}: failed ops {failed}")
        for metric_name, slot in entry["end_to_end"].items():
            print(f"  {metric_name:20s} {slot['median']:>14.6g} "
                  f"{slot['unit']:6s} n={slot['n']}")
    print(f"aggregate_sha256 sync_http_socket == sync_facade_inline: "
          f"{report['aggregate_sha256_match']}")
    h = report["host"]
    print(f"host: nproc={h['nproc']} cpu='{h['cpu_model']}' python="
          f"{h['python']} numpy={h['numpy']} blas='{h['blas']['vendor']}' "
          f"threads={h['blas']['threads']} commit={h['git_commit']} "
          f"load1 {h['loadavg_1m_start']:.2f}->{h['loadavg_1m_end']:.2f} "
          f"noisy={h['noisy']}")
    print(f"report: {os.path.relpath(out_path)}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one pass of one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed window; omitted: the "
                             "fixed op counts (104/104/480/1600)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = untraced pass "
                             "(end-to-end metrics), 1 = traced pass "
                             "(per-layer metrics)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="without --workload: runs per workload")
    parser.add_argument("--out", type=Path,
                        default=harness.OUT / "report.json",
                        help="without --workload: where the report goes")
    args = parser.parse_args(argv)
    if args.workload is not None:
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    return run_all(args.seed, args.seconds, args.repeats, args.out)


if __name__ == "__main__":
    sys.exit(main())

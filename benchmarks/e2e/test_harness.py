"""Self-tests of the benchmark harness (not part of tier-1).

Run with ``python -m pytest benchmarks/e2e -q``.
"""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import harness  # noqa: E402


# -- span self time -------------------------------------------------------
def test_self_time_subtracts_nested_children():
    spans = [
        ["op", 0.0, 10.0, None, 1],
        ["exchange", 1.0, 7.0, 0, 1],
        ["inner", 2.0, 4.0, 1, 1],
        ["verify", 8.0, 9.0, 0, 1],
    ]
    assert harness.self_times(spans) == [3.0, 4.0, 2.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["op", 0.0, 10.0, None, 1],
        ["a", 1.0, 5.0, 0, 1],
        ["b", 3.0, 7.0, 0, 1],     # overlaps a on [3, 5]
        ["c", 9.0, 12.0, 0, 1],    # overruns the parent by 2
    ]
    # union of children inside the parent: [1, 7] + [9, 10] = 7
    assert harness.self_times(spans)[0] == pytest.approx(3.0)


def test_open_span_has_no_self_time():
    assert harness.self_times([["op", 0.0, None, None, 1]]) == [0.0]


def test_recorder_links_parents_and_is_free_when_disabled():
    rec = harness.SpanRecorder(enabled=True)
    with rec.span("op", 7):
        with rec.span("exchange", 7):
            pass
    rec.enabled = False
    with rec.span("ignored", 8):
        pass
    assert [(s[0], s[3], s[4]) for s in rec.spans] == [
        ("op", None, 7), ("exchange", 0, 7)]
    assert all(s[2] is not None and s[2] >= s[1] for s in rec.spans)


# -- percentile rule ------------------------------------------------------
def test_p90_refused_below_100_samples():
    with pytest.raises(ValueError, match="p90 needs >= 100"):
        harness.percentile(list(range(99)), 90)
    assert harness.percentile(list(range(100)), 90) == pytest.approx(89.1)


def test_p50_needs_twenty_samples_and_interpolates():
    with pytest.raises(ValueError):
        harness.percentile(list(range(19)), 50)
    assert harness.percentile(list(range(20)), 50) == pytest.approx(9.5)


# -- block-median throughput ----------------------------------------------
def test_block_median_rate_ignores_one_10x_outlier():
    # 13 blocks of 8 ops at 10 ms; one op in one block takes 100 ms.
    clean = [(8, 0.080)] * 13
    dirty = clean[:6] + [(8, 0.170)] + clean[7:]
    assert harness.block_median_rate(dirty) == pytest.approx(
        harness.block_median_rate(clean))
    mean_rate = sum(n for n, _ in dirty) / sum(s for _, s in dirty)
    assert mean_rate < 0.93 * harness.block_median_rate(clean)


def test_iqr_share_matches_statistics_quantiles():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert harness.iqr_share(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert harness.iqr_share([1.0]) is None
    assert harness.iqr_share([0.0, 0.0, 0.0]) == 0.0


# -- Prometheus counter deltas --------------------------------------------
BEFORE = """\
# HELP repro_rounds_total Completed online aggregation rounds per cohort.
# TYPE repro_rounds_total counter
repro_rounds_total{cohort="0"} 8
repro_rounds_total{cohort="1"} 2
repro_transport_bytes_sent_total{transport="socket"} 1024
repro_uptime_seconds 1.5
repro_round_latency_seconds_bucket{cohort="0",le="+Inf"} 8
"""
AFTER = BEFORE.replace('{cohort="0"} 8', '{cohort="0"} 112').replace(
    "1024", "4.064e+08")


def test_prometheus_parsing_and_deltas():
    before = harness.parse_prometheus(BEFORE)
    after = harness.parse_prometheus(AFTER)
    assert before["repro_uptime_seconds"][()] == 1.5
    assert harness.prom_value(before, "repro_rounds_total") == 10
    assert harness.prom_value(before, "repro_rounds_total", cohort="1") == 2
    assert harness.prom_delta(
        before, after, "repro_rounds_total", cohort="0") == 104
    assert harness.prom_delta(before, after, "repro_rounds_total") == 104
    assert harness.prom_delta(
        before, after, "repro_transport_bytes_sent_total",
        transport="socket") == pytest.approx(4.064e8 - 1024)
    assert harness.prom_delta(before, after, "repro_absent_total") == 0
    assert harness.prom_value(
        before, "repro_round_latency_seconds_bucket", le="+Inf") == 8


# -- compare.py verdicts --------------------------------------------------
BOUNDS = {
    "op_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.10},
    "ops_per_s": {"unit": "op/s", "better": "higher", "bound": 0.10},
    "failed_share": {"unit": "ratio", "better": "lower", "bound": 0.0},
    "wire_bytes_per_op": {"unit": "B", "better": "lower", "bound": 0.005},
}


def report(**metrics):
    return {
        "bounds": BOUNDS,
        "workloads": {"w": {
            "end_to_end": {
                name: {"unit": BOUNDS[name]["unit"], "values": values}
                for name, values in metrics.items()
            },
            "per_layer": {},
        }},
    }


def verdicts(a, b):
    return {r["metric"]: r["verdict"] for r in compare.compare(a, b)}


def test_compare_ok_regressed_and_direction():
    base = report(op_p50_ms=[10.0, 10.1, 9.9, 10.0],
                  ops_per_s=[100.0, 101.0, 99.0, 100.0])
    same = report(op_p50_ms=[10.5, 10.6, 10.4, 10.5],       # +5%
                  ops_per_s=[95.0, 96.0, 94.0, 95.0])       # -5%
    worse = report(op_p50_ms=[11.5, 11.6, 11.4, 11.5],      # +15%
                   ops_per_s=[85.0, 86.0, 84.0, 85.0])      # -15%
    better = report(op_p50_ms=[5.0, 5.0, 5.1, 4.9],
                    ops_per_s=[200.0, 201.0, 199.0, 200.0])
    assert verdicts(base, same) == {"op_p50_ms": "ok", "ops_per_s": "ok"}
    assert verdicts(base, worse) == {
        "op_p50_ms": "regressed", "ops_per_s": "regressed"}
    assert verdicts(base, better) == {"op_p50_ms": "ok", "ops_per_s": "ok"}


def test_compare_unresolved_when_spread_exceeds_bound():
    noisy = report(op_p50_ms=[8.0, 10.0, 12.0, 14.0, 9.0, 11.0])
    shifted = report(op_p50_ms=[12.0, 12.1, 11.9, 12.0, 12.0, 12.0])
    assert verdicts(noisy, shifted) == {"op_p50_ms": "unresolved"}


def test_compare_zero_based_metrics_regress_on_any_increase():
    clean = report(failed_share=[0.0, 0.0], wire_bytes_per_op=[0.0, 0.0])
    dirty = report(failed_share=[0.001, 0.001],
                   wire_bytes_per_op=[1.0, 1.0])
    assert verdicts(clean, clean) == {
        "failed_share": "ok", "wire_bytes_per_op": "ok"}
    assert verdicts(clean, dirty) == {
        "failed_share": "regressed", "wire_bytes_per_op": "regressed"}
    grown = report(wire_bytes_per_op=[1006.0])
    assert verdicts(report(wire_bytes_per_op=[1000.0]), grown) == {
        "wire_bytes_per_op": "regressed"}


def test_compare_exit_code_and_row_format(tmp_path, capsys):
    import json

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(report(op_p50_ms=[10.0, 10.0])))
    b.write_text(json.dumps(report(op_p50_ms=[12.0, 12.0])))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "1.200" in out and "+20.0%" in out

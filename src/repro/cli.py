"""Command-line interface: run rounds, sessions and the aggregation service.

Usage (also via ``python -m repro``)::

    python -m repro round --protocol lightsecagg -n 12 -d 1000 --drop 2
    python -m repro session --protocol lightsecagg -n 16 -d 2000 --rounds 10
    python -m repro service -n 8 -d 4096 --cohorts 4 --shards 2 \
        --refill background --low-water 2 --rounds 20 --json
    python -m repro service -n 16 -d 65536 --shards 4 --transport process \
        --workers 4 --refill background --low-water 2 --rounds 20
    python -m repro shard-worker --listen 0.0.0.0:7000
    python -m repro service -n 16 -d 65536 --shards 4 --transport socket \
        --connect host-a:7000,host-b:7000 --refill background --rounds 20
    python -m repro serve --listen 127.0.0.1:8080   # HTTP control plane
    python -m repro trace http://127.0.0.1:8080/cohorts/0/traces
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

from repro.field import FiniteField
from repro.protocols import (
    EncryptedLightSecAgg,
    LightSecAgg,
    LSAParams,
    NaiveAggregation,
    SecAgg,
    SecAggPlus,
    ZhaoSunAggregation,
)


PROTOCOL_CHOICES = [
    "lightsecagg", "lightsecagg-encrypted", "secagg", "secagg+", "naive",
    "zhao-sun",
]


def _build_protocol(name: str, gf: FiniteField, n: int, d: int, seed: int):
    if name == "lightsecagg":
        return LightSecAgg(gf, LSAParams.paper_defaults(n, 0.1), d)
    if name == "lightsecagg-encrypted":
        return EncryptedLightSecAgg(gf, LSAParams.paper_defaults(n, 0.1), d)
    if name == "secagg":
        return SecAgg(gf, n, d)
    if name == "secagg+":
        return SecAggPlus(gf, n, d, graph_seed=seed)
    if name == "naive":
        return NaiveAggregation(gf, n, d)
    if name == "zhao-sun":
        if n > 16:
            raise SystemExit(
                "zhao-sun enumerates all surviving sets; use -n <= 16 "
                "(the exponential blow-up is the point of Table 6)"
            )
        return ZhaoSunAggregation(
            gf, LSAParams.from_guarantees(n, max(1, n // 4), max(1, n // 4)), d
        )
    raise SystemExit(f"unknown protocol {name!r}")


def cmd_round(args: argparse.Namespace) -> int:
    gf = FiniteField()
    rng = np.random.default_rng(args.seed)
    proto = _build_protocol(args.protocol, gf, args.num_users, args.dim, args.seed)
    updates = {i: gf.random(args.dim, rng) for i in range(args.num_users)}
    dropouts = set(
        rng.choice(args.num_users, size=args.drop, replace=False).tolist()
    ) if args.drop else set()
    result = proto.run_round(updates, dropouts, rng)
    expected = proto.expected_aggregate(updates, result.survivors)
    ok = np.array_equal(result.aggregate, expected)
    print(f"protocol={args.protocol} N={args.num_users} d={args.dim} "
          f"dropped={sorted(dropouts)}")
    print(f"aggregate correct: {ok}")
    for phase in ("offline", "upload", "recovery"):
        print(f"  {phase:9s}: {result.transcript.elements(phase=phase):>12d} "
              f"field elements")
    print(f"  server PRG elements: {result.metrics.server_prg_elements}")
    return 0 if ok else 1


def cmd_session(args: argparse.Namespace) -> int:
    """Multi-round session: amortized online latency vs the one-shot path."""
    gf = FiniteField()
    rng = np.random.default_rng(args.seed)
    proto = _build_protocol(args.protocol, gf, args.num_users, args.dim, args.seed)
    updates = {i: gf.random(args.dim, rng) for i in range(args.num_users)}
    dropouts = set(
        rng.choice(args.num_users, size=args.drop, replace=False).tolist()
    ) if args.drop else set()

    pool = args.pool if args.pool is not None else args.rounds
    session = proto.session(pool_size=pool, rng=np.random.default_rng(args.seed))
    session.refill()
    online = 0.0
    ok = True
    for _ in range(args.rounds):
        t0 = time.perf_counter()
        result = session.run_round(updates, set(dropouts), rng)
        online += time.perf_counter() - t0
        expected = proto.expected_aggregate(updates, result.survivors)
        ok = ok and np.array_equal(result.aggregate, expected)

    oneshot = 0.0
    for r in range(args.rounds):
        t0 = time.perf_counter()
        proto.run_round(updates, set(dropouts), np.random.default_rng(r))
        oneshot += time.perf_counter() - t0

    stats = session.stats
    print(f"protocol={args.protocol} N={args.num_users} d={args.dim} "
          f"rounds={args.rounds} pool={pool} dropped={sorted(dropouts)}")
    print(f"aggregates correct: {ok}")
    print(f"  session online  : {1e3 * online / args.rounds:9.3f} ms/round "
          f"(pool hits {stats.pool_hits}, misses {stats.pool_misses})")
    print(f"  one-shot        : {1e3 * oneshot / args.rounds:9.3f} ms/round")
    print(f"  offline refill  : {1e3 * stats.refill_seconds:9.3f} ms total "
          f"({stats.refills} refills, {stats.precomputed_rounds} rounds)")
    if online > 0:
        print(f"  online speedup  : {oneshot / online:9.2f}x")
    return 0 if ok else 1


def cmd_service(args: argparse.Namespace) -> int:
    """Run the sharded aggregation service and report its metrics."""
    import json

    from repro.service import (
        AggregationService,
        RefillMode,
        ServiceConfig,
        TransportKind,
    )

    config = ServiceConfig(
        num_cohorts=args.cohorts,
        num_users=args.num_users,
        model_dim=args.dim,
        num_shards=args.shards,
        pool_size=args.pool,
        low_water=args.low_water,
        refill_mode=RefillMode(args.refill),
        dropout_tolerance=max(1, args.num_users // 8),
        privacy=max(1, args.num_users // 8),
        transport=TransportKind(args.transport),
        num_workers=args.workers,
        connect=(
            tuple(a.strip() for a in args.connect.split(","))
            if args.connect
            else None
        ),
        seed=args.seed,
    )
    with AggregationService(config) as svc:
        svc.run_synthetic(
            rounds=args.rounds, dropout_rate=args.dropout,
            rng=np.random.default_rng(args.seed), settle=args.settle,
        )
        snapshot = svc.status()

    if args.json:
        # The full snapshot, including every cohort's pool-depth series.
        print(json.dumps(snapshot, indent=2))
        return 0

    metrics = snapshot["metrics"]
    print(f"service: {args.cohorts} cohorts x N={args.num_users} "
          f"d={args.dim} shards={args.shards} pool={args.pool} "
          f"low_water={args.low_water} refill={args.refill} "
          f"transport={args.transport}")
    print(f"  rounds completed : {metrics['total_rounds']}")
    print(f"  online stalls    : {metrics['total_stalls']}")
    for kind, t in metrics.get("transports", {}).items():
        print(f"  transport {kind:7s}: {t['rounds']} rounds, "
              f"{1e3 * t['mean_round_seconds']:.2f} ms/round scatter-gather, "
              f"{t['bytes_sent'] + t['bytes_received']} wire bytes, "
              f"{t.get('shm_bytes', 0)} shm bytes, "
              f"{t['shard_stalls']} shard stalls, "
              f"{t.get('reconnects', 0)} reconnects")
    if snapshot["refiller"] is not None:
        ref = snapshot["refiller"]
        print(f"  background refills: {ref['refills']} "
              f"({ref['rounds_refilled']} rounds of material)")
    statuses = {c["cohort_id"]: c for c in snapshot.get("cohorts", [])}
    for cid, m in metrics["cohorts"].items():
        line = (f"  cohort {cid}: {m['rounds']} rounds, {m['stalls']} stalls, "
                f"{m['rounds_per_second']:.1f} rounds/s online")
        status = statuses.get(int(cid), {})
        if status.get("buffer_fill") or status.get("drains"):
            line += (f" [buffer {status['buffer_fill']}/"
                     f"{status['buffer_capacity']}, "
                     f"{status['drains']} drains]")
        print(line)
    return 0


def _install_signal_handlers(callback) -> None:
    """Route SIGTERM/SIGINT to ``callback`` for a clean daemon shutdown;
    ``callback=None`` ignores them.

    Only possible from the main thread (the CLI's normal situation);
    tests driving these commands from worker threads fall back to the
    commands' KeyboardInterrupt / max-seconds paths.
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return

    def _handler(signum, frame):
        callback()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_IGN if callback is None else _handler)


def cmd_shard_worker(args: argparse.Namespace) -> int:
    """Host shard sessions over TCP for --transport socket coordinators."""
    from repro.exceptions import TransportError
    from repro.service import ShardWorkerServer
    from repro.service.socket_worker import parse_address

    try:
        host, port = parse_address(args.listen)
    except TransportError as exc:
        raise SystemExit(str(exc))
    server = ShardWorkerServer(host, port).start()
    # SIGTERM (and SIGINT) stop the listener and tear every hosted
    # session down — the same clean path --max-seconds takes — instead
    # of dying mid-frame with sessions pinned.  Installed before the
    # listening line so a supervisor that signals on startup is safe.
    _install_signal_handlers(server.stop)
    print(f"shard worker listening on {server.address} "
          f"(SIGTERM/ctrl-C to stop)", flush=True)
    try:
        server.serve_forever(max_seconds=args.max_seconds)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived HTTP/JSON control-plane daemon."""
    import json
    import threading

    from repro.exceptions import ReproError, TransportError
    from repro.service import AggregationService, RefillMode, ServiceConfig
    from repro.service.api import ControlPlane, ControlPlaneServer
    from repro.service.socket_worker import parse_address

    try:
        host, port = parse_address(args.listen)
    except TransportError as exc:
        raise SystemExit(str(exc))
    # The daemon starts with zero cohorts; every cohort arrives at
    # runtime through POST /cohorts with its own spec.  The base config
    # only fixes service-wide policy (refill mode, seed).
    config = ServiceConfig(
        refill_mode=RefillMode(args.refill), seed=args.seed
    )
    service = AggregationService(config, build_cohorts=False).start()
    if args.trace_log:
        service.tracer.set_event_log(args.trace_log)
    control = ControlPlane(service)
    server = ControlPlaneServer(control, host, port)

    def _graceful() -> None:
        # Signal handlers must not block in the handler frame: drain on
        # a worker thread, then release serve_until().
        def _drain_and_stop() -> None:
            try:
                control.drain()
            except ReproError:
                pass
            server.request_shutdown()

        threading.Thread(target=_drain_and_stop, daemon=True).start()

    _install_signal_handlers(_graceful)
    if args.json:
        print(json.dumps({
            "event": "listening",
            "address": server.address,
            "refill": args.refill,
        }), flush=True)
    else:
        print(f"repro serve listening on {server.address} "
              f"(POST /drain or SIGTERM to stop)", flush=True)
    try:
        server.serve_until(max_seconds=args.max_seconds)
    except KeyboardInterrupt:
        try:
            control.drain()
        except ReproError:
            pass
        server.stop()
    # drain() is idempotent: if serve_until / a signal already drained,
    # this returns the cached summary; otherwise it performs the drain.
    try:
        summary = control.drain()
    except ReproError:
        summary = {"drained": False}
    # A drained daemon has nothing left to stop.  Ignore late stop
    # signals: once the interpreter finalizes, a Python-level handler no
    # longer runs, and a supervisor's SIGTERM would turn exit 0 into -15.
    _install_signal_handlers(None)
    if args.json:
        print(json.dumps({"event": "drained", **summary}), flush=True)
    else:
        print(f"drained: {summary.get('total_rounds', 0)} rounds served, "
              f"{summary.get('total_stalls', 0)} stalls", flush=True)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Render one captured round trace as an ASCII timing diagram."""
    import json
    from urllib.error import URLError
    from urllib.request import urlopen

    from repro.obs import render_trace

    def fetch(url: str) -> dict:
        with urlopen(url) as resp:
            return json.loads(resp.read().decode("utf-8"))

    source = args.source
    try:
        if source.startswith(("http://", "https://")):
            data = fetch(source)
            if "traces" in data:
                # A GET /cohorts/{id}/traces listing: follow the newest
                # summary to its full span tree.
                summaries = data["traces"]
                if not summaries:
                    print("no traces retained for this cohort "
                          "(tracing disabled, or no rounds run yet)")
                    return 1
                base = source.split("/cohorts/", 1)[0]
                data = fetch(f"{base}/traces/{summaries[0]['trace_id']}")
        else:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    except URLError as exc:
        raise SystemExit(f"cannot fetch {source}: {exc}")
    except OSError as exc:
        raise SystemExit(f"cannot read {source}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{source} is not valid JSON: {exc}")
    if "root" not in data:
        raise SystemExit(
            f"{source} does not look like a round trace "
            "(expected the GET /traces/{id} shape with a 'root' span)"
        )
    print(render_trace(data, width=args.width))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LightSecAgg reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("round", help="run a real secure-aggregation round")
    p.add_argument("--protocol", default="lightsecagg",
                   choices=PROTOCOL_CHOICES)
    p.add_argument("-n", "--num-users", type=int, default=10)
    p.add_argument("-d", "--dim", type=int, default=1000)
    p.add_argument("--drop", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_round)

    p = sub.add_parser(
        "session",
        help="multi-round session with amortized offline phase vs one-shot",
    )
    p.add_argument("--protocol", default="lightsecagg",
                   choices=PROTOCOL_CHOICES)
    p.add_argument("-n", "--num-users", type=int, default=16)
    p.add_argument("-d", "--dim", type=int, default=2000)
    p.add_argument("-r", "--rounds", type=int, default=10)
    p.add_argument("--pool", type=int, default=None,
                   help="offline pool size (default: rounds)")
    p.add_argument("--drop", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_session)

    p = sub.add_parser(
        "service",
        help="multi-cohort aggregation service: every cohort is pooled "
             "LightSecAgg over one or more shards, with background refill",
    )
    p.add_argument("-n", "--num-users", type=int, default=8)
    p.add_argument("-d", "--dim", type=int, default=1024)
    p.add_argument("-c", "--cohorts", type=int, default=2)
    p.add_argument("-s", "--shards", type=int, default=1)
    p.add_argument("-r", "--rounds", type=int, default=10)
    p.add_argument("--pool", type=int, default=4)
    p.add_argument("--low-water", type=int, default=0)
    p.add_argument("--refill", choices=["sync", "background"], default="sync")
    p.add_argument(
        "--transport", choices=["inline", "process", "socket"],
        default="inline",
        help="shard execution backend: 'inline' calls the per-shard "
             "sessions in this process (the default); 'process' pins each "
             "shard's session in a long-lived worker process and "
             "scatter/gathers rounds and refills over the binary wire "
             "format, so shards use multiple cores, with vector payloads "
             "handed over in shared memory (frames carry only "
             "name+offset references; they fall back to the frame where "
             "/dev/shm is too small); 'socket' speaks the same frames "
             "over TCP to standalone `repro shard-worker` hosts named by "
             "--connect, with heartbeat supervision and reconnect/re-pin",
    )
    p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes per cohort for --transport process "
             "(default: one per shard; fewer workers host several shards "
             "each)",
    )
    p.add_argument(
        "--connect", default=None, metavar="HOST:PORT[,HOST:PORT...]",
        help="shard-worker addresses for --transport socket; shards are "
             "assigned round-robin across them and each cohort opens one "
             "connection per address",
    )
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--settle", action="store_true",
                   help="wait for the refiller between sweeps (steady state)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="emit the full status snapshot as JSON")
    p.set_defaults(func=cmd_service)

    p = sub.add_parser(
        "shard-worker",
        help="host shard sessions over TCP for --transport socket "
             "coordinators (sessions are built here from the specs the "
             "coordinator sends; nothing live crosses the network)",
    )
    p.add_argument(
        "--listen", default="127.0.0.1:7000", metavar="HOST:PORT",
        help="bind address (port 0 picks an ephemeral port, printed on "
             "startup)",
    )
    p.add_argument(
        "--max-seconds", type=float, default=None, metavar="S",
        help="exit after S seconds (default: serve until interrupted)",
    )
    p.set_defaults(func=cmd_shard_worker)

    p = sub.add_parser(
        "serve",
        help="long-running HTTP/JSON control plane over the aggregation "
             "service: create cohorts, submit rounds, scrape Prometheus "
             "metrics, and drain — all at runtime, no process restart",
    )
    p.add_argument(
        "--listen", default="127.0.0.1:8080", metavar="HOST:PORT",
        help="bind address (port 0 picks an ephemeral port, printed on "
             "startup)",
    )
    p.add_argument(
        "--refill", choices=["sync", "background"], default="background",
        help="mask-pool refill policy for every cohort the daemon hosts "
             "(default: background — the point of running a daemon)",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="base-config seed (cohort specs posted to "
                        "/cohorts carry their own seed, default 0)")
    p.add_argument(
        "--max-seconds", type=float, default=None, metavar="S",
        help="drain and exit after S seconds (default: serve until "
             "POST /drain or SIGTERM)",
    )
    p.add_argument(
        "--trace-log", default=None, metavar="PATH",
        help="append one JSON line per closed trace span to PATH (the "
             "structured event log; off by default)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit machine-readable startup/drain lines (JSON per line)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "trace",
        help="render a captured round trace as an ASCII timing diagram "
             "(Fig-5 style): pass a JSON file, a GET /traces/{id} URL, "
             "or a GET /cohorts/{id}/traces URL (renders the newest)",
    )
    p.add_argument(
        "source", metavar="SOURCE",
        help="trace JSON file path, or an http(s) URL of a running "
             "`repro serve` daemon's trace endpoint",
    )
    p.add_argument(
        "--width", type=int, default=56, metavar="COLS",
        help="character cells spanning the round's duration (default 56)",
    )
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

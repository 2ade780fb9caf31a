"""Measurement machinery of the end-to-end benchmark.

Everything here is independent of the workloads: the metric tables read
from ``BENCHMARK.json``, the statistics the report is allowed to print
(block-median throughput, percentiles with the ten-samples-beyond rule),
the benchmark's own in-memory span recorder, Prometheus text parsing for
counter deltas, the subprocess topology (``repro serve`` +
``repro shard-worker``) with leak-checked teardown, and the host
fingerprint.  Nothing in this file imports ``repro``.
"""

from __future__ import annotations

import atexit
import contextlib
import glob
import http.client
import json
import os
import platform
import select
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: glibc malloc settings every child process of the system under test
#: runs with (unless the caller's environment already sets them).  With
#: glibc's dynamic defaults each daemon lands, for its whole lifetime, in
#: one of two allocator regimes — refill arrays served from the heap, or
#: mmap'd and page-faulted on every refill — and buffered_http_churn runs
#: at ~100 or ~70 op/s accordingly.  A fixed mmap threshold and no
#: trimming pin the first regime, so two runs of one commit agree.
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}

#: End-to-end metrics that can legitimately read 0 (so they cannot carry
#: a relative bound in BENCHMARK.json's ``end_to_end`` list, where the
#: driver divides by the median).  ``compare.py`` applies these bounds;
#: BENCHMARK.json lists the two metrics under ``per_layer``.
EXTRA_END_TO_END = {
    "failed_share": {"unit": "ratio", "better": "lower", "bound": 0.0},
    "wire_bytes_per_op": {"unit": "B", "better": "lower", "bound": 0.005},
}


def load_benchmark_spec() -> Dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end_table() -> Dict[str, Dict]:
    """name -> {unit, better, bound} for all seven end-to-end metrics."""
    table = {
        m["name"]: {k: m[k] for k in ("unit", "better", "bound")}
        for m in load_benchmark_spec()["end_to_end"]
    }
    table.update(EXTRA_END_TO_END)
    return table


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile, refused without ten samples beyond.

    A percentile is only reported when at least ten samples lie beyond
    it, so p90 needs 100 samples and p50 needs 20.
    """
    n = len(samples)
    beyond = n * (100.0 - p) / 100.0
    if beyond < 10:
        raise ValueError(
            f"p{p:g} needs >= {int(-(-1000 // (100 - p)))} samples to have "
            f"ten beyond it, got {n}"
        )
    ordered = sorted(samples)
    rank = (n - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def block_median_rate(blocks: Iterable[Tuple[int, float]]) -> float:
    """Median over blocks of (ops in block / seconds in block).

    One 10x outlier op moves one block's rate, not the median — the
    reason the report prefers this to total-ops / wall-clock.
    """
    rates = [ops / seconds for ops, seconds in blocks]
    if not rates:
        raise ValueError("no blocks to rate")
    return statistics.median(rates)


def iqr_share(values: Sequence[float]) -> Optional[float]:
    """(Q3 - Q1) / median, the spread the noise criterion is stated in."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


# ----------------------------------------------------------------------
# span recorder
# ----------------------------------------------------------------------
_NULL_SPAN = contextlib.nullcontext()


class _LiveSpan:
    __slots__ = ("_rec", "_index")

    def __init__(self, rec: "SpanRecorder", index: int):
        self._rec = rec
        self._index = index

    def __enter__(self):
        return self._index

    def __exit__(self, exc_type, exc, tb):
        rec = self._rec
        rec.spans[self._index][2] = time.perf_counter()
        rec._stack.pop()
        return False


class SpanRecorder:
    """In-memory spans ``[name, start, end, parent, op_id]``.

    ``parent`` is the index of the enclosing span (None at top level).
    While ``enabled`` is False, :meth:`span` hands out one shared no-op
    context, so untraced ops pay a single attribute read per boundary.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str, op_id: Optional[int] = None):
        if not self.enabled:
            return _NULL_SPAN
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, op_id])
        self._stack.append(index)
        return _LiveSpan(self, index)


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per span: duration minus the part its children cover.

    Children may overlap each other and may overrun the parent; the
    covered part is the length of the union of child intervals clipped
    to the parent's interval.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, start, end, parent, _op in spans:
        if parent is not None and end is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_name, start, end, _parent, _op) in enumerate(spans):
        if end is None:
            out.append(0.0)
            continue
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def span_medians_ms(spans: Sequence[Sequence]) -> Dict[str, Dict]:
    """name -> {self_ms, total_ms, n}: medians over spans of that name."""
    selfs = self_times(spans)
    by_name: Dict[str, List[Tuple[float, float]]] = {}
    for (name, start, end, _parent, _op), self_s in zip(spans, selfs):
        if end is not None:
            by_name.setdefault(name, []).append((self_s, end - start))
    return {
        name: {
            "self_ms": statistics.median(s for s, _ in rows) * 1e3,
            "total_ms": statistics.median(t for _, t in rows) * 1e3,
            "n": len(rows),
        }
        for name, rows in by_name.items()
    }


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def parse_prometheus(text: str) -> Dict[str, Dict[Tuple, float]]:
    """``name -> {sorted (label, value) tuple -> sample}``."""
    samples: Dict[str, Dict[Tuple, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        labels: Tuple = ()
        name = head
        if head.endswith("}"):
            name, _, inner = head[:-1].partition("{")
            pairs = []
            for part in inner.split(","):
                if part:
                    key, _, val = part.partition("=")
                    pairs.append((key.strip(), val.strip().strip('"')))
            labels = tuple(sorted(pairs))
        samples.setdefault(name, {})[labels] = float(value)
    return samples


def prom_value(samples: Dict, name: str, **labels: str) -> float:
    """Sum of every series of ``name`` carrying all of ``labels``."""
    want = set(labels.items())
    return sum(
        value
        for series, value in samples.get(name, {}).items()
        if want <= set(series)
    )


def prom_delta(before: Dict, after: Dict, name: str, **labels: str) -> float:
    return prom_value(after, name, **labels) - prom_value(
        before, name, **labels
    )


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def rss_hwm_mib(pid: Optional[int] = None) -> float:
    """``VmHWM`` of one process in MiB (peak resident set)."""
    path = f"/proc/{pid}/status" if pid is not None else "/proc/self/status"
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def shm_segments() -> set:
    return set(glob.glob("/dev/shm/repro-shm-*"))


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One line from an unbuffered binary stdout pipe, or raise."""
    deadline = time.monotonic() + timeout
    buf = bytearray()
    fd = proc.stdout.fileno()
    while not buf.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise RuntimeError(
                f"{proc.args[3]} printed no startup line in {timeout:g}s"
            )
        chunk = os.read(fd, 4096)
        if not chunk:
            raise RuntimeError(
                f"{proc.args[3]} exited with {proc.wait()} before listening"
            )
        buf += chunk
    return buf.decode("utf-8").strip()


def _port_open(address: str) -> bool:
    host, port = address.rsplit(":", 1)
    try:
        with socket.create_connection((host, int(port)), timeout=0.5):
            return True
    except OSError:
        return False


class Topology:
    """The system under test as real processes: daemon (+ shard worker).

    :meth:`stop` drains, signals, reaps, and then looks for what was left
    behind; :attr:`leaks` lists every child still alive, port still bound,
    or ``repro-shm-*`` segment created since :meth:`start`.
    """

    def __init__(self, with_worker: bool, log_stem: str):
        self.with_worker = with_worker
        self.log_stem = log_stem
        self.daemon: Optional[subprocess.Popen] = None
        self.worker: Optional[subprocess.Popen] = None
        self.address = ""
        self.worker_address = ""
        self.leaks: List[str] = []
        self._shm_before: set = set()
        self._logs: list = []
        self.body_bytes = 0  # HTTP request + response body bytes so far

    # -- lifecycle ------------------------------------------------------
    def _spawn(self, role: str, *args: str) -> subprocess.Popen:
        OUT.mkdir(exist_ok=True)
        log = open(OUT / f"{self.log_stem}-{role}.log", "ab")
        self._logs.append(log)
        env = dict(MALLOC_ENV, **os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro", role, "--listen", "127.0.0.1:0",
             *args],
            stdout=subprocess.PIPE, stderr=log, env=env, bufsize=0,
            cwd=str(ROOT),
        )

    def start(self) -> "Topology":
        self._shm_before = shm_segments()
        atexit.register(self.stop)  # last resort; stop() is idempotent
        try:
            if self.with_worker:
                self.worker = self._spawn("shard-worker")
            self.daemon = self._spawn("serve", "--json")
            if self.worker is not None:
                line = _read_line(self.worker, 60.0)
                self.worker_address = line.split("listening on ")[1].split()[0]
            self.address = json.loads(_read_line(self.daemon, 60.0))["address"]
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> List[str]:
        """Drain, signal, reap, then check for leaks (idempotent)."""
        daemon, worker = self.daemon, self.worker
        self.daemon = self.worker = None
        if daemon is not None and daemon.poll() is None:
            try:
                self.request("POST", "/drain", b"{}", timeout=30.0,
                             address=self.address)
            except (OSError, http.client.HTTPException):
                pass
        for proc in (daemon, worker):
            if proc is not None and proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for role, proc in (("daemon", daemon), ("worker", worker)):
            if proc is None:
                continue
            try:
                proc.communicate(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.leaks.append(f"{role} pid {proc.pid} ignored SIGTERM")
                proc.kill()
                proc.communicate()
            if proc.returncode != 0:
                self.leaks.append(
                    f"{role} pid {proc.pid} exited with {proc.returncode}"
                )
        if daemon is not None or worker is not None:
            for role, address in (("daemon", self.address),
                                  ("worker", self.worker_address)):
                if address and _port_open(address):
                    self.leaks.append(f"{role} port {address} still bound")
            for segment in sorted(shm_segments() - self._shm_before):
                self.leaks.append(f"shm segment {segment} left behind")
        for log in self._logs:
            log.close()
        self._logs = []
        return self.leaks

    # -- the one client connection ---------------------------------------
    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        timeout: float = 120.0,
        address: Optional[str] = None,
    ) -> Tuple[int, bytes]:
        """One HTTP exchange on a fresh connection (what curl/urllib do)."""
        host, port = (address or self.address).rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()
        finally:
            conn.close()
        self.body_bytes += len(body or b"") + len(payload)
        return response.status, payload

    def get_json(self, path: str) -> Dict:
        status, payload = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}: {payload[:200]!r}")
        return json.loads(payload)

    def metrics(self) -> Dict:
        status, payload = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics -> {status}")
        return parse_prometheus(payload.decode("utf-8"))

    def peak_rss_mib(self) -> float:
        return sum(
            rss_hwm_mib(p.pid) for p in (self.daemon, self.worker)
            if p is not None
        )


# ----------------------------------------------------------------------
# host fingerprint
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), timeout=10,
            capture_output=True, text=True,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas() -> Dict:
    import numpy as np

    info: Dict = {"vendor": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            info["threads"] = f"{var}={os.environ[var]}"
            break
    else:
        info["threads"] = f"unset (library default, <= {os.cpu_count()})"
    return info


def host_fingerprint() -> Dict:
    import numpy as np

    nproc = len(os.sched_getaffinity(0))
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "child_malloc_env": {
            k: os.environ.get(k, v) for k, v in MALLOC_ENV.items()
        },
        "loadavg_1m_start": load1,
        "loadavg_1m_end": None,
        "noisy": load1 > nproc,
    }


def finish_fingerprint(host: Dict) -> Dict:
    """Record the closing load average.  ``noisy`` stays the verdict of
    the opening one: the benchmark itself keeps both cores busy, so the
    closing figure says how loaded the run was, not who else was there."""
    host["loadavg_1m_end"] = os.getloadavg()[0]
    return host

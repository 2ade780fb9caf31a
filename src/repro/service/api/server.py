"""The ``repro serve`` daemon: HTTP/JSON control plane over the service.

Two layers, separable for tests:

* :class:`ControlPlane` — the protocol-free core.  Wraps one
  :class:`~repro.service.service.AggregationService` and adds what a
  long-running daemon needs on top of the library: one admission gate
  (``_in_flight``) that every mutating operation enters and leaves —
  refused while draining or aimed at a closing cohort, otherwise counted
  until it returns, so ``DELETE`` waits for that cohort's operations and
  drain for all of them — and an idempotent drain that stops the service
  exactly once.
* :class:`ControlPlaneServer` — a stdlib
  :class:`~http.server.ThreadingHTTPServer` front end.  One thread per
  request; round submissions to *different* cohorts run concurrently,
  while rounds and drains racing on the *same* cohort serialize on its
  engine's drain lock.  ``POST /drain`` (and SIGTERM,
  wired in the CLI) runs the drain, answers with the final summary, and
  only then stops the listener — an in-flight round's response is
  delivered before the process exits.

The endpoint table lives in :mod:`repro.service.api.routes`; request
and response models in :mod:`repro.service.api.schemas`.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Union
from urllib.parse import urlsplit

from repro.exceptions import ProtocolError
from repro.service.api.routes import Response, dispatch, error_response
from repro.service.api.schemas import (
    NotFoundError,
    RoundRequest,
    RoundResponse,
    SubmitUpdateRequest,
    encode_real_vector,
    encode_vector,
)
from repro.service.config import CohortSpec
from repro.service.service import AggregationService

#: Largest request body the daemon reads.  Two orders of magnitude above
#: the biggest body any workload sends (a 5.4 MB packed round); beyond
#: it the request is refused unread, so a declared length can neither
#: pin a handler thread on bytes that never arrive nor grow the process.
MAX_BODY_BYTES = 1 << 30


class ControlPlane:
    """Runtime cohort registry + admission control over one service."""

    def __init__(self, service: AggregationService):
        self.service = service
        self._cond = threading.Condition()
        self._inflight: Dict[int, int] = {}
        self._inflight_total = 0
        self._closing: set = set()
        self._draining = False  # sticky; admission only
        self._stopping = False  # one drainer is inside service.stop()
        self._drain_summary: Optional[Dict[str, Any]] = None
        self._t0 = time.monotonic()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        with self._cond:
            return self._draining

    def health(self) -> Dict[str, Any]:
        with self._cond:
            draining = self._draining
            inflight = self._inflight_total
        return {
            "status": "draining" if draining else "ok",
            "uptime_seconds": time.monotonic() - self._t0,
            "cohorts": len(self.service.cohorts),
            "rounds_in_flight": inflight,
        }

    def metrics_text(self) -> str:
        return self.service.metrics.render_prometheus()

    def _describe(self, cohort) -> Dict[str, Any]:
        status = cohort.status()
        status["spec"] = cohort.spec.describe()
        return status

    def _cohort(self, cohort_id: int):
        cohort = self.service.get_cohort(cohort_id)
        if cohort is None:
            raise NotFoundError(f"no cohort {cohort_id}")
        return cohort

    def list_cohorts(self) -> Dict[str, Any]:
        return {
            "cohorts": [self._describe(c) for c in self.service.cohorts],
            "draining": self.draining,
        }

    def cohort_status(self, cohort_id: int) -> Dict[str, Any]:
        return self._describe(self._cohort(cohort_id))

    def cohort_traces(
        self, cohort_id: int, limit: int = 20
    ) -> Dict[str, Any]:
        """Recent round-trace summaries for one cohort, newest first."""
        self._cohort(cohort_id)
        return {
            "cohort_id": cohort_id,
            "tracing": self.service.tracer.enabled,
            "traces": [
                t.summary()
                for t in self.service.traces(
                    cohort_id=cohort_id, limit=limit
                )
            ],
        }

    def get_trace(self, trace_id: int) -> Dict[str, Any]:
        """One full trace (the span tree) by id."""
        trace = self.service.get_trace(trace_id)
        if trace is None:
            raise NotFoundError(
                f"no trace {trace_id} (unknown or evicted from the ring)"
            )
        return trace.to_json()

    # ------------------------------------------------------------------
    # the admission gate
    # ------------------------------------------------------------------
    def _admit(self, cohort_id: Optional[int] = None):
        """The one admission check, made under ``_cond``: draining, then
        — for work aimed at a cohort — closing and existence."""
        if self._draining:
            raise ProtocolError("service is draining; not admitting new work")
        if cohort_id is None:
            return None
        if cohort_id in self._closing:
            raise ProtocolError(f"cohort {cohort_id} is closing")
        return self._cohort(cohort_id)

    @contextmanager
    def _in_flight(self, cohort_id: Optional[int] = None):
        """Admit one operation and count it in flight until the block
        exits, error or not: a concurrent drain waits for it, and — when
        it names a cohort — so does a delete of that cohort."""
        with self._cond:
            cohort = self._admit(cohort_id)
            self._inflight_total += 1
            if cohort_id is not None:
                self._inflight[cohort_id] = (
                    self._inflight.get(cohort_id, 0) + 1
                )
        try:
            yield cohort
        finally:
            with self._cond:
                self._inflight_total -= 1
                if cohort_id is not None:
                    self._inflight[cohort_id] -= 1
                    if self._inflight[cohort_id] == 0:
                        del self._inflight[cohort_id]
                self._cond.notify_all()

    def _wait_idle(
        self, pending: Callable[[], Optional[str]], timeout_s: Optional[float]
    ) -> None:
        """Under ``_cond``: block until ``pending()`` names no outstanding
        work; ``timeout_s`` later, raise the typed error naming what is."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while (what := pending()) is not None:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ProtocolError(f"{what} after {timeout_s:g}s")
            self._cond.wait(remaining)

    # ------------------------------------------------------------------
    # cohort lifecycle
    # ------------------------------------------------------------------
    def create_cohort(self, spec: CohortSpec) -> Dict[str, Any]:
        with self._in_flight():
            return self._describe(self.service.add_cohort(spec))

    def delete_cohort(
        self, cohort_id: int, timeout_s: float = 30.0
    ) -> Dict[str, Any]:
        """Close one cohort after its in-flight operations complete.

        New work for the cohort is refused the moment the delete is
        admitted; operations already running finish and return their
        results (the cohort close/round race contract), then the cohort
        leaves the registry, the refiller, and its transport —
        neighbours never notice.  The delete counts itself in the total
        a drain waits on, not in the cohort's own count it waits on.
        """
        with self._in_flight():
            with self._cond:
                self._cohort(cohort_id)
                if cohort_id in self._closing:
                    raise ProtocolError(
                        f"cohort {cohort_id} is already closing"
                    )
                self._closing.add(cohort_id)
            try:
                with self._cond:
                    self._wait_idle(
                        lambda: (
                            f"cohort {cohort_id} still has rounds in flight"
                            if self._inflight.get(cohort_id) else None
                        ),
                        timeout_s,
                    )
                self.service.remove_cohort(cohort_id)
            finally:
                with self._cond:
                    self._closing.discard(cohort_id)
            return {"cohort_id": cohort_id, "closed": True}

    # ------------------------------------------------------------------
    # rounds, buffered submissions, elastic membership
    # ------------------------------------------------------------------
    def run_round(
        self, cohort_id: int, request: RoundRequest
    ) -> RoundResponse:
        with self._in_flight(cohort_id) as cohort:
            gf = self.service.gf
            updates, dropouts = request.materialize(
                cohort.spec, gf, cohort.engine.members()
            )
            t0 = time.perf_counter()
            result = cohort.run_round(updates, dropouts)
            online = time.perf_counter() - t0
            return RoundResponse(
                cohort_id=cohort_id,
                round_index=result.server_round,
                survivors=list(result.survivors),
                aggregate_b64=encode_vector(
                    result.aggregate, request.encoding, gf.q
                ),
                encoding=request.encoding,
                online_seconds=online,
                pool_level=cohort.session.pool_level,
            )

    def submit_update(
        self, cohort_id: int, request: SubmitUpdateRequest
    ) -> Dict[str, Any]:
        """One buffered submission; the sealing one returns the drain."""
        with self._in_flight(cohort_id) as cohort:
            update = request.decode(cohort.spec.model_dim)
            outcome = cohort.submit_update(
                request.user_id,
                update,
                download_round=request.download_round,
                dropouts=set(request.dropouts),
            )
            outcome = dict(outcome)
            outcome["cohort_id"] = cohort_id
            if outcome.get("drained"):
                outcome["aggregate"] = encode_real_vector(
                    outcome["aggregate"]
                )
                outcome["encoding"] = "f64"
            return outcome

    def join_member(self, cohort_id: int) -> Dict[str, Any]:
        """Admit one member to a cohort (re-keys shares)."""
        with self._in_flight(cohort_id) as cohort:
            return {**cohort.join_member(), "cohort_id": cohort_id}

    def leave_member(self, cohort_id: int, user_id: int) -> Dict[str, Any]:
        """Retire one member from a cohort (re-keys shares)."""
        with self._in_flight(cohort_id) as cohort:
            return {**cohort.leave_member(user_id), "cohort_id": cohort_id}

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------
    def drain(self, timeout_s: Optional[float] = None) -> Dict[str, Any]:
        """Stop admitting work, wait out in-flight operations, stop the
        service.

        Idempotent and thread-safe.  Every caller sets the sticky
        ``_draining`` flag and waits for idle against *its own* deadline;
        the first to find the control plane idle stops the service and
        publishes the summary, everyone else (a second POST, a SIGTERM
        racing a POST) returns that summary.  A drain that times out
        changes nothing but ``_draining`` — no new work is admitted
        afterwards, and a retry completes.
        """

        def pending() -> Optional[str]:
            if self._inflight_total > 0:
                return f"{self._inflight_total} round(s) still in flight"
            return "service stop still in progress" if self._stopping else None

        with self._cond:
            self._draining = True
            self._wait_idle(pending, timeout_s)
            if self._drain_summary is not None:
                return dict(self._drain_summary)
            self._stopping = True
        # Idle and admitting nothing: stop the service (refiller first,
        # then sessions, then transports — the library's shutdown order).
        summary = None
        try:
            self.service.stop()
            snapshot = self.service.metrics.snapshot()
            summary = {
                "drained": True,
                "uptime_seconds": time.monotonic() - self._t0,
                "total_rounds": snapshot["total_rounds"],
                "total_stalls": snapshot["total_stalls"],
                "cohorts_closed": len(self.service.cohorts),
            }
        finally:
            # On failure the next drainer finds no summary and retries.
            with self._cond:
                self._stopping = False
                self._drain_summary = summary
                self._cond.notify_all()
        return dict(summary)


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------
class _ControlHTTPServer(ThreadingHTTPServer):
    # Handler threads are daemons: a wedged client connection must not
    # block process exit after drain already stopped the service.
    daemon_threads = True

    def __init__(self, address, control: ControlPlane,
                 outer: "ControlPlaneServer"):
        self.control = control
        self.outer = outer
        super().__init__(address, _Handler)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # The daemon's access log is the caller's business (CI smoke tests
    # parse stdout); keep the handler quiet.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _read_body(self) -> Union[Dict[str, Any], Response]:
        """The request's JSON object, or the typed 4xx refusing it."""
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # Never guess: read as an empty body, a bad length would let
            # POST /cohorts create a default cohort.  How much body
            # follows is unknown, so the connection cannot be reused.
            self.close_connection = True
            return error_response(
                400, "invalid-content-length",
                f"Content-Length must be a non-negative integer, got "
                f"{header!r}",
            )
        if length > MAX_BODY_BYTES:
            # Refused unread, so the body still on the wire makes the
            # connection unusable for a next request.
            self.close_connection = True
            return error_response(
                413, "body-too-large",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        raw = self.rfile.read(length)
        if not raw:
            return {}
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            body = None
        if not isinstance(body, dict):
            return error_response(
                400, "invalid-json", "request body must be a JSON object"
            )
        return body

    def _handle(self) -> None:
        body = self._read_body()
        response = body if isinstance(body, Response) else dispatch(
            self.server.control,
            self.command,
            urlsplit(self.path).path,
            body,
        )
        try:
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(response.body)))
            for name, value in response.headers:
                self.send_header(name, value)
            if response.shutdown_after:
                self.send_header("Connection", "close")
                self.close_connection = True
            self.end_headers()
            self.wfile.write(response.body)
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away mid-response
        if response.shutdown_after:
            # The drain summary is flushed to the client; now stop the
            # listener so serve_until() unblocks and the process exits.
            self.server.outer.request_shutdown()

    do_GET = _handle
    do_POST = _handle
    do_DELETE = _handle


class ControlPlaneServer:
    """Lifecycle wrapper: listener thread, shutdown latch, max-seconds.

    ``port=0`` binds an ephemeral port published via :attr:`address`
    (the smoke-test idiom).  :meth:`serve_until` blocks the calling
    thread until a drain completes (via ``POST /drain`` or
    :meth:`request_shutdown`) or ``max_seconds`` elapses — in which case
    it drains itself, so a bounded run still exits with transports
    closed and zero leaked threads.
    """

    def __init__(
        self,
        control: ControlPlane,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.control = control
        self._httpd = _ControlHTTPServer((host, port), control, self)
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        self._done = threading.Event()
        self._stopped = False

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "ControlPlaneServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name=f"repro-serve-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def request_shutdown(self) -> None:
        """Unblock :meth:`serve_until` (idempotent, any thread)."""
        self._done.set()

    def serve_until(self, max_seconds: Optional[float] = None) -> None:
        self.start()
        if not self._done.wait(timeout=max_seconds):
            # Deadline elapsed with no drain request: drain ourselves so
            # the bounded run still shuts down cleanly.
            try:
                self.control.drain()
            except ProtocolError:
                pass
        self.stop()

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self._done.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "ControlPlaneServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

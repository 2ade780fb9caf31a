"""Endpoint table + dispatch for the control plane.

One declarative route table maps ``(method, path pattern)`` to handler
functions; :func:`dispatch` resolves it and converts every library
error class to its HTTP lane exactly once, here:

====================================  ======  =================================
``GET  /healthz``                     200     liveness + drain state
``GET  /metrics``                     200     Prometheus text exposition
``GET  /cohorts``                     200     all cohorts' status + specs
``POST /cohorts``                     201     create a cohort from a JSON spec
``GET  /cohorts/{id}``                200     one cohort's status
``DELETE /cohorts/{id}``              200     close it (neighbours untouched)
``POST /cohorts/{id}/rounds``         200     run one round, return aggregate
``POST /cohorts/{id}/updates``        200     buffered submission (may drain)
``POST /cohorts/{id}/members``        201     a member joins (re-key)
``DELETE /cohorts/{id}/members/{u}``  200     member ``u`` leaves (re-key)
``GET  /cohorts/{id}/traces``         200     recent round-trace summaries
``GET  /traces/{trace_id}``           200     one full trace (span tree)
``POST /drain``                       200     graceful shutdown, then exit
====================================  ======  =================================

Every cohort accepts every cohort route: rounds, submissions and
membership changes run on the one engine.

Error lanes (JSON bodies shaped ``{"error": {type, message[, field]}}``):
:class:`SchemaError` and config-build :class:`ReproError` → 400,
:class:`NotFoundError` → 404, :class:`ProtocolError` (cohort busy,
closed, draining, round failures) → 409,
:class:`TransportError` (workers unreachable) → 502, anything else →
500 with the exception *type only* — tracebacks never leave the
process.  A known path with the wrong method → 405 with an ``Allow``
header; an unknown path → 404.  Bodies that are not a JSON object, and
``Content-Length`` headers that are not a non-negative integer, are
refused with a 400 by the HTTP layer before dispatch; a declared length
above :data:`~repro.service.api.server.MAX_BODY_BYTES` is a 413
``body-too-large``, refused without reading the body.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import ProtocolError, ReproError, TransportError
from repro.service.api.schemas import (
    CohortCreateRequest,
    DrainRequest,
    NotFoundError,
    RoundRequest,
    SchemaError,
    SubmitUpdateRequest,
)

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


@dataclass(frozen=True)
class Response:
    """What a handler returns; the HTTP layer writes it verbatim."""

    status: int
    body: bytes
    content_type: str = "application/json"
    shutdown_after: bool = False
    headers: Tuple[Tuple[str, str], ...] = ()  # extra response headers


def json_response(
    status: int, payload: Dict[str, Any], shutdown_after: bool = False
) -> Response:
    return Response(
        status,
        json.dumps(payload).encode("utf-8"),
        shutdown_after=shutdown_after,
    )


def error_response(
    status: int, kind: str, message: str, field: Optional[str] = None
) -> Response:
    error: Dict[str, Any] = {"type": kind, "message": message}
    if field is not None:
        error["field"] = field
    return json_response(status, {"error": error})


# ----------------------------------------------------------------------
# handlers — (control, match, body) -> Response
# ----------------------------------------------------------------------
def _healthz(control, match, body) -> Response:
    return json_response(200, control.health())


def _metrics(control, match, body) -> Response:
    return Response(
        200, control.metrics_text().encode("utf-8"),
        content_type=PROMETHEUS_CONTENT_TYPE,
    )


def _list_cohorts(control, match, body) -> Response:
    return json_response(200, control.list_cohorts())


def _create_cohort(control, match, body) -> Response:
    spec = CohortCreateRequest.from_json(body).to_spec()
    return json_response(201, control.create_cohort(spec))


def _cohort_status(control, match, body) -> Response:
    return json_response(
        200, control.cohort_status(int(match.group("cohort_id")))
    )


def _delete_cohort(control, match, body) -> Response:
    return json_response(
        200, control.delete_cohort(int(match.group("cohort_id")))
    )


def _cohort_traces(control, match, body) -> Response:
    return json_response(
        200, control.cohort_traces(int(match.group("cohort_id")))
    )


def _get_trace(control, match, body) -> Response:
    return json_response(
        200, control.get_trace(int(match.group("trace_id")))
    )


def _run_round(control, match, body) -> Response:
    request = RoundRequest.from_json(body)
    response = control.run_round(int(match.group("cohort_id")), request)
    return json_response(200, response.to_json())


def _submit_update(control, match, body) -> Response:
    request = SubmitUpdateRequest.from_json(body)
    return json_response(
        200, control.submit_update(int(match.group("cohort_id")), request)
    )


def _join_member(control, match, body) -> Response:
    return json_response(
        201, control.join_member(int(match.group("cohort_id")))
    )


def _leave_member(control, match, body) -> Response:
    return json_response(
        200,
        control.leave_member(
            int(match.group("cohort_id")), int(match.group("user_id"))
        ),
    )


def _drain(control, match, body) -> Response:
    request = DrainRequest.from_json(body)
    summary = control.drain(timeout_s=request.timeout_s)
    # shutdown_after: the HTTP layer flushes this response to the
    # client, then stops the listener — drain is the daemon's last word.
    return json_response(200, summary, shutdown_after=True)


Handler = Callable[[Any, "re.Match", Dict[str, Any]], Response]

#: (method, compiled path pattern, handler) — first full match wins.
ROUTES: List[Tuple[str, "re.Pattern", Handler]] = [
    ("GET", re.compile(r"/healthz"), _healthz),
    ("GET", re.compile(r"/metrics"), _metrics),
    ("GET", re.compile(r"/cohorts"), _list_cohorts),
    ("POST", re.compile(r"/cohorts"), _create_cohort),
    ("GET", re.compile(r"/cohorts/(?P<cohort_id>\d+)"), _cohort_status),
    ("DELETE", re.compile(r"/cohorts/(?P<cohort_id>\d+)"), _delete_cohort),
    ("POST", re.compile(r"/cohorts/(?P<cohort_id>\d+)/rounds"), _run_round),
    ("POST", re.compile(r"/cohorts/(?P<cohort_id>\d+)/updates"),
     _submit_update),
    ("POST", re.compile(r"/cohorts/(?P<cohort_id>\d+)/members"),
     _join_member),
    ("DELETE",
     re.compile(r"/cohorts/(?P<cohort_id>\d+)/members/(?P<user_id>\d+)"),
     _leave_member),
    ("GET", re.compile(r"/cohorts/(?P<cohort_id>\d+)/traces"),
     _cohort_traces),
    ("GET", re.compile(r"/traces/(?P<trace_id>\d+)"), _get_trace),
    ("POST", re.compile(r"/drain"), _drain),
]


def dispatch(
    control, method: str, path: str, body: Dict[str, Any]
) -> Response:
    """Route one request and map library errors to HTTP statuses."""
    path = path.rstrip("/") or "/"
    allowed: List[str] = []
    for route_method, pattern, handler in ROUTES:
        match = pattern.fullmatch(path)
        if match is None:
            continue
        if route_method != method:
            allowed.append(route_method)
            continue
        try:
            return handler(control, match, body)
        except SchemaError as exc:
            return error_response(
                400, "validation", str(exc), field=exc.field
            )
        except NotFoundError as exc:
            return error_response(404, "not-found", str(exc))
        except TransportError as exc:
            return error_response(502, "transport", str(exc))
        except ProtocolError as exc:
            return error_response(409, "conflict", str(exc))
        except ReproError as exc:
            # Config-build rejections (bad geometry, bad knob pairs) are
            # the client's spec problem, same text as the library error.
            return error_response(400, "invalid-spec", str(exc))
        except Exception as exc:  # noqa: BLE001 — no tracebacks on the wire
            return error_response(
                500, "internal",
                f"unhandled {type(exc).__name__}; see server logs",
            )
    if allowed:
        allowed = sorted(set(allowed))
        return replace(
            error_response(
                405, "method-not-allowed",
                f"{method} not allowed on {path}; allowed: {allowed}",
            ),
            headers=(("Allow", ", ".join(allowed)),),
        )
    return error_response(404, "not-found", f"no route for {method} {path}")

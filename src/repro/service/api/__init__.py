"""HTTP/JSON control plane for the aggregation service (``repro serve``).

The subsystem that turns :class:`~repro.service.service.
AggregationService` from a library into a *daemon*: cohorts are
created, driven, and retired over HTTP at runtime — no process restart
— with Prometheus metrics and a graceful drain.

* :mod:`repro.service.api.schemas` — dataclass request/response models
  with typed validation (→ 4xx JSON bodies, never tracebacks).
* :mod:`repro.service.api.routes` — the endpoint table and the single
  place library errors map to HTTP statuses.
* :mod:`repro.service.api.server` — :class:`ControlPlane` (the one
  admission gate every mutating operation is counted through, and the
  idempotent drain that waits on it) and :class:`ControlPlaneServer`
  (stdlib ``ThreadingHTTPServer`` front end).
"""

from repro.service.api.routes import (
    PROMETHEUS_CONTENT_TYPE,
    Response,
    dispatch,
)
from repro.service.api.schemas import (
    ENCODINGS,
    CohortCreateRequest,
    DrainRequest,
    NotFoundError,
    RoundRequest,
    RoundResponse,
    SchemaError,
    SubmitUpdateRequest,
    SyntheticRoundSpec,
    decode_real_vector,
    decode_vector,
    encode_real_vector,
    encode_vector,
    field_bits,
)
from repro.service.api.server import ControlPlane, ControlPlaneServer

__all__ = [
    "ENCODINGS",
    "PROMETHEUS_CONTENT_TYPE",
    "CohortCreateRequest",
    "ControlPlane",
    "ControlPlaneServer",
    "DrainRequest",
    "NotFoundError",
    "Response",
    "RoundRequest",
    "RoundResponse",
    "SchemaError",
    "SubmitUpdateRequest",
    "SyntheticRoundSpec",
    "decode_real_vector",
    "decode_vector",
    "dispatch",
    "encode_real_vector",
    "encode_vector",
    "field_bits",
]

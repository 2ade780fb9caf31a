"""Request/response models for the HTTP/JSON control plane.

Dataclass models with *typed* validation: every field of an incoming
JSON body is checked for presence, type, and range here — before any
service machinery runs — and failures raise :class:`SchemaError`, which
the server renders as a 400 JSON body naming the offending field.
Library errors keep their own lanes (:class:`~repro.exceptions.
ProtocolError` → 409, :class:`~repro.exceptions.TransportError` → 502)
and are never smuggled to clients as tracebacks.

Vector payloads cross the API as base64 text in one of two encodings:

* ``u32`` (the default) — little-endian 4-byte words, one per field
  element: :data:`~repro.field.FIELD_WORD` (``<u4``), the word the shard
  wire carries and the offline pools hold.  Every modulus the field
  accepts is below ``2**32``, so every element fits one word, and
  decoded vectors keep this width all the way to the worker's kernel.
* ``packed`` — LSB-first bit-packing (:func:`repro.wire.pack_bits`)
  at ``ceil(log2 q)`` bits per element; for the default field
  ``q = 2**31 - 1`` that is 31 bits per element.  The shard wire does
  not speak it.

Responses mirror the request's encoding, so a client that uploads
packed vectors gets its aggregate back packed.
"""

from __future__ import annotations

import base64
import binascii
import enum
from dataclasses import dataclass, fields
from typing import (
    Any, Dict, List, Optional, Sequence, Tuple, Union, get_args,
    get_origin, get_type_hints,
)

import numpy as np

from repro.exceptions import ReproError, WireError
from repro.service.config import CohortSpec
from repro.wire import FIELD_WORD, field_words, pack_bits, unpack_bits

#: Vector payload encodings the control plane accepts and emits.
ENCODINGS = ("u32", "packed")


class SchemaError(ReproError):
    """A request body failed typed validation; rendered as HTTP 400."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class NotFoundError(ReproError):
    """The requested resource does not exist; rendered as HTTP 404."""


def field_bits(q: int) -> int:
    """Bit width of one element of GF(q) (what ``packed`` packs at)."""
    return max(1, (int(q) - 1).bit_length())


# ----------------------------------------------------------------------
# typed field extraction
# ----------------------------------------------------------------------
_TYPE_NAMES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    bool: "a boolean",
    dict: "an object",
    list: "an array",
}


def _typed(
    body: Dict[str, Any],
    name: str,
    expected: type,
    default: Any = None,
    required: bool = False,
):
    """Fetch ``body[name]`` as ``expected`` or raise a field-typed error."""
    if name not in body or body[name] is None:
        if required:
            raise SchemaError(name, "required field is missing")
        return default
    value = body[name]
    # bool is an int subclass in Python; a JSON true is never a count.
    if expected in (int, float) and isinstance(value, bool):
        raise SchemaError(
            name, f"expected {_TYPE_NAMES[expected]}, got a boolean"
        )
    if expected is float and isinstance(value, int):
        return float(value)
    if not isinstance(value, expected):
        raise SchemaError(
            name,
            f"expected {_TYPE_NAMES.get(expected, expected.__name__)}, "
            f"got {type(value).__name__}",
        )
    return value


def _reject_unknown(body: Dict[str, Any], known: Tuple[str, ...],
                    where: str) -> None:
    unknown = sorted(set(body) - set(known))
    if unknown:
        raise SchemaError(
            where,
            f"unknown field(s) {unknown}; known fields: {sorted(known)}",
        )


# ----------------------------------------------------------------------
# vectors
# ----------------------------------------------------------------------
def _base64(text: str, field: str) -> bytes:
    """Strict base64 text → bytes, or a :class:`SchemaError` on ``field``."""
    if not isinstance(text, str):
        raise SchemaError(
            field, f"expected a base64 string, got {type(text).__name__}"
        )
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError) as exc:
        raise SchemaError(field, f"invalid base64: {exc}") from None


def _fixed_width(text: str, word: np.dtype, dim: int, field: str):
    """Base64 text → exactly ``dim`` words: ``u32`` or ``f64``."""
    raw = _base64(text, field)
    if len(raw) != dim * word.itemsize:
        raise SchemaError(
            field,
            f"{word.kind}{8 * word.itemsize} vector is {len(raw)} bytes; "
            f"dim={dim} needs exactly {dim * word.itemsize}",
        )
    return np.frombuffer(raw, dtype=word)


def decode_vector(
    text: str, encoding: str, q: int, dim: int, field: str
) -> np.ndarray:
    """Base64 text → :data:`~repro.field.FIELD_WORD` vector of ``dim``
    words, each checked below ``q`` (a word at or above it is a 400).
    ``u32`` is a read-only view of the decoded bytes; ``packed`` is
    narrowed once after the check."""
    if _known(encoding) == "u32":
        vector = _fixed_width(text, FIELD_WORD, dim, field)
    else:  # packed
        try:
            vector = unpack_bits(_base64(text, field), field_bits(q), dim)
        except WireError as exc:
            raise SchemaError(field, str(exc)) from None
    if vector.size and int(vector.max()) >= q:
        raise SchemaError(
            field,
            f"element {int(vector.argmax())} is {int(vector.max())}, "
            f"outside GF({q})",
        )
    return vector.astype(FIELD_WORD, copy=False)


def encode_vector(vector: np.ndarray, encoding: str, q: int) -> str:
    """Field vector → base64 text in the requested encoding; a ``u32``
    word outside ``[0, 2**32)`` is a :class:`WireError`, not cut."""
    if _known(encoding) == "u32":
        raw = field_words(vector, "u32 vector").tobytes()
    else:  # packed
        raw = pack_bits(np.ascontiguousarray(vector, "<u8"), field_bits(q))
    return base64.b64encode(raw).decode("ascii")


def decode_real_vector(text: str, dim: int, field: str) -> np.ndarray:
    """Base64 little-endian float64 → validated real vector of ``dim``.

    Buffered-async submissions are *real-valued* local updates (the
    server quantizes them into the field at drain time), so they ride
    the ``f64`` encoding instead of the field encodings above.
    """
    vector = _fixed_width(text, np.dtype("<f8"), dim, field).astype(np.float64)
    if not np.all(np.isfinite(vector)):
        raise SchemaError(field, "vector contains non-finite elements")
    return vector


def encode_real_vector(vector: np.ndarray) -> str:
    """Real vector → base64 little-endian float64 text."""
    arr = np.ascontiguousarray(np.asarray(vector), dtype="<f8")
    return base64.b64encode(arr.tobytes()).decode("ascii")


def _known(encoding: str) -> str:
    """``encoding`` itself, or a :class:`SchemaError` on ``encoding``."""
    if encoding not in ENCODINGS:
        raise SchemaError(
            "encoding", f"must be one of {list(ENCODINGS)}, got {encoding!r}"
        )
    return encoding


# ----------------------------------------------------------------------
# POST /cohorts
# ----------------------------------------------------------------------
#: ``CohortSpec``'s field types, resolved once — what the body is parsed
#: against, so the spec stays the only declaration of the cohort fields.
_SPEC_HINTS = get_type_hints(CohortSpec)


def _spec_value(body: Dict[str, Any], name: str, default: Any):
    """``body[name]`` as the type ``CohortSpec`` declares for ``name``."""
    hint = _SPEC_HINTS[name]
    if get_origin(hint) is Union:  # Optional[X]: absent / null -> default
        hint = next(a for a in get_args(hint) if a is not type(None))
    if get_origin(hint) is tuple:  # ``connect``, the one string array
        values = _typed(body, name, list)
        if values is None:
            return default
        for i, address in enumerate(values):
            if not isinstance(address, str):
                raise SchemaError(
                    f"{name}[{i}]",
                    f"expected a host:port string, got "
                    f"{type(address).__name__}",
                )
        return tuple(values)
    if issubclass(hint, enum.Enum):  # travels as its string value
        text = _typed(body, name, str)
        if text is None:
            return default
        try:
            return hint(text)
        except ValueError:
            raise SchemaError(
                name,
                f"must be one of {[member.value for member in hint]}, "
                f"got {text!r}",
            ) from None
    return _typed(body, name, hint, default)


@dataclass(frozen=True)
class CohortCreateRequest:
    """The JSON body of ``POST /cohorts``: one runtime cohort spec.

    Field names, types and defaults are read off
    :class:`~repro.service.config.CohortSpec`; enums travel as their
    string values (``"transport": "socket"``).  :meth:`to_spec` runs the
    config layer's full geometry validation, so a cohort that would be
    rejected at static config build time is rejected here with the same
    message, as a 400.
    """

    values: Dict[str, Any]

    @classmethod
    def from_json(cls, body: Dict[str, Any]) -> "CohortCreateRequest":
        # ``kind`` named the cohort kind before every cohort took rounds,
        # submissions and membership changes alike; bodies written then
        # still create a cohort, and the key goes no further.
        kind = _typed(body, "kind", str)
        if kind not in (None, "sync", "buffered"):
            raise SchemaError(
                "kind", f"must be 'sync' or 'buffered', got {kind!r}"
            )
        body = {k: v for k, v in body.items() if k != "kind"}
        _reject_unknown(body, tuple(_SPEC_HINTS), "cohort spec")
        return cls({
            f.name: _spec_value(body, f.name, f.default)
            for f in fields(CohortSpec)
        })

    def to_spec(self) -> CohortSpec:
        # CohortSpec's own __post_init__ performs the full geometry
        # validation; its ReproError is the 400 body's message.
        return CohortSpec(**self.values)


# ----------------------------------------------------------------------
# POST /cohorts/{id}/updates
# ----------------------------------------------------------------------
_SUBMIT_FIELDS = (
    "user_id", "update", "download_round", "dropouts", "encoding",
)


@dataclass(frozen=True)
class SubmitUpdateRequest:
    """The JSON body of ``POST /cohorts/{id}/updates``.

    One buffered-async submission: a member's real-valued local update
    (base64 little-endian float64, encoding ``f64``), the round it
    downloaded the model at (``download_round``, defaulting to the
    current round), and optionally member ids it observed unreachable
    (excluded from the recovery phase of the drain this submission
    lands in).
    """

    user_id: int
    update_b64: str
    download_round: Optional[int] = None
    dropouts: Tuple[int, ...] = ()

    @classmethod
    def from_json(cls, body: Dict[str, Any]) -> "SubmitUpdateRequest":
        _reject_unknown(body, _SUBMIT_FIELDS, "update submission")
        encoding = _typed(body, "encoding", str, default="f64")
        if encoding != "f64":
            raise SchemaError(
                "encoding",
                "buffered submissions are real-valued; only 'f64' "
                f"(little-endian float64) is supported, got {encoding!r}",
            )
        user_id = _typed(body, "user_id", int, required=True)
        if user_id < 0:
            raise SchemaError("user_id", f"must be >= 0, got {user_id}")
        update = _typed(body, "update", str, required=True)
        download_round = _typed(body, "download_round", int)
        if download_round is not None and download_round < 0:
            raise SchemaError(
                "download_round", f"must be >= 0, got {download_round}"
            )
        dropouts_list = _typed(body, "dropouts", list, [])
        dropouts: List[int] = []
        for i, uid in enumerate(dropouts_list):
            if isinstance(uid, bool) or not isinstance(uid, int):
                raise SchemaError(
                    f"dropouts[{i}]",
                    f"expected an integer member id, got "
                    f"{type(uid).__name__}",
                )
            dropouts.append(uid)
        return cls(
            user_id=user_id,
            update_b64=update,
            download_round=download_round,
            dropouts=tuple(dropouts),
        )

    def decode(self, model_dim: int) -> np.ndarray:
        return decode_real_vector(self.update_b64, model_dim, "update")


# ----------------------------------------------------------------------
# POST /cohorts/{id}/rounds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SyntheticRoundSpec:
    """Server-generated round inputs (bench/smoke traffic)."""

    seed: int = 0
    dropout_rate: float = 0.0

    @classmethod
    def from_json(cls, body: Dict[str, Any]) -> "SyntheticRoundSpec":
        _reject_unknown(body, ("seed", "dropout_rate"), "synthetic")
        rate = _typed(body, "dropout_rate", float, 0.0)
        if not 0.0 <= rate < 1.0:
            raise SchemaError(
                "synthetic.dropout_rate",
                f"must be in [0, 1), got {rate}",
            )
        return cls(seed=_typed(body, "seed", int, 0), dropout_rate=rate)


@dataclass(frozen=True)
class RoundRequest:
    """The JSON body of ``POST /cohorts/{id}/rounds``.

    Exactly one of ``updates`` (explicit per-user base64 vectors) or
    ``synthetic`` (a server-side input generator spec) must be present.
    ``dropouts`` lists user ids that dropped after upload; with
    ``synthetic`` it is unioned with the sampled dropouts.
    """

    updates_b64: Optional[Dict[int, str]] = None
    dropouts: Tuple[int, ...] = ()
    synthetic: Optional[SyntheticRoundSpec] = None
    encoding: str = "u32"

    @classmethod
    def from_json(cls, body: Dict[str, Any]) -> "RoundRequest":
        _reject_unknown(
            body, ("updates", "dropouts", "synthetic", "encoding"), "round"
        )
        updates = _typed(body, "updates", dict)
        synthetic_body = _typed(body, "synthetic", dict)
        if (updates is None) == (synthetic_body is None):
            raise SchemaError(
                "updates",
                "exactly one of 'updates' and 'synthetic' is required",
            )
        encoding = _known(_typed(body, "encoding", str, default="u32"))
        dropouts_list = _typed(body, "dropouts", list, [])
        dropouts: List[int] = []
        for i, uid in enumerate(dropouts_list):
            if isinstance(uid, bool) or not isinstance(uid, int):
                raise SchemaError(
                    f"dropouts[{i}]",
                    f"expected an integer user id, got "
                    f"{type(uid).__name__}",
                )
            dropouts.append(uid)
        updates_b64: Optional[Dict[int, str]] = None
        if updates is not None:
            if not updates:
                raise SchemaError("updates", "needs at least one update")
            updates_b64 = {}
            for key, text in updates.items():
                # Canonical ASCII decimal only.  ``int()`` also takes
                # "01", "+1", " 1", "1_0" and non-ASCII digits, which
                # landed two keys on one user id and let the later
                # vector silently replace the earlier one; with one
                # spelling per id, distinct keys are distinct users.
                if not (
                    isinstance(key, str)
                    and key.isascii()
                    and key.isdigit()
                    and (key == "0" or key[0] != "0")
                ):
                    raise SchemaError(
                        f"updates[{key!r}]",
                        "keys must be integer user ids in canonical "
                        "decimal form (ASCII digits, no sign, no "
                        "leading zero)",
                    )
                updates_b64[int(key)] = text
        synthetic = (
            SyntheticRoundSpec.from_json(synthetic_body)
            if synthetic_body is not None
            else None
        )
        return cls(
            updates_b64=updates_b64,
            dropouts=tuple(dropouts),
            synthetic=synthetic,
            encoding=encoding,
        )

    def materialize(
        self, spec: CohortSpec, gf, members: Optional[Sequence[int]] = None
    ):
        """Produce ``(updates, dropouts)`` for the cohort's round.

        ``members`` is the cohort's live member list (``0..N-1`` when
        omitted).  Decodes explicit vectors (validating member ids,
        dimension, and field range) or draws synthetic inputs with
        :func:`~repro.service.service.synthetic_round`, the draw
        :meth:`AggregationService.run_synthetic` makes, so a synthetic
        HTTP round is bit-identical to the in-process synthetic path at
        equal seeds.
        """
        from repro.service.service import synthetic_round

        if members is None:
            members = range(spec.num_users)
        live = set(members)
        for uid in self.dropouts:
            if uid not in live:
                raise SchemaError(
                    "dropouts", f"user id {uid} outside the cohort's members"
                )
        if self.synthetic is not None:
            updates, dropouts = synthetic_round(
                members, spec.model_dim, gf, self.synthetic.dropout_rate,
                np.random.default_rng(self.synthetic.seed),
            )
            return updates, set(self.dropouts) | dropouts
        assert self.updates_b64 is not None
        updates = {}
        for uid in sorted(self.updates_b64):
            if uid not in live:
                raise SchemaError(
                    f"updates[{uid}]", "user id outside the cohort's members"
                )
            updates[uid] = decode_vector(
                self.updates_b64[uid], self.encoding, gf.q,
                spec.model_dim, f"updates[{uid}]",
            )
        return updates, set(self.dropouts)


@dataclass(frozen=True)
class RoundResponse:
    """The JSON body a completed round returns."""

    cohort_id: int
    round_index: int
    survivors: List[int]
    aggregate_b64: str
    encoding: str
    online_seconds: float
    pool_level: int

    def to_json(self) -> Dict[str, Any]:
        return {
            "cohort_id": self.cohort_id,
            "round": self.round_index,
            "survivors": list(self.survivors),
            "aggregate": self.aggregate_b64,
            "encoding": self.encoding,
            "online_seconds": self.online_seconds,
            "pool_level": self.pool_level,
        }


# ----------------------------------------------------------------------
# POST /drain
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DrainRequest:
    """The (optional) JSON body of ``POST /drain``."""

    timeout_s: Optional[float] = None

    @classmethod
    def from_json(cls, body: Dict[str, Any]) -> "DrainRequest":
        _reject_unknown(body, ("timeout_s",), "drain")
        timeout = _typed(body, "timeout_s", float)
        if timeout is not None and timeout <= 0:
            raise SchemaError("timeout_s", f"must be > 0, got {timeout}")
        return cls(timeout_s=timeout)

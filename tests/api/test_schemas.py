"""Typed validation for the control plane's request/response models.

Every rejection must be a :class:`SchemaError` naming the offending
field (the server's 400 lane) — never a bare TypeError/ValueError that
would surface as a 500.  Vector codecs roundtrip both encodings and
reject out-of-field elements before any protocol machinery runs.
"""

import base64

import numpy as np
import pytest

from repro.exceptions import ReproError, WireError
from repro.field import FIELD_WORD, FiniteField
from repro.service import AggregationService, ServiceConfig, TransportKind
from repro.service.api import (
    CohortCreateRequest,
    DrainRequest,
    RoundRequest,
    SchemaError,
    decode_vector,
    encode_vector,
    field_bits,
)


@pytest.fixture(scope="module")
def gf():
    return FiniteField()


class TestVectorCodec:
    @pytest.mark.parametrize("encoding", ["u32", "packed"])
    def test_roundtrip(self, gf, encoding):
        rng = np.random.default_rng(3)
        vec = gf.random(257, rng)
        text = encode_vector(vec, encoding, gf.q)
        back = decode_vector(text, encoding, gf.q, 257, "updates[0]")
        assert back.dtype == FIELD_WORD
        assert np.array_equal(back, vec)

    def test_packed_is_smaller_than_u32(self, gf):
        vec = gf.random(1024, np.random.default_rng(0))
        packed = encode_vector(vec, "packed", gf.q)
        u32 = encode_vector(vec, "u32", gf.q)
        assert len(packed) < len(u32)
        # the default field (q = 2^31 - 1) packs at 31 bits/element
        # against u32's one 32-bit word
        assert field_bits(gf.q) == 31
        assert len(base64.b64decode(u32)) == 4 * 1024

    def test_bad_base64_names_the_field(self, gf):
        with pytest.raises(SchemaError, match=r"updates\[3\].*base64"):
            decode_vector("!!!", "u32", gf.q, 4, "updates[3]")

    def test_wrong_length_rejected(self, gf):
        text = base64.b64encode(b"\x00" * 8).decode()
        with pytest.raises(SchemaError, match="dim=4 needs exactly 16"):
            decode_vector(text, "u32", gf.q, 4, "updates[0]")

    def test_out_of_field_element_rejected(self, gf):
        raw = np.array([0, gf.q], dtype="<u4").tobytes()
        text = base64.b64encode(raw).decode()
        with pytest.raises(SchemaError, match=r"outside GF\("):
            decode_vector(text, "u32", gf.q, 2, "updates[0]")

    def test_non_string_rejected(self, gf):
        with pytest.raises(SchemaError, match="expected a base64 string"):
            decode_vector(12345, "u32", gf.q, 2, "updates[0]")

    def test_u32_encode_refuses_a_word_past_32_bits(self, gf):
        """2**32 + 7 must not go out as its low 32 bits, 7."""
        vec = np.array([1, 2**32 + 7], dtype=np.uint64)
        with pytest.raises(WireError, match=r"outside \[0, 2\*\*32\)"):
            encode_vector(vec, "u32", gf.q)

    @pytest.mark.parametrize("encoding", ["u64", "hex"])
    def test_codec_refuses_an_unknown_encoding(self, gf, encoding):
        """No name but ``u32`` / ``packed`` falls through to a codec."""
        vec = np.array([1, 2], dtype=np.uint64)
        text = base64.b64encode(vec.astype("<u8").tobytes()).decode()
        with pytest.raises(SchemaError, match=r"encoding: must be one of"):
            encode_vector(vec, encoding, gf.q)
        with pytest.raises(SchemaError, match=r"encoding: must be one of"):
            decode_vector(text, encoding, gf.q, 2, "updates[0]")


class TestCohortCreateRequest:
    def test_defaults_match_service_config(self):
        spec = CohortCreateRequest.from_json({}).to_spec()
        assert spec == ServiceConfig(num_cohorts=1).cohort_spec()

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError, match="unknown field.*'shard_count'"):
            CohortCreateRequest.from_json({"shard_count": 2})

    def test_bool_is_not_an_int(self):
        with pytest.raises(SchemaError, match="num_users.*boolean"):
            CohortCreateRequest.from_json({"num_users": True})

    def test_bad_transport_name(self):
        with pytest.raises(SchemaError, match="transport.*'carrier-pigeon'"):
            CohortCreateRequest.from_json(
                {"transport": "carrier-pigeon"}
            ).to_spec()

    def test_bad_geometry_uses_config_layer_message(self):
        # CohortSpec.__post_init__ runs the same validator as the static
        # ServiceConfig — identical message, schema-free.
        with pytest.raises(ReproError, match="need >= 2 users per cohort"):
            CohortCreateRequest.from_json({"num_users": 1}).to_spec()

    def test_connect_must_be_strings(self):
        with pytest.raises(SchemaError, match=r"connect\[1\]"):
            CohortCreateRequest.from_json(
                {"connect": ["host:1", 7000]}
            )

    def test_socket_spec_carries_connect(self):
        spec = CohortCreateRequest.from_json(
            {"transport": "socket", "connect": ["a:1", "b:2"]}
        ).to_spec()
        assert spec.transport is TransportKind.SOCKET
        assert spec.connect == ("a:1", "b:2")


class TestRoundRequest:
    def test_exactly_one_of_updates_and_synthetic(self):
        with pytest.raises(SchemaError, match="exactly one"):
            RoundRequest.from_json({})
        with pytest.raises(SchemaError, match="exactly one"):
            RoundRequest.from_json(
                {"updates": {"0": "AA=="}, "synthetic": {}}
            )

    @pytest.mark.parametrize("encoding", ["hex", "u64"])
    def test_unknown_encoding(self, encoding):
        with pytest.raises(
            SchemaError,
            match=rf"encoding: must be one of \['u32', 'packed'\], "
                  rf"got '{encoding}'",
        ):
            RoundRequest.from_json(
                {"synthetic": {}, "encoding": encoding}
            )

    def test_default_encoding_is_u32(self):
        assert RoundRequest.from_json({"synthetic": {}}).encoding == "u32"

    def test_dropouts_must_be_integers(self):
        with pytest.raises(SchemaError, match=r"dropouts\[1\]"):
            RoundRequest.from_json(
                {"synthetic": {}, "dropouts": [0, "one"]}
            )

    def test_update_keys_coerce_from_json_strings(self):
        req = RoundRequest.from_json({"updates": {"3": "AA=="}})
        assert req.updates_b64 == {3: "AA=="}

    def test_non_integer_update_key(self):
        with pytest.raises(SchemaError, match="integer user ids"):
            RoundRequest.from_json({"updates": {"alice": "AA=="}})

    @pytest.mark.parametrize(
        "key", ["01", "+3", "-0", " 2", "2 ", "1_0", "\u0663", "1.0", ""]
    )
    def test_non_canonical_update_key_rejected(self, key):
        """``int()`` reads each of these as a user id, so ``"1"`` beside
        ``"01"`` used to keep only the later vector."""
        with pytest.raises(SchemaError, match="canonical") as excinfo:
            RoundRequest.from_json({"updates": {"1": "AA==", key: "AQ=="}})
        assert excinfo.value.field == f"updates[{key!r}]"

    def test_canonical_update_keys_never_collide(self):
        req = RoundRequest.from_json(
            {"updates": {"0": "AA==", "1": "AQ==", "10": "Ag=="}}
        )
        assert req.updates_b64 == {0: "AA==", 1: "AQ==", 10: "Ag=="}

    def test_synthetic_dropout_rate_range(self):
        with pytest.raises(SchemaError, match=r"\[0, 1\)"):
            RoundRequest.from_json(
                {"synthetic": {"dropout_rate": 1.0}}
            )

    def test_materialize_rejects_out_of_range_user(self, gf):
        spec = ServiceConfig(num_cohorts=1, num_users=4).cohort_spec()
        vec = encode_vector(gf.random(spec.model_dim,
                                      np.random.default_rng(0)), "u32", gf.q)
        req = RoundRequest.from_json({"updates": {"9": vec}})
        with pytest.raises(SchemaError, match=r"updates\[9\].*outside"):
            req.materialize(spec, gf)
        req = RoundRequest.from_json({"synthetic": {}, "dropouts": [4]})
        with pytest.raises(SchemaError, match=r"dropouts.*outside"):
            req.materialize(spec, gf)

    def test_synthetic_materialize_matches_run_synthetic(self, gf):
        """The HTTP synthetic path draws the exact same inputs as the
        in-process ``run_synthetic`` — same rng construction, same draw
        order — so equal seeds mean bit-equal aggregates."""
        config = ServiceConfig(num_cohorts=1, num_users=5, model_dim=64,
                               pool_size=2)
        spec = config.cohort_spec()
        req = RoundRequest.from_json({"synthetic": {"seed": 21}})
        updates, dropouts = req.materialize(spec, gf)
        assert sorted(updates) == list(range(5))
        assert dropouts == set()

        svc = AggregationService(config, gf=gf).start()
        try:
            result = svc.run_round(0, updates, dropouts)
            reference = svc.cohorts[0].session  # noqa: F841 — round ran
        finally:
            svc.stop()
        expected = gf.zeros(64)
        for uid in result.survivors:
            expected = gf.add(expected, updates[uid])
        assert np.array_equal(result.aggregate, expected)


class TestDrainRequest:
    def test_default_is_unbounded(self):
        assert DrainRequest.from_json({}).timeout_s is None

    def test_timeout_must_be_positive(self):
        with pytest.raises(SchemaError, match="timeout_s"):
            DrainRequest.from_json({"timeout_s": 0})

    def test_int_timeout_coerces_to_float(self):
        assert DrainRequest.from_json({"timeout_s": 5}).timeout_s == 5.0

"""The cohort declaration cannot drift, and neither can the round bracket.

``CohortSpec`` is the one place the cohort fields are named; everything
else — what ``POST /cohorts`` accepts, what ``describe()`` and
``status()["config"]`` show, what ``ServiceConfig`` adds — is read off
its dataclass fields.  These tests pin that: a field added to the spec
must show up everywhere at once, and nowhere else may grow one.

The lifecycle-parity test pins the shared round bracket: a failed round
and a failed buffered drain leave the cohort in the same state.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.field import FiniteField
from repro.service import (
    AggregationService,
    CohortSpec,
    ServiceConfig,
    TransportKind,
)
from repro.service.api import CohortCreateRequest, SchemaError

SPEC_FIELDS = {f.name for f in fields(CohortSpec)}

#: Every field set to a non-default value, in its JSON shape.
FULL_BODY = {
    "num_users": 10,
    "model_dim": 120,
    "num_shards": 3,
    "pool_size": 5,
    "low_water": 2,
    "dropout_tolerance": 2,
    "privacy": 2,
    "transport": "socket",
    "num_workers": None,  # only process takes it; see below
    "connect": ["127.0.0.1:7001", "127.0.0.1:7002"],
    "seed": 11,
    "buffer_size": 7,
    "staleness_fn": "polynomial",
    "staleness_alpha": 0.5,
    "staleness_levels": 32,
    "quant_levels": 1 << 12,
    "quant_clip": 4.0,
}

#: A wrong JSON type for each field (a right one for none).
WRONG_TYPE = {
    name: (7 if isinstance(value, (str, list)) else "seven")
    for name, value in FULL_BODY.items()
}


class TestDeclaredOnce:
    def test_post_cohorts_accepts_exactly_the_spec_fields(self):
        assert set(FULL_BODY) == SPEC_FIELDS and len(SPEC_FIELDS) == 17
        for name in SPEC_FIELDS:  # each is accepted on its own...
            CohortCreateRequest.from_json({name: FULL_BODY[name]})
        with pytest.raises(SchemaError, match="unknown field") as exc:
            CohortCreateRequest.from_json({"refill_mode": "sync"})
        # ...and the rejection lists exactly the spec's names.
        assert f"known fields: {sorted(SPEC_FIELDS)}" in str(exc.value)
        # The service hosts pooled LightSecAgg only: no protocol to pick.
        with pytest.raises(SchemaError, match="unknown field"):
            CohortCreateRequest.from_json({"protocol": "lightsecagg"})
        # Field words have one wire layout: no encoding to pick either.
        with pytest.raises(SchemaError, match="unknown field"):
            CohortCreateRequest.from_json({"wire_format": "raw"})

    def test_describe_and_status_show_the_spec_fields(self):
        assert set(CohortSpec().describe()) == SPEC_FIELDS
        config = ServiceConfig(num_cohorts=2, num_users=6)
        status = AggregationService(config, build_cohorts=False).status()
        assert SPEC_FIELDS <= set(status["config"])
        assert status["config"]["num_users"] == 6
        assert status["config"]["num_cohorts"] == 2

    def test_service_config_adds_only_service_policy(self):
        service_fields = {f.name for f in fields(ServiceConfig)}
        assert service_fields - SPEC_FIELDS == {
            "num_cohorts", "refill_mode", "tracing",
        }
        assert SPEC_FIELDS <= service_fields
        # ...and declares none of the cohort fields a second time.
        assert not SPEC_FIELDS & set(vars(ServiceConfig)["__annotations__"])

    def test_full_body_round_trips(self):
        spec = CohortCreateRequest.from_json(FULL_BODY).to_spec()
        assert spec == CohortSpec(
            num_users=10, model_dim=120, num_shards=3, pool_size=5,
            low_water=2, dropout_tolerance=2, privacy=2,
            transport=TransportKind.SOCKET,
            connect=("127.0.0.1:7001", "127.0.0.1:7002"), seed=11,
            buffer_size=7, staleness_fn="polynomial",
            staleness_alpha=0.5, staleness_levels=32,
            quant_levels=1 << 12, quant_clip=4.0,
        )
        assert spec.describe() == FULL_BODY
        defaults = CohortSpec()
        same = {
            name for name in SPEC_FIELDS
            if getattr(spec, name) == getattr(defaults, name)
        }
        # One field cannot leave its default beside the others
        # (num_workers needs process); it round-trips on its own.
        assert same == {"num_workers"}
        other = {"transport": "process", "num_workers": 2}
        described = CohortCreateRequest.from_json(other).to_spec().describe()
        assert {name: described[name] for name in other} == other

    @pytest.mark.parametrize("name", sorted(SPEC_FIELDS))
    def test_wrong_json_type_names_the_field(self, name):
        with pytest.raises(SchemaError) as exc:
            CohortCreateRequest.from_json({name: WRONG_TYPE[name]})
        assert exc.value.field == name


# ----------------------------------------------------------------------
# one round bracket for both seals
# ----------------------------------------------------------------------
N, DIM, K = 6, 24, 4


def run_sync(cohort, gf, dropouts):
    rng = np.random.default_rng(0)
    updates = {i: gf.random(DIM, rng) for i in range(N)}
    return cohort.run_round(updates, set(dropouts))


def run_buffered(cohort, gf, dropouts):
    rng = np.random.default_rng(0)
    out = None
    for uid in range(K):  # the K-th submission seals and drains
        out = cohort.submit_update(
            uid, rng.normal(size=DIM), dropouts=set(dropouts)
        )
    assert out["drained"]
    return out


@pytest.mark.parametrize("drive", [run_sync, run_buffered])
def test_failed_round_leaves_the_cohort_ready(drive):
    """Below-U survivors: a round and a drain both go back to idle,
    count no round, close their trace with the error, and serve the
    next round."""
    gf = FiniteField()
    config = ServiceConfig(
        num_users=N, model_dim=DIM, pool_size=3, buffer_size=K,
    )
    with AggregationService(config, gf=gf) as svc:
        cohort = svc.cohorts[0]
        with pytest.raises(ProtocolError):
            drive(cohort, gf, dropouts={1, 2, 3, 4})  # D = 1
        status = cohort.status()
        assert status["phase"] == "idle" and status["rounds"] == 0
        assert svc.metrics.snapshot()["total_rounds"] == 0
        (failed,) = svc.traces()
        assert failed.root.end is not None
        assert failed.root.tags["error"]  # the typed cause's name

        drive(cohort, gf, dropouts=set())
        status = cohort.status()
        assert status["phase"] == "idle" and status["rounds"] == 1
        assert svc.metrics.snapshot()["total_rounds"] == 1
        newest = svc.traces()[0]
        assert "error" not in newest.root.tags

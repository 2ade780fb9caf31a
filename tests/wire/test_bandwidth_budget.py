"""CI regression gate on the wire's byte budget.

A fixed seeded reference round (N=16, d=4096, 31-bit field elements) is
encoded as the shard wire sends it — field words as ``<u4`` — and
measured against the committed baseline in
``benchmarks/results/wire_bytes_baseline.json``.  Two pins:

* the budget: the round may not exceed the committed
  ``packed_round_bytes`` (the 31-bit bit-packed round the wire sent
  before it settled on one word) by more than 5%;
* the exact size, ``u32_round_bytes``: any drift means the frame
  layout changed.

Record the exact size (after a DELIBERATE format change) with::

    PYTHONPATH=src python tests/wire/test_bandwidth_budget.py

which rewrites ``u32_round_bytes`` only; the budget's baseline stays.
"""

import json
import os

import numpy as np
import pytest

from repro.field import FiniteField
from repro.protocols.base import SessionStats
from repro.wire import ShardRoundRequest, ShardRoundResult, encode_message

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir,
    "benchmarks", "results", "wire_bytes_baseline.json",
)

#: The reference round's geometry — part of the baseline contract; a
#: mismatch with the JSON means the baseline must be regenerated.
REFERENCE = {"num_users": 16, "model_dim": 4096, "seed": 2026}

#: How much the reference round may exceed the packed baseline.
BUDGET_SLACK = 1.05


def reference_round_bytes() -> int:
    """Bytes of the seeded reference round's request + result frames."""
    gf = FiniteField()
    rng = np.random.default_rng(REFERENCE["seed"])
    n, dim = REFERENCE["num_users"], REFERENCE["model_dim"]
    updates = {i: gf.random(dim, rng) for i in range(n)}
    dropouts = {3, 11}
    request = ShardRoundRequest.from_updates(0, 0, updates, dropouts)
    result = ShardRoundResult(
        shard_id=0,
        round_id=0,
        aggregate=gf.random(dim, rng),
        survivors=sorted(set(range(n)) - dropouts),
        transcript_table=np.zeros((0, 5), dtype=np.int64),
        metrics_counts=(1, 2, 3),
        metrics_extra={},
        stalled=False,
        pool_level=3,
        stats=SessionStats(),
    )
    return len(encode_message(request, 1)) + len(encode_message(result, 2))


@pytest.fixture(scope="module")
def baseline():
    if not os.path.exists(BASELINE_PATH):
        pytest.fail(f"missing wire-bytes baseline {BASELINE_PATH}")
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


def test_baseline_matches_reference_geometry(baseline):
    assert baseline["params"] == REFERENCE, (
        "baseline was generated for a different reference round; "
        "regenerate it"
    )


def test_round_within_committed_budget(baseline):
    """The regression gate: the reference round may not exceed the
    committed packed byte count by more than 5%."""
    size = reference_round_bytes()
    budget = baseline["packed_round_bytes"] * BUDGET_SLACK
    assert size <= budget, (
        f"reference round grew to {size}B, over the {budget:.0f}B budget "
        f"(packed baseline {baseline['packed_round_bytes']}B + 5%)"
    )


def test_u32_round_is_stable_against_baseline(baseline):
    """The frame layout is exact, not budgeted: any drift means every
    peer's frames changed."""
    assert reference_round_bytes() == baseline["u32_round_bytes"]


def main():
    with open(BASELINE_PATH) as fh:
        sizes = json.load(fh)
    sizes["u32_round_bytes"] = reference_round_bytes()
    with open(BASELINE_PATH, "w") as fh:
        json.dump(sizes, fh, indent=2)
        fh.write("\n")
    print(f"wrote {BASELINE_PATH}")
    print(
        f"u32={sizes['u32_round_bytes']}B "
        f"packed baseline={sizes['packed_round_bytes']}B"
    )


if __name__ == "__main__":
    main()

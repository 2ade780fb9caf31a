"""The offline pool at its ``<u4`` width, at the widest residues.

Pooled masks and coded shares are held as ``FIELD_WORD`` (``<u4``) and
widen only inside the online kernels' uint64 accumulators.  At
``q = 2**32 - 5`` every residue ``q - 1`` uses all 32 bits, so a round
or drain whose every pooled mask, coded share and update is ``q - 1``
is the worst case for each add: an accumulation that wrapped at 32 bits,
or a narrowing that dropped high bits, would show as a wrong aggregate.

The forced material is a valid pool entry, not just a width probe: with
the Lagrange generator the coded shares of an all-``c`` generator input
are all ``c`` (the basis polynomials sum to one), which
``test_forced_material_is_an_encoding`` checks.
"""

import numpy as np
import pytest

from repro.field import FIELD_WORD, PAPER_PRIME, FiniteField
from repro.protocols import EncryptedLightSecAgg, LightSecAgg, LSAParams

N, DIM, POOL = 8, 29, 2
DROPOUTS = {1, 5}
WEIGHTS = [3, 1, 4, 1, 5, 9, 2, 6]


@pytest.fixture
def gf32() -> FiniteField:
    return FiniteField(PAPER_PRIME)


def open_session(gf, protocol_cls, pool=POOL):
    params = LSAParams.from_guarantees(N, privacy=2, dropout_tolerance=2)
    proto = protocol_cls(gf, params, DIM)
    return proto.session(pool_size=pool, rng=np.random.default_rng(4))


def assert_pool_is_words(session, num_users=N):
    assert session.pool_level > 0
    for material in session._pool:
        assert material.masks.dtype == FIELD_WORD
        assert material.coded.dtype == FIELD_WORD
        assert material.masks.shape == (num_users, DIM)
        assert material.coded.shape[:2] == (num_users, num_users)


def force_widest(session):
    q = session.gf.q
    for material in session._pool:
        material.masks[...] = q - 1
        material.coded[...] = q - 1


def field_sum(q, weights, value):
    return sum(int(w) * value for w in weights) % q


PROTOCOLS = [LightSecAgg, EncryptedLightSecAgg]


class TestWidestResidues:
    def test_forced_material_is_an_encoding(self, gf32):
        session = open_session(gf32, LightSecAgg)
        q = gf32.q
        u = session.encoder.target_survivors
        data = np.full((u, 5), q - 1, dtype=np.uint64)
        assert (session.encoder.code.encode(data) == q - 1).all()

    @pytest.mark.parametrize("protocol_cls", PROTOCOLS)
    def test_round_with_dropouts_is_the_plain_sum(self, gf32, protocol_cls):
        q = gf32.q
        session = open_session(gf32, protocol_cls)
        assert session.refill() == POOL
        assert_pool_is_words(session)
        force_widest(session)
        updates = {i: np.full(DIM, q - 1, dtype=np.uint64) for i in range(N)}
        result = session.run_round(updates, DROPOUTS)
        survivors = [i for i in range(N) if i not in DROPOUTS]
        assert result.survivors == survivors
        want = field_sum(q, [1] * len(survivors), q - 1)
        assert result.aggregate.tolist() == [want] * DIM
        assert session.stats.pool_hits == 1

    @pytest.mark.parametrize("protocol_cls", PROTOCOLS)
    def test_weighted_drain_is_the_plain_sum(self, gf32, protocol_cls):
        q = gf32.q
        session = open_session(gf32, protocol_cls)
        session.refill()
        force_widest(session)
        rows = np.full((len(WEIGHTS), DIM), q - 1, dtype=np.uint64)
        result = session.drain(WEIGHTS, rows, recovery_dropouts={0, 3})
        assert result.aggregate.tolist() == [field_sum(q, WEIGHTS, q - 1)] * DIM
        # The unit-weight kernel at full width, on the pool's last round.
        unit = [1, 0, 1, 1, 1, 0, 1, 1]
        result = session.drain(unit, rows, recovery_dropouts={6})
        assert result.aggregate.tolist() == [field_sum(q, unit, q - 1)] * DIM
        assert session.pool_level == 0


class TestPoolStaysAtWordWidth:
    @pytest.mark.parametrize("protocol_cls", PROTOCOLS)
    def test_miss_driven_inline_refill(self, gf32, protocol_cls):
        session = open_session(gf32, protocol_cls)
        rng = np.random.default_rng(8)
        updates = {i: gf32.random(DIM, rng) for i in range(N)}
        result = session.run_round(updates, DROPOUTS)  # empty pool: a miss
        assert session.stats.pool_misses == 1
        assert_pool_is_words(session)
        survivors = [i for i in range(N) if i not in DROPOUTS]
        want = gf32.sum(np.stack([updates[i] for i in survivors]), axis=0)
        assert np.array_equal(result.aggregate, want)

    def test_rekey_then_refill(self, gf32):
        session = open_session(gf32, LightSecAgg)
        session.refill()
        assert session.rekey(N + 1) == POOL
        assert session.refill() == POOL
        assert_pool_is_words(session, num_users=N + 1)
        force_widest(session)
        q = gf32.q
        updates = {i: np.full(DIM, q - 1, dtype=np.uint64) for i in range(N + 1)}
        result = session.run_round(updates, {2})
        assert result.aggregate.tolist() == [field_sum(q, [1] * N, q - 1)] * DIM

"""The offline pool's slab: a spent round's slot is reused, never early.

A :class:`LightSecAggSession` keeps its pooled material in one slab of
``pool_size`` round slots.  A round holds its slot from the pop until
the kernel that reads it returns; a refill writes only into slots that
are neither pooled nor held.  These tests refill, raise and re-key while
a slot is held and check that the held material is never written over
and the round is still the plain field sum.
"""

import dataclasses
import time
from unittest import mock

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.field import FiniteField
from repro.protocols import LightSecAgg, LSAParams

N, DIM, POOL = 8, 29, 4
DROPOUTS = {1, 5}
WEIGHTS = [3, 1, 4, 1, 5, 9, 2, 6]


def open_session(gf, pool=POOL):
    params = LSAParams.from_guarantees(N, privacy=2, dropout_tolerance=2)
    proto = LightSecAgg(gf, params, DIM)
    return proto, proto.session(pool_size=pool, rng=np.random.default_rng(3))


def round_inputs(gf, seed=0):
    rng = np.random.default_rng(seed)
    return {i: gf.random(DIM, rng) for i in range(N)}


def plain_round(proto, updates, dropouts=DROPOUTS):
    survivors = [i for i in range(N) if i not in dropouts]
    return proto.expected_aggregate(updates, survivors)


def weighted_sum(gf, weights, rows):
    acc = [0] * DIM
    for w, row in zip(weights, rows):
        acc = [(a + w * int(x)) % gf.q for a, x in zip(acc, row)]
    return acc


def slab_addresses(session):
    return tuple(a.__array_interface__["data"][0] for a in session._slab)


class TestRefillMidKernel:
    def test_round_refill_never_writes_the_held_slot(self, gf):
        proto, session = open_session(gf)
        updates = round_inputs(gf)
        session.refill()
        session.run_round(updates, DROPOUTS)  # one slot free, one pooled less
        real = session._unit_sums
        seen = []

        def kernel(rows, material, picks, responders):
            # The kernel has read the masks; the shares are read after a
            # refill lands, as a background refiller could interleave.
            masks = material.masks.copy()
            coded = material.coded.copy()
            level = session.pool_level
            seen.append((level, session.refill()))
            assert session._held == {material.slot}
            for pooled in session._pool:
                assert not np.shares_memory(pooled.masks, material.masks)
                assert not np.shares_memory(pooled.coded, material.coded)
            assert np.array_equal(material.coded, coded)
            read = dataclasses.replace(material, masks=masks)
            return real(rows, read, picks, responders)

        with mock.patch.object(session, "_unit_sums", kernel):
            result = session.run_round(updates, DROPOUTS)
        assert np.array_equal(result.aggregate, plain_round(proto, updates))
        [(level, added)] = seen
        assert added == POOL - level - 1
        assert session.pool_level == POOL - 1 and session._held == set()
        assert session.refill() == 1  # the spent slot came back

    def test_weighted_drain_refill_never_writes_the_held_slot(self, gf):
        proto, session = open_session(gf)
        rows = np.stack(list(round_inputs(gf, seed=1).values()))
        session.refill()
        session.drain(WEIGHTS, rows, {2})
        real_take, real_matmul = session._take_material, FiniteField.matmul
        taken, seen = [], []

        def take():
            taken.append(real_take())
            return taken[-1]

        def matmul(field, a, b, *args, **kwargs):
            # The first product is the masked sum; the coded rows are
            # read by the second, after the refill has landed.
            if taken and not seen:
                material = taken[0]
                coded = material.coded.copy()
                seen.append(session.pool_level)
                seen.append(session.refill())  # its encode re-enters here
                assert session._held == {material.slot}
                for pooled in session._pool:
                    assert not np.shares_memory(pooled.coded, material.coded)
                assert np.array_equal(material.coded, coded)
            return real_matmul(field, a, b, *args, **kwargs)

        with mock.patch.object(session, "_take_material", take), \
                mock.patch.object(FiniteField, "matmul", matmul):
            result = session.drain(WEIGHTS, rows, {2})
        assert result.aggregate.tolist() == weighted_sum(gf, WEIGHTS, rows)
        [level, added] = seen
        assert added == POOL - level - 1
        assert session._held == set()


class TestRaisingKernel:
    def test_raising_kernel_returns_its_slot(self, gf):
        proto, session = open_session(gf)
        updates = round_inputs(gf)
        session.refill()
        seen = []

        def kernel(rows, material, picks, responders):
            seen.append((session.pool_level, session.refill()))
            raise RuntimeError("kernel failed")

        with mock.patch.object(session, "_unit_sums", kernel):
            with pytest.raises(RuntimeError, match="kernel failed"):
                session.run_round(updates, DROPOUTS)
        assert seen == [(POOL - 1, 0)]  # the held slot is not free
        assert session._held == set()
        assert session.refill() == 1
        assert session.pool_level == POOL
        result = session.run_round(updates, DROPOUTS)
        assert np.array_equal(result.aggregate, plain_round(proto, updates))

    def test_miss_with_every_slot_held_is_refused(self, gf):
        proto, session = open_session(gf, pool=1)
        updates = round_inputs(gf)
        real = session._unit_sums
        inner = []

        def kernel(rows, material, picks, responders):
            # A second round while the only slot is held: its miss
            # refills nothing and must be a typed error, never a spin.
            with pytest.raises(ProtocolError, match="no free slot"):
                session.run_round(updates, DROPOUTS)
            inner.append(True)
            return real(rows, material, picks, responders)

        with mock.patch.object(session, "_unit_sums", kernel):
            result = session.run_round(updates, DROPOUTS)
        assert inner == [True]
        assert np.array_equal(result.aggregate, plain_round(proto, updates))
        assert session.refill() == 1


class TestRekeyWhileHeld:
    def test_old_slot_is_not_released_into_the_new_slab(self, gf):
        proto, session = open_session(gf)
        updates = round_inputs(gf)
        session.refill()
        real = session._unit_sums
        newer = []

        def kernel(rows, material, picks, responders):
            old_slab = session._slab
            assert session.rekey(N) == POOL - 1
            assert session.refill() == POOL
            assert session._slab is not old_slab
            # A round of the new slab holds the slot index the old round
            # holds in the old one.
            newer.append(session._take_material())
            assert newer[0].slot == material.slot
            return real(rows, material, picks, responders)

        with mock.patch.object(session, "_unit_sums", kernel):
            result = session.run_round(updates, DROPOUTS)
        assert np.array_equal(result.aggregate, plain_round(proto, updates))
        [held] = newer
        masks, coded = held.masks.copy(), held.coded.copy()
        assert session._held == {held.slot}
        assert session.refill() == 0  # P - 1 pooled, one held: no free slot
        assert np.array_equal(held.masks, masks)
        assert np.array_equal(held.coded, coded)
        session._release(held)
        assert session.refill() == 1


class TestSteadySlab:
    def test_fifty_cycles_reuse_one_buffer(self, gf):
        """Each cycle spends 1..P rounds; the last one's kernel refills
        mid-round, as a background refiller does, so every refill but
        the first wraps around a held slot."""
        proto, session = open_session(gf)
        updates = round_inputs(gf)
        want = plain_round(proto, updates)
        session.refill()
        addresses = slab_addresses(session)
        real = session._unit_sums
        added = []

        def kernel(rows, material, picks, responders):
            added.append(session.refill())
            return real(rows, material, picks, responders)

        spends = np.random.default_rng(5).integers(1, POOL + 1, size=50)
        for spend in spends:
            for _ in range(spend - 1):
                result = session.run_round(updates, DROPOUTS)
                assert np.array_equal(result.aggregate, want)
            with mock.patch.object(session, "_unit_sums", kernel):
                result = session.run_round(updates, DROPOUTS)
            assert np.array_equal(result.aggregate, want)
            assert added.pop() == spend - 1
            assert session.refill() == 1
            assert session.pool_level == POOL
            assert slab_addresses(session) == addresses
            assert sorted(m.slot for m in session._pool) == list(range(POOL))
        assert session.stats.pool_misses == 0

    def test_refill_adds_at_most_the_free_slots(self, gf):
        _, session = open_session(gf)
        assert session.refill(POOL + 3) == POOL
        assert session.refill(1) == 0

    def test_rekey_and_close_drop_the_slab(self, gf):
        _, session = open_session(gf)
        session.refill()
        session.rekey(N + 2)
        assert session._slab is None
        assert session.refill() == POOL
        assert session._slab[0].shape == (POOL, N + 2, DIM)
        session.close()
        assert session._slab is None and session.pool_level == 0


class TestBackgroundTopUp:
    def test_low_water_waits_for_the_held_slot(self, gf):
        params = LSAParams.from_guarantees(N, privacy=2, dropout_tolerance=2)
        proto = LightSecAgg(gf, params, DIM)
        session = proto.session(
            pool_size=POOL, rng=np.random.default_rng(3), low_water=2
        )
        updates = round_inputs(gf)
        session.refill()
        session.run_round(updates, DROPOUTS)
        real = session._unit_sums
        seen = []

        def kernel(rows, material, picks, responders):
            seen.append((session.pool_level, session.needs_refill))
            return real(rows, material, picks, responders)

        with mock.patch.object(session, "_unit_sums", kernel):
            session.run_round(updates, DROPOUTS)
        assert seen == [(2, False)]  # at low water, but a slot is held
        assert session.needs_refill
        assert session.refill() == POOL - 2

    def test_cohort_shards_keep_one_refill_cadence(self, gf):
        """Every background top-up of every shard reaches ``pool_size``,
        even when the refiller polls while a shard's kernel holds its
        slot: no shard falls a round behind the others."""
        from repro.service import AggregationService, RefillMode, ServiceConfig

        cfg = ServiceConfig(
            num_users=N, privacy=2, dropout_tolerance=2, model_dim=4 * DIM,
            num_shards=4, pool_size=8, low_water=2, seed=0,
            refill_mode=RefillMode.BACKGROUND,
        )
        rng = np.random.default_rng(1)
        updates = {i: gf.random(4 * DIM, rng) for i in range(N)}
        with AggregationService(cfg, gf=gf) as svc:
            cohort = svc.cohorts[0]
            shards = cohort.session.shard_sessions
            for shard in shards:
                real = shard._unit_sums

                def slow(*args, _real=real):
                    time.sleep(0.004)  # several refiller polls
                    return _real(*args)

                shard._unit_sums = slow
            assert svc.refiller.wait_until_idle(timeout=30.0)
            refills, rounds = svc.refiller.refills, svc.refiller.rounds_refilled
            for _ in range(18):
                cohort.run_round(updates, {1})
                assert svc.refiller.wait_until_idle(timeout=30.0)
                assert len({shard.pool_level for shard in shards}) == 1
            added = svc.refiller.rounds_refilled - rounds
            assert svc.refiller.refills - refills == 3 * len(shards)
            assert added == 3 * len(shards) * (8 - 2)

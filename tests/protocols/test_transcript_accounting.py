"""Cross-layer consistency: measured transcripts vs Table-1 formulas.

The systems model (`repro.simulation.costmodel`) charges analytic element
counts; the protocols record what actually crossed the network.  For the
``d``-sized rows the two must agree *exactly* at any scale (up to the
documented padding ceil) — these tests pin that correspondence, so the
timing results are provably grounded in the implementation's real traffic.
"""

import numpy as np
import pytest

from repro.field import FiniteField
from repro.protocols import LightSecAgg, LSAParams, SecAgg, SecAggPlus
from repro.protocols.base import SERVER
from repro.testing import make_random_updates


class TestLightSecAggTraffic:
    @pytest.mark.parametrize("n,t,u,dim", [(8, 2, 6, 48), (10, 3, 7, 100)])
    def test_offline_elements_exact(self, gf, rng, n, t, u, dim):
        params = LSAParams(n, t, n - u, u)
        proto = LightSecAgg(gf, params, dim)
        updates = make_random_updates(gf, n, dim, rng)
        result = proto.run_round(updates, set(), rng)
        share_dim = -(-dim // (u - t))
        # Formula: each user sends (N-1) shares of d/(U-T); total N(N-1).
        assert result.transcript.elements(phase="offline") == (
            n * (n - 1) * share_dim
        )
        # Per-user view matches the Table-1 "offline comm (U)" row.
        assert all(
            result.transcript.elements(phase="offline", sender=i)
            == (n - 1) * share_dim
            for i in range(n)
        )

    def test_online_comm_server_row(self, gf, rng):
        """Server receives N*d masked models + U*(d/(U-T)) recovery shares."""
        n, t, u, dim = 8, 2, 6, 48
        params = LSAParams(n, t, n - u, u)
        proto = LightSecAgg(gf, params, dim)
        updates = make_random_updates(gf, n, dim, rng)
        result = proto.run_round(updates, {1}, rng)
        share_dim = dim // (u - t)
        to_server = result.transcript.elements(receiver=SERVER)
        assert to_server == n * dim + u * share_dim


class TestSecAggTraffic:
    def test_upload_row(self, gf, rng):
        n, dim = 6, 64
        proto = SecAgg(gf, n, dim)
        updates = make_random_updates(gf, n, dim, rng)
        result = proto.run_round(updates, set(), rng)
        # Online comm (U): exactly d model elements per user.
        assert result.transcript.elements(phase="upload") == n * dim

    def test_offline_scales_with_n_squared(self, gf, rng):
        """SecAgg offline traffic (key-sized) grows ~N^2 in total."""
        def offline_total(n):
            proto = SecAgg(gf, n, 16)
            updates = make_random_updates(gf, n, 16, rng)
            result = proto.run_round(updates, set(), rng)
            return result.transcript.elements(phase="offline")

        t6, t12 = offline_total(6), offline_total(12)
        # Shamir share traffic dominates: ~N(N-1) pairs -> ratio ~4.4.
        assert 3.0 < t12 / t6 < 5.0

    def test_secagg_plus_offline_scales_with_degree(self, gf, rng):
        n, dim = 16, 16
        updates = make_random_updates(gf, n, dim, rng)

        def offline_for_degree(k):
            proto = SecAggPlus(gf, n, dim, degree=k, graph_seed=0)
            return proto.run_round(updates, set(), rng).transcript.elements(
                phase="offline", key_sized=True
            )

        t4, t8 = offline_for_degree(4), offline_for_degree(8)
        # Share traffic doubles with degree (key relay adds a small extra).
        assert 1.5 < t8 / t4 < 2.5


class TestRecoveryComparison:
    def test_traffic_flat_but_secagg_compute_grows(self, gf, rng):
        """The precise Sec.-3-vs-4 contrast: *both* protocols keep recovery
        traffic flat in the number of drops (SecAgg swaps same-sized b- and
        sk-shares), but SecAgg's server-side PRG *computation* grows with
        each drop while LightSecAgg's decode work is exactly constant."""
        n, dim = 10, 40
        params = LSAParams.from_guarantees(n, 2, 3)
        lsa = LightSecAgg(gf, params, dim)
        sa = SecAgg(gf, n, dim, shamir_threshold=2)
        updates = make_random_updates(gf, n, dim, rng)

        lsa_traffic, lsa_work, sa_work = [], [], []
        for drops in (set(), {0}, {0, 1}, {0, 1, 2}):
            r_lsa = lsa.run_round(updates, drops, rng)
            r_sa = sa.run_round(updates, drops, rng)
            lsa_traffic.append(
                r_lsa.transcript.elements(phase="recovery")
            )
            lsa_work.append(r_lsa.metrics.server_decode_ops)
            sa_work.append(r_sa.metrics.server_prg_elements)
        assert len(set(lsa_traffic)) == 1
        assert len(set(lsa_work)) == 1
        # SecAgg: survivors' b expansions shrink by d per drop but the
        # dropped users' pairwise expansions add (N-1-drops)*d — net growth.
        assert sa_work == sorted(sa_work) and sa_work[0] < sa_work[-1]

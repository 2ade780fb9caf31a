"""Measured storage accounting: real protocol objects vs Table 1/5 formulas.

The complexity table's offline-storage row is ``(1 + N/(U-T)) d`` for
LightSecAgg and ``d + N s`` for SecAgg.  These tests count the actual
field elements held by user objects after the offline phase and check the
formulas (exactly, up to the documented padding ceil).
"""

import numpy as np
import pytest

from repro.coding.partition import piece_length
from repro.field import FiniteField
from repro.protocols import LSAParams
from repro.protocols.lightsecagg.user import LSAUser
from repro.protocols.pairwise.graph import complete_graph
from repro.protocols.pairwise.user import SEED_BITS, PairwiseUser
from repro.utils.ints import limbs_needed


class TestLSAStorage:
    @pytest.mark.parametrize("n,t,d_tol,dim", [(6, 2, 2, 24), (8, 3, 2, 100)])
    def test_held_elements_match_formula(self, gf, rng, n, t, d_tol, dim):
        params = LSAParams.from_guarantees(n, t, d_tol)
        users = [LSAUser(i, gf, params, dim) for i in range(n)]
        for user in users:
            shares = user.offline_encode(rng)
            for j, share in shares.items():
                users[j].receive_share(user.user_id, share)

        share_dim = piece_length(dim, params.num_submasks)
        for user in users:
            held = sum(v.size for v in user._received_shares.values())
            own_mask = user.mask.size
            # (1 + N/(U-T)) d, with the padding ceil on each share.
            assert held == n * share_dim
            assert own_mask == dim
            assert held + own_mask == dim + n * share_dim

    def test_storage_grows_as_u_minus_t_shrinks(self, gf, rng):
        """Smaller U-T means bigger coded shares — the p=0.5 penalty."""
        dim = 120
        wide = LSAParams(10, 2, 2, 8)  # U-T = 6
        narrow = LSAParams(10, 2, 2, 3)  # U-T = 1
        u_wide = LSAUser(0, gf, wide, dim)
        u_narrow = LSAUser(0, gf, narrow, dim)
        assert u_narrow.encoder.share_dim > u_wide.encoder.share_dim
        assert u_narrow.encoder.share_dim == dim  # U-T=1: full-size shares


class TestSecAggStorage:
    def test_share_storage_is_key_sized(self, gf, rng):
        """SecAgg users store only seed/key shares — O(N s), not O(N d)."""
        n, dim = 5, 1000
        users = [
            PairwiseUser(
                i, gf, n, [j for j in range(n) if j != i], dim,
                shamir_threshold=1,
            )
            for i in range(n)
        ]
        publics = {u.user_id: u.generate_keys(rng) for u in users}
        for u in users:
            u.agree_pairwise(publics)
        for u in users:
            shares = u.share_secrets(rng)
            for j, payload in shares.items():
                users[j].receive_shares(u.user_id, payload)

        seed_limbs = limbs_needed(SEED_BITS, gf.q)
        sk_limbs = limbs_needed(users[0].dh.prime.bit_length(), gf.q)
        for u in users:
            stored = sum(
                kinds["b"].y.size + kinds["sk"].y.size
                for kinds in u._received_shares.values()
            )
            # One (b, sk) share pair per neighbor, each key-sized.
            assert stored == (n - 1) * (seed_limbs + sk_limbs)
            assert stored < dim  # strictly below one model's worth

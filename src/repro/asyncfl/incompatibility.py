"""Demonstration of Remark 1 / Appendix F.2: pairwise masking breaks in
asynchronous FL.

SecAgg's correctness rests on every pair of users agreeing on the *same*
per-round seed ``a_{i,j}^{(t)}`` so that ``+PRG(a)`` and ``-PRG(a)``
cancel in the server's sum.  In buffered-asynchronous FL the updates
aggregated together were downloaded at different rounds ``t_i != t_j``, so
user *i* applies ``PRG(a^{(t_i)})`` while user *j* applies
``PRG(a^{(t_j)})`` — nothing cancels and the aggregate is corrupted by a
full-magnitude residue.

This module computes that residue explicitly.  It exists to make the
paper's impossibility argument executable: tests assert the residue is
zero exactly when all timestamps agree, and uniformly large otherwise —
while asynchronous LightSecAgg recovers the exact sum in the same setting
(see :mod:`repro.asyncfl.secure_aggregator`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.crypto.prg import PRG, seed_from_bytes
from repro.exceptions import ProtocolError
from repro.field.arithmetic import FiniteField


@dataclass(frozen=True)
class AsyncPairwiseOutcome:
    """Result of attempting pairwise-masked aggregation with stale users."""

    aggregate_with_masks: np.ndarray  # what the server would compute
    true_aggregate: np.ndarray  # what it should have computed
    residue: np.ndarray  # the uncancelled mask noise

    @property
    def is_corrupted(self) -> bool:
        return bool(np.any(self.residue != 0))


def round_seed(base_seed: int, i: int, j: int, round_index: int) -> int:
    """The per-round pairwise seed ``a_{i,j}^{(t)}``.

    Derived from the pair's long-term DH secret (modelled by ``base_seed``)
    and the round index, as deployed SecAgg implementations do to get
    per-round mask freshness.  Symmetric in (i, j).
    """
    lo, hi = (i, j) if i < j else (j, i)
    payload = f"{base_seed}:{lo}:{hi}:{round_index}".encode()
    return seed_from_bytes(payload)


def pairwise_masked_upload(
    gf: FiniteField,
    prg: PRG,
    user: int,
    num_users: int,
    update: np.ndarray,
    download_round: int,
    base_seed: int,
) -> np.ndarray:
    """User's SecAgg-style upload using *its own* round's pairwise seeds.

    Self-masks ``b_i`` are omitted (they are reconstructable and cancel in
    both settings); the pairwise terms are the ones whose cancellation
    asynchrony breaks.
    """
    update = gf.array(update)
    masked = update.copy()
    d = update.shape[0]
    for peer in range(num_users):
        if peer == user:
            continue
        seed = round_seed(base_seed, user, peer, download_round)
        mask = prg.expand(seed, d)
        if user < peer:
            masked = gf.add(masked, mask)
        else:
            masked = gf.sub(masked, mask)
    return masked


def attempt_async_pairwise_aggregation(
    gf: FiniteField,
    updates: Sequence[np.ndarray],
    download_rounds: Sequence[int],
    base_seed: int = 0,
    prg_backend: str = "pcg64",
) -> AsyncPairwiseOutcome:
    """Aggregate pairwise-masked uploads whose seeds come from the users'
    own (possibly different) download rounds.

    Models the buffered-async server of Appendix F.2: every buffered user
    is present (no dropouts), so in synchronous SecAgg all pairwise terms
    would cancel.  With mixed ``download_rounds`` they do not.
    """
    n = len(updates)
    if n < 2 or len(download_rounds) != n:
        raise ProtocolError("need >= 2 updates with one download round each")
    prg = PRG(gf, backend=prg_backend)
    dims = {np.asarray(u).shape for u in updates}
    if len(dims) != 1:
        raise ProtocolError("updates must share a shape")

    total_masked = gf.zeros(updates[0].shape[0])
    total_true = gf.zeros(updates[0].shape[0])
    for i in range(n):
        masked = pairwise_masked_upload(
            gf, prg, i, n, updates[i], download_rounds[i], base_seed
        )
        total_masked = gf.add(total_masked, masked)
        total_true = gf.add(total_true, updates[i])
    residue = gf.sub(total_masked, total_true)
    return AsyncPairwiseOutcome(
        aggregate_with_masks=total_masked,
        true_aggregate=total_true,
        residue=residue,
    )


def residue_matrix(
    gf: FiniteField,
    num_users: int,
    download_rounds: Sequence[int],
    dim: int,
    base_seed: int = 0,
) -> List[Tuple[int, int, bool]]:
    """Per-pair cancellation report: ``(i, j, cancelled)``.

    A pair cancels iff both endpoints used the same round's seed.  Useful
    for diagnosing which buffered combinations corrupt the sum.
    """
    prg = PRG(gf)
    out: List[Tuple[int, int, bool]] = []
    for i in range(num_users):
        for j in range(i + 1, num_users):
            si = round_seed(base_seed, i, j, download_rounds[i])
            sj = round_seed(base_seed, i, j, download_rounds[j])
            cancelled = np.array_equal(prg.expand(si, dim), prg.expand(sj, dim))
            out.append((i, j, cancelled))
    return out

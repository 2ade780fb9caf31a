"""Protocol-layer abstractions shared by all secure-aggregation schemes.

Every protocol implements :class:`SecureAggregationProtocol.run_round`:
given per-user model updates already embedded in GF(q) and a set of dropped
users, produce the exact field-sum of the surviving users' updates.  The
run also fills a :class:`Transcript` with every message that crossed the
(simulated) network, which downstream systems-simulation converts into
bytes and wall-clock time.

Phases follow the paper's terminology:

* ``offline`` — seed agreement / mask encoding and sharing.
* ``upload`` — masked model upload.
* ``recovery`` — mask reconstruction traffic and server decoding.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.exceptions import DropoutError, ProtocolError
from repro.field.arithmetic import FiniteField

SERVER = -1  # sentinel participant id for the server

PHASES = ("offline", "upload", "recovery")


@dataclass(frozen=True)
class Message:
    """One network message: ``sender -> receiver`` of ``size`` field elements.

    ``size`` counts GF(q) elements for mask/model payloads; small key-sized
    payloads (DH public keys, Shamir shares of seeds) are recorded with
    their element count as well, flagged by ``is_key_sized`` so the cost
    model can weigh them by the seed length ``s`` instead of full field
    width (Table 1 distinguishes ``s``-sized from ``d``-sized traffic).
    """

    sender: int
    receiver: int
    phase: str
    size: int
    is_key_sized: bool = False


class Transcript:
    """Accumulates all messages of a protocol round, queryable per phase."""

    def __init__(self):
        self.messages: List[Message] = []

    def record(
        self,
        sender: int,
        receiver: int,
        phase: str,
        size: int,
        is_key_sized: bool = False,
    ) -> None:
        if phase not in PHASES:
            raise ProtocolError(f"unknown phase {phase!r}")
        if size < 0:
            raise ProtocolError("message size must be non-negative")
        self.messages.append(Message(sender, receiver, phase, size, is_key_sized))

    # ------------------------------------------------------------------
    # aggregate views used by the timing simulator and tests
    # ------------------------------------------------------------------
    def elements(
        self,
        phase: Optional[str] = None,
        sender: Optional[int] = None,
        receiver: Optional[int] = None,
        key_sized: Optional[bool] = None,
    ) -> int:
        """Total field elements matching the given filters."""
        total = 0
        for m in self.messages:
            if phase is not None and m.phase != phase:
                continue
            if sender is not None and m.sender != sender:
                continue
            if receiver is not None and m.receiver != receiver:
                continue
            if key_sized is not None and m.is_key_sized != key_sized:
                continue
            total += m.size
        return total

    def __len__(self) -> int:
        return len(self.messages)


@dataclass
class RoundMetrics:
    """Operation counts a protocol reports for the systems cost model."""

    server_decode_ops: int = 0  # field ops in server-side mask recovery
    server_prg_elements: int = 0  # PRG output elements evaluated at server
    user_encode_ops: int = 0  # per-round total offline field ops at users
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class AggregationResult:
    """Outcome of one secure-aggregation round."""

    aggregate: np.ndarray  # field vector: sum of surviving users' updates
    survivors: List[int]
    transcript: Transcript
    metrics: RoundMetrics
    #: The server round a service cohort's seal advanced it to (the
    #: drain reply's ``"round"``); None outside a cohort.
    server_round: Optional[int] = None


DEFAULT_POOL_ROUNDS = 4


@dataclass
class SessionStats:
    """Bookkeeping a :class:`ProtocolSession` accumulates across rounds.

    ``pool_hits`` counts online rounds served from precomputed offline
    material; ``pool_misses`` counts rounds that had to (re)compute the
    offline phase inline.  ``refill_seconds`` is the wall-clock time spent
    in :meth:`ProtocolSession.refill` — the cost a deployment would push
    off the online path entirely.
    """

    rounds: int = 0
    refills: int = 0
    pool_hits: int = 0
    pool_misses: int = 0
    precomputed_rounds: int = 0
    refill_seconds: float = 0.0


class ProtocolSession:
    """Stateful multi-round secure-aggregation session.

    A session keeps participants (and any precomputable offline material)
    alive across rounds, so the per-round online path pays only masking,
    upload, and recovery.  This generic base class is the universal
    *per-round-replay* fallback: it simply re-runs the wrapped protocol's
    one-shot :meth:`SecureAggregationProtocol.run_round` each round, which
    makes every protocol session-drivable (``pool_level`` stays 0 and every
    round is a pool miss).  Protocols with a genuinely precomputable
    offline phase override :meth:`SecureAggregationProtocol.session` to
    return a specialised subclass — see
    :class:`repro.protocols.lightsecagg.session.LightSecAggSession`.

    Sessions are also context managers::

        with protocol.session(pool_size=8, rng=rng) as sess:
            for _ in range(rounds):
                result = sess.run_round(updates, dropouts)
    """

    def __init__(
        self,
        protocol: "SecureAggregationProtocol",
        pool_size: int = DEFAULT_POOL_ROUNDS,
        rng: Optional[np.random.Generator] = None,
        low_water: int = 0,
    ):
        if pool_size < 1:
            raise ProtocolError(f"pool_size must be >= 1, got {pool_size}")
        if not 0 <= low_water < pool_size:
            raise ProtocolError(
                f"low_water must be in [0, pool_size), got low_water="
                f"{low_water} with pool_size={pool_size}"
            )
        self.protocol = protocol
        self.pool_size = int(pool_size)
        self.low_water = int(low_water)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.stats = SessionStats()
        self._closed = False
        # Concurrency contract: one consumer thread drives ``run_round``
        # while at most one refiller thread tops the pool up.  ``_pool_lock``
        # guards pool membership and the hit/miss counters; ``_refill_lock``
        # serializes whole refills so the offline ``rng`` stream is only
        # ever drawn from by one thread at a time.
        self._pool_lock = threading.RLock()
        self._refill_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def gf(self) -> FiniteField:
        return self.protocol.gf

    @property
    def num_users(self) -> int:
        return self.protocol.num_users

    @property
    def pool_level(self) -> int:
        """Rounds of offline material currently precomputed (0 = none)."""
        return 0

    @property
    def supports_pool(self) -> bool:
        """True when this session has a precomputable offline pool.

        The replay fallback recomputes the offline phase inside every
        round, so there is nothing a background refiller could top up.
        """
        return False

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def needs_refill(self) -> bool:
        """True when the pool has drained to the low-water mark.

        This is the trigger a background refiller polls: once the pool
        level is at or below ``low_water`` (and below ``pool_size``), a
        refill should run off the online path so upcoming rounds never
        block on mask encoding.
        """
        if not self.supports_pool or self._closed:
            return False
        level = self.pool_level
        return level < self.pool_size and level <= self.low_water

    def offline_elements(self) -> int:
        """Total field elements of *amortized* offline traffic so far.

        Pooled sessions move share-exchange traffic out of per-round
        transcripts and into refills; this accessor exposes the cumulative
        total so drivers can attribute refill traffic to the round that
        triggered it.  The replay fallback amortizes nothing (its offline
        traffic stays in each round's transcript) and returns 0.
        """
        return 0

    def refill(self, rounds: Optional[int] = None) -> int:
        """Precompute offline material for up to ``rounds`` future rounds.

        Returns the number of rounds actually added.  The replay fallback
        has nothing to precompute and always returns 0.
        """
        self._require_open()
        return 0

    def state_snapshot(self) -> Dict[str, object]:
        """Pickle-safe view of the session's pool state and counters.

        This is the state a shard transport ships across a process (or,
        later, network) boundary: plain ints/bools plus a
        :class:`SessionStats` value — no live protocol objects, locks, or
        rng streams.  Taken under the pool lock so a transport never
        observes a half-updated (level, stats) pair while a concurrent
        refill lands.
        """
        with self._pool_lock:
            return {
                "pool_level": self.pool_level,
                "pool_size": self.pool_size,
                "closed": self._closed,
                "stats": replace(self.stats),
            }

    # ------------------------------------------------------------------
    def run_round(
        self,
        updates: Dict[int, np.ndarray],
        dropouts: Set[int],
        rng: Optional[np.random.Generator] = None,
        **phase_kwargs,
    ) -> AggregationResult:
        """Run one online round of the session.

        Semantics match the wrapped protocol's one-shot ``run_round``:
        identical inputs produce the identical field-sum.  Extra keyword
        arguments (e.g. LightSecAgg's ``offline_dropouts``) are forwarded.
        """
        self._require_open()
        rng = rng if rng is not None else self.rng
        result = self.protocol.run_round(
            updates, set(dropouts), rng, **phase_kwargs
        )
        self.stats.rounds += 1
        self.stats.pool_misses += 1
        return result

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the session; further ``run_round`` calls raise."""
        self._closed = True

    def _require_open(self) -> None:
        if self._closed:
            raise ProtocolError("session is closed")

    def __enter__(self) -> "ProtocolSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.protocol.name}, "
            f"pool={self.pool_level}/{self.pool_size}, "
            f"rounds={self.stats.rounds})"
        )


class SecureAggregationProtocol(abc.ABC):
    """Interface for one-round secure aggregation over GF(q)."""

    name: str = "abstract"

    def __init__(self, gf: FiniteField, num_users: int):
        if num_users < 2:
            raise ProtocolError(f"need at least 2 users, got {num_users}")
        self.gf = gf
        self.num_users = num_users

    def session(
        self,
        pool_size: int = DEFAULT_POOL_ROUNDS,
        rng: Optional[np.random.Generator] = None,
        low_water: int = 0,
    ) -> ProtocolSession:
        """Open a stateful multi-round session over this protocol.

        The base implementation returns the generic replay
        :class:`ProtocolSession`; protocols with a precomputable offline
        phase override this to return a pooled session.  ``low_water`` is
        the pool level at which a refill should be triggered (used by
        background refillers; inline consumers refill on empty).
        """
        return ProtocolSession(self, pool_size=pool_size, rng=rng, low_water=low_water)

    @abc.abstractmethod
    def run_round(
        self,
        updates: Dict[int, np.ndarray],
        dropouts: Set[int],
        rng: Optional[np.random.Generator] = None,
    ) -> AggregationResult:
        """Aggregate the surviving users' updates.

        ``updates`` maps every user id in ``range(num_users)`` to its field
        vector.  ``dropouts`` are users that upload their masked model but
        then become unreachable (the paper's worst-case dropout point);
        their updates are excluded from the aggregate.
        """

    # ------------------------------------------------------------------
    def _validate_round_inputs(
        self, updates: Dict[int, np.ndarray], dropouts: Set[int]
    ) -> List[int]:
        check_round_ids(self.num_users, updates, dropouts)
        survivors = [i for i in range(self.num_users) if i not in dropouts]
        if not survivors:
            raise DropoutError("all users dropped; nothing to aggregate")
        dims = {np.asarray(u).shape for u in updates.values()}
        if len(dims) != 1:
            raise ProtocolError(f"inconsistent update shapes: {dims}")
        return survivors

    def expected_aggregate(
        self, updates: Dict[int, np.ndarray], survivors: Sequence[int]
    ) -> np.ndarray:
        """Ground-truth field sum, for verification in tests/examples."""
        total = self.gf.array(updates[survivors[0]]).copy()
        for i in survivors[1:]:
            total = self.gf.add(total, updates[i])
        return total


def check_round_ids(
    num_users: int, updates: Dict[int, np.ndarray], dropouts: Set[int]
) -> None:
    """Refuse a round whose updates are not keyed by exactly the user
    ids ``0..N-1``, or whose dropouts name an id outside them."""
    if set(updates) != set(range(num_users)):
        raise ProtocolError(
            "updates must contain exactly one entry per user id "
            f"0..{num_users - 1}"
        )
    bad = set(dropouts) - set(range(num_users))
    if bad:
        raise ProtocolError(f"dropout ids {sorted(bad)} out of range")


def sample_dropouts(
    num_users: int,
    dropout_rate: float,
    rng: Optional[np.random.Generator] = None,
) -> Set[int]:
    """Sample ``floor(p * N)`` distinct users to drop, as in Sec. 7.1."""
    if not 0.0 <= dropout_rate < 1.0:
        raise ProtocolError(f"dropout rate must be in [0, 1), got {dropout_rate}")
    rng = rng if rng is not None else np.random.default_rng()
    count = int(dropout_rate * num_users)
    if count == 0:
        return set()
    return set(rng.choice(num_users, size=count, replace=False).tolist())

"""Regression: ``Cohort.status()`` vs concurrent seals (torn snapshots).

A cohort's phase, server round, stall and drain counters live on its
:class:`~repro.service.engines.RoundEngine` under the engine's
``_lock``, and a seal commits all of them in one ``_lock`` section.  A
scrape racing a seal's completion must therefore never observe a torn
snapshot: the round counted while the phase still says
``aggregating``, or ``rounds`` bumped with its stall not yet recorded.

Pinned here two ways:

* deterministically — status() takes the engine lock (a scrape blocks
  while the lock is held), a seal's commit waits on the lock as one
  step, and CLOSED is terminal for the phase and its ring;
* statistically — scrape threads hammer status() during seals that
  *all* stall (a stub session whose pool is permanently empty), so
  every consistent snapshot satisfies ``stalls == rounds``; any torn
  read breaks the equality.  The buffered hammer also checks the phase
  against the buffer: ``idle`` only with an empty buffer, ``filling``
  only with a non-empty one.
"""

import sys
import threading
import time

import numpy as np

from repro.field import FiniteField
from repro.protocols.base import (
    AggregationResult,
    RoundMetrics,
    SessionStats,
    Transcript,
)
from repro.service.engines import RoundPhase

DIM = 4


class StubSession:
    """A pool-backed session whose pool is always empty: every seal
    stalls, giving the race test its invariant (stalls == rounds)."""

    num_users = 8
    model_dim = DIM
    gf = FiniteField()  # the buffered quantizer runs over it
    pool_level = 0
    pool_size = 3

    def __init__(self, gate=None):
        self.closed = False
        self.stats = SessionStats()
        self.gate = gate

    def drain(self, weights, rows, dropouts):
        if self.gate is not None:
            self.gate()
        return AggregationResult(
            aggregate=np.zeros(DIM, dtype=np.uint64),
            survivors=[i for i in range(self.num_users) if i not in dropouts],
            transcript=Transcript(),
            metrics=RoundMetrics(),
        )

    def close(self):
        self.closed = True


def gated_session():
    """A stub whose drain signals ``entered`` and waits for ``release``."""
    entered, release = threading.Event(), threading.Event()

    def gate():
        entered.set()
        assert release.wait(timeout=30.0)

    return StubSession(gate), entered, release


def drive_rounds(cohort, rounds, errors):
    updates = {i: np.zeros(DIM, dtype=np.uint64) for i in range(8)}
    try:
        for _ in range(rounds):
            cohort.run_round(dict(updates), set())
    except Exception as exc:  # pragma: no cover - failure reporting
        errors.append(exc)


def drive_submits(cohort, members, submits, errors):
    rng = np.random.default_rng(members[0])
    try:
        for i in range(submits):
            cohort.submit_update(
                members[i % len(members)], rng.normal(size=DIM)
            )
    except Exception as exc:  # pragma: no cover - failure reporting
        errors.append(exc)


def hammer(cohort, runners, check):
    """Run ``runners`` while four threads scrape status() through
    ``check``; returns the snapshots it rejected."""
    bad = []
    stop = threading.Event()

    def scrape():
        while not stop.is_set():
            snap = cohort.status()
            if not check(snap):
                bad.append(snap)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # provoke preemption inside races
    try:
        scrapers = [threading.Thread(target=scrape) for _ in range(4)]
        for t in scrapers:
            t.start()
        for t in runners:
            t.start()
        for t in runners:
            t.join(timeout=120.0)
        stop.set()
        for t in scrapers:
            t.join(timeout=10.0)
    finally:
        stop.set()
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in runners + scrapers)
    return bad


class TestStatusLocking:
    def test_status_blocks_while_engine_lock_held(self, cohort_over):
        """status() must serialize against seals: with the engine lock
        held, a scrape cannot return."""
        cohort = cohort_over(0, StubSession(), DIM)
        seen = []
        with cohort.engine._lock:
            scraper = threading.Thread(
                target=lambda: seen.append(cohort.status())
            )
            scraper.start()
            scraper.join(timeout=0.2)
            assert scraper.is_alive(), "status() did not take the lock"
            assert seen == []
        scraper.join(timeout=10.0)
        assert not scraper.is_alive()
        assert seen and seen[0]["phase"] == "idle"

    def test_seal_commit_is_atomic_under_the_lock(self, cohort_over):
        """A seal's server round, stall and phase advance commit as one
        step — holding the lock delays all of them, never splits them."""
        session, entered, release = gated_session()
        cohort = cohort_over(0, session, DIM)
        engine = cohort.engine
        errors = []
        runner = threading.Thread(
            target=drive_rounds, args=(cohort, 1, errors)
        )
        runner.start()
        assert entered.wait(timeout=30.0)
        with engine._lock:
            release.set()
            runner.join(timeout=0.2)
            assert runner.is_alive(), "the seal committed without the lock"
            # nothing moved while we hold the lock
            assert engine.server_round == 0 and engine.stalls == 0
            assert engine.phase is RoundPhase.AGGREGATING
        runner.join(timeout=10.0)
        assert not errors and not runner.is_alive()
        assert cohort.rounds == 1 and cohort.stalls == 1
        assert cohort.phase is RoundPhase.IDLE

    def test_seal_after_close_counts_and_stays_closed(self, cohort_over):
        session, entered, release = gated_session()
        cohort = cohort_over(0, session, DIM)
        errors = []
        runner = threading.Thread(
            target=drive_rounds, args=(cohort, 1, errors)
        )
        runner.start()
        assert entered.wait(timeout=30.0)
        cohort.close()
        release.set()
        runner.join(timeout=30.0)
        assert not errors and not runner.is_alive()
        status = cohort.status()
        assert status["rounds"] == status["stalls"] == 1
        assert status["phase"] == "closed"
        assert cohort.engine.transitions[-1].phase is RoundPhase.CLOSED

    def test_batch_sealed_behind_a_drain_waits_as_sealed(
        self, cohort_over
    ):
        """A batch that seals while drain A is inside its session call
        moves no phase: A settles to SEALED at the round the waiting
        batch seals at, never back through IDLE, and that batch then
        walks AGGREGATING -> IDLE like any other."""
        session, entered, release = gated_session()
        cohort = cohort_over(0, session, DIM, buffer_size=2)
        engine = cohort.engine
        errors = []
        first = threading.Thread(
            target=drive_submits, args=(cohort, [0, 1], 2, errors)
        )
        first.start()
        assert entered.wait(timeout=30.0)  # drain A is in flight
        cohort.submit_update(2, np.zeros(DIM))
        second = threading.Thread(
            target=drive_submits, args=(cohort, [3], 1, errors)
        )
        second.start()
        deadline = time.monotonic() + 30.0
        while cohort.status()["buffer_fill"]:  # until batch B seals
            assert time.monotonic() < deadline
            time.sleep(0.001)
        assert engine.phase is RoundPhase.AGGREGATING
        release.set()
        for t in (first, second):
            t.join(timeout=30.0)
            assert not t.is_alive()
        assert not errors
        ring = [(tr.phase.value, tr.round_index) for tr in engine.transitions]
        assert ring == [
            ("filling", 0), ("sealed", 0), ("aggregating", 0),
            ("sealed", 1), ("aggregating", 1), ("idle", 2),
        ]

    def test_set_phase_never_leaves_closed(self, cohort_over):
        engine = cohort_over(0, StubSession(), DIM).engine
        engine.close()
        ring = list(engine.transitions)
        with engine._lock:
            for phase in RoundPhase:
                engine._set_phase(phase, 0)
            engine._settle()
        assert engine.phase is RoundPhase.CLOSED
        assert list(engine.transitions) == ring
        assert ring[-1].phase is RoundPhase.CLOSED


class TestStatusHammer:
    def test_no_torn_snapshots_under_concurrent_scrapes(self, cohort_over):
        """Every status() snapshot taken during a storm of always-
        stalling rounds must satisfy stalls == rounds (every round
        stalls) — a torn commit would let rounds lead stalls by one."""
        cohort = cohort_over(0, StubSession(), DIM)
        rounds, errors = 400, []
        runner = threading.Thread(
            target=drive_rounds, args=(cohort, rounds, errors)
        )
        bad = hammer(
            cohort, [runner], lambda s: s["stalls"] == s["rounds"]
        )
        assert not errors
        assert not bad, f"torn snapshots observed: {bad[:3]}"
        final = cohort.status()
        assert final["rounds"] == rounds and final["stalls"] == rounds
        assert final["phase"] == "idle"

    def test_buffered_scrapes_see_consistent_phase_and_buffer(
        self, cohort_over
    ):
        """Submitters filling and sealing the buffer while a round
        runner seals too: every scrape counts each seal once in
        ``rounds`` and ``server_round``, with its stall, and names a
        phase its buffer agrees with."""
        cohort = cohort_over(0, StubSession(), DIM)
        capacity = cohort.engine.buffer_capacity
        submits, rounds, errors = 3 * capacity * 10, 40, []
        runners = [
            threading.Thread(
                target=drive_submits,
                args=(cohort, members, submits // 3, errors),
            )
            for members in ([0, 1, 2], [3, 4, 5], [6, 7])
        ]
        runners.append(
            threading.Thread(
                target=drive_rounds, args=(cohort, rounds, errors)
            )
        )

        def consistent(s):
            return (
                s["rounds"] == s["server_round"] == s["stalls"]
                and (s["phase"] != "idle" or s["buffer_fill"] == 0)
                and (s["phase"] != "filling" or s["buffer_fill"] > 0)
            )

        bad = hammer(cohort, runners, consistent)
        assert not errors
        assert not bad, f"inconsistent snapshots observed: {bad[:3]}"
        final = cohort.status()
        assert final["drains"] == submits // capacity
        assert final["rounds"] == rounds + final["drains"]
        assert final["phase"] == "idle" and final["buffer_fill"] == 0

    def test_scrapes_during_rounds_see_legal_phases_only(self, cohort_over):
        cohort = cohort_over(0, StubSession(), DIM)
        legal = {"idle", "sealed", "aggregating"}
        seen, errors = set(), []
        stop = threading.Event()

        def scrape():
            while not stop.is_set():
                seen.add(cohort.status()["phase"])

        scraper = threading.Thread(target=scrape)
        scraper.start()
        runner = threading.Thread(
            target=drive_rounds, args=(cohort, 200, errors)
        )
        runner.start()
        runner.join(timeout=120.0)
        stop.set()
        scraper.join(timeout=10.0)
        assert not errors
        assert not runner.is_alive() and not scraper.is_alive()
        assert seen <= legal
        cohort.close()
        assert cohort.status()["phase"] == "closed"

"""Regression: ``Cohort.status()`` vs concurrent rounds (torn snapshots).

The pre-fix ``run_round`` incremented ``rounds``/``stalls`` and advanced
the phase machine *outside* ``_phase_lock``, so a status() scrape racing
a round's completion could observe a torn snapshot: the round counted
while the phase still said ``aggregating``, or ``rounds`` bumped with a
stall not yet recorded.  ``status()`` also read the fields lock-free.

Pinned here two ways:

* deterministically — status() must actually take the phase lock (a
  scrape blocks while the lock is held), and ``_complete_round`` commits
  counters + phase as one atomic step;
* statistically — scrape threads hammer status() during rounds that
  *all* stall (a stub session whose pool is permanently empty), so
  every consistent snapshot satisfies ``stalls == rounds``; any torn
  read breaks the equality.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.protocols.base import (
    AggregationResult,
    RoundMetrics,
    SessionStats,
    Transcript,
)
from repro.service.cohort import CohortPhase

DIM = 4


class StubSession:
    """A pool-backed session whose pool is always empty: every round
    stalls, giving the race test its invariant (stalls == rounds)."""

    num_users = 8
    model_dim = DIM
    gf = None  # the transport only checks that its shards agree on it
    pool_level = 0
    pool_size = 3

    def __init__(self):
        self.closed = False
        self.stats = SessionStats()

    def drain(self, weights, rows, dropouts):
        return AggregationResult(
            aggregate=np.zeros(4, dtype=np.uint64),
            survivors=[i for i in range(self.num_users) if i not in dropouts],
            transcript=Transcript(),
            metrics=RoundMetrics(),
        )

    def close(self):
        self.closed = True


def drive_rounds(cohort, rounds, errors):
    updates = {i: np.zeros(4, dtype=np.uint64) for i in range(8)}
    try:
        for _ in range(rounds):
            cohort.run_round(dict(updates), set())
    except Exception as exc:  # pragma: no cover - failure reporting
        errors.append(exc)


class TestStatusLocking:
    def test_status_blocks_while_phase_lock_held(self, cohort_over):
        """status() must serialize against phase transitions: with the
        lock held, a scrape cannot return (the lock-free pre-fix read
        returned immediately)."""
        cohort = cohort_over(0, StubSession(), DIM)
        seen = []
        with cohort._phase_lock:
            scraper = threading.Thread(
                target=lambda: seen.append(cohort.status())
            )
            scraper.start()
            scraper.join(timeout=0.2)
            assert scraper.is_alive(), "status() did not take the phase lock"
            assert seen == []
        scraper.join(timeout=10.0)
        assert not scraper.is_alive()
        assert seen and seen[0]["phase"] == "idle"

    def test_complete_round_is_atomic_under_the_lock(self, cohort_over):
        """_complete_round's counter bump and phase advance commit as
        one step — holding the lock delays both, never splits them."""
        cohort = cohort_over(0, StubSession(), DIM)
        cohort.phase = CohortPhase.AGGREGATING
        with cohort._phase_lock:
            committer = threading.Thread(
                target=cohort._complete_round, args=(True,)
            )
            committer.start()
            committer.join(timeout=0.2)
            assert committer.is_alive()
            # nothing moved while we hold the lock
            assert cohort.rounds == 0 and cohort.stalls == 0
            assert cohort.phase is CohortPhase.AGGREGATING
        committer.join(timeout=10.0)
        assert cohort.rounds == 1 and cohort.stalls == 1
        assert cohort.phase is CohortPhase.IDLE

    def test_complete_round_respects_terminal_close(self, cohort_over):
        cohort = cohort_over(0, StubSession(), DIM)
        cohort.phase = CohortPhase.CLOSED
        cohort._complete_round(False)  # counts the round, stays CLOSED
        assert cohort.rounds == 1
        assert cohort.phase is CohortPhase.CLOSED

    def test_complete_round_rejects_wrong_phase(self, cohort_over):
        cohort = cohort_over(0, StubSession(), DIM)
        with pytest.raises(ProtocolError, match="invalid transition"):
            cohort._complete_round(False)
        assert cohort.rounds == 1  # the round itself still happened


class TestStatusHammer:
    def test_no_torn_snapshots_under_concurrent_scrapes(self, cohort_over):
        """Every status() snapshot taken during a storm of always-
        stalling rounds must satisfy the machine's invariants:
        stalls == rounds (every round stalls) and phase consistency
        (an idle phase can only be reported alongside fully-committed
        counters — pre-fix, rounds could lead stalls by one)."""
        cohort = cohort_over(0, StubSession(), DIM)
        rounds = 400
        errors, bad = [], []
        stop = threading.Event()

        def scrape():
            while not stop.is_set():
                snap = cohort.status()
                if snap["stalls"] != snap["rounds"]:
                    bad.append(snap)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # provoke preemption inside races
        try:
            scrapers = [threading.Thread(target=scrape) for _ in range(4)]
            for t in scrapers:
                t.start()
            driver = threading.Thread(
                target=drive_rounds, args=(cohort, rounds, errors)
            )
            driver.start()
            driver.join(timeout=120.0)
            stop.set()
            for t in scrapers:
                t.join(timeout=10.0)
        finally:
            sys.setswitchinterval(old_interval)
        assert not errors
        assert not bad, f"torn snapshots observed: {bad[:3]}"
        final = cohort.status()
        assert final["rounds"] == rounds and final["stalls"] == rounds
        assert final["phase"] == "idle"

    def test_scrapes_during_rounds_see_legal_phases_only(self, cohort_over):
        cohort = cohort_over(0, StubSession(), DIM)
        legal = {"idle", "collecting", "aggregating"}
        seen, errors = set(), []
        stop = threading.Event()

        def scrape():
            while not stop.is_set():
                seen.add(cohort.status()["phase"])

        scraper = threading.Thread(target=scrape)
        scraper.start()
        driver = threading.Thread(
            target=drive_rounds, args=(cohort, 200, errors)
        )
        driver.start()
        driver.join(timeout=120.0)
        stop.set()
        scraper.join(timeout=10.0)
        assert not errors
        assert seen <= legal
        cohort.close()
        assert cohort.status()["phase"] == "closed"

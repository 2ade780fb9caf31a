"""Background refill pipeline for pooled protocol sessions.

The paper's amortization story says the offline phase is precomputable;
PR 1 made it poolable; this module takes it *off the online path*.  A
:class:`BackgroundRefiller` owns one worker thread that watches a set of
registered sessions and tops each one's offline pool back up to
``pool_size`` whenever it drains to its low-water mark
(:attr:`ProtocolSession.needs_refill`), so a steadily-draining consumer
never sees an empty pool and never stalls an online round on mask
encoding.

Concurrency contract (matching :class:`ProtocolSession`): one consumer
thread drains each session via ``run_round`` while this single worker
refills it; pool membership is guarded by the session's ``_pool_lock``
and whole refills are serialized by its ``_refill_lock``, so a consumer
keeps draining already-pooled rounds while a refill encodes.

Shutdown is clean by construction: :meth:`stop` wakes the worker and
joins it; a refill already in flight runs to completion (its material is
still delivered to the pool) and no new refill starts afterwards.

A refill that raises does not take the worker down with it: the failure
is counted (:attr:`BackgroundRefiller.failures`) and its typed cause kept
(:attr:`BackgroundRefiller.last_error`), the other sessions of the batch
are still served, and the worker waits one poll interval before trying
the failed session again.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Tuple

from repro.exceptions import ProtocolError, TransportError
from repro.protocols.base import ProtocolSession
from repro.service.metrics import ServiceMetrics


class BackgroundRefiller:
    """Worker thread that keeps registered sessions' pools above low water.

    Parameters
    ----------
    poll_interval_s:
        Fallback polling period while idle.  Consumers should still call
        :meth:`notify` after draining a pool so refills start promptly;
        the poll is a safety net, not the main wake-up mechanism.
    metrics:
        Optional :class:`ServiceMetrics` sink for per-refill accounting.
    """

    def __init__(
        self,
        poll_interval_s: float = 0.001,
        metrics: Optional[ServiceMetrics] = None,
    ):
        self.poll_interval_s = float(poll_interval_s)
        self.metrics = metrics
        self.refills = 0
        self.rounds_refilled = 0
        #: Refill attempts that raised, and ``"Type: message"`` of the last.
        self.failures = 0
        self.last_error: Optional[str] = None
        self._sessions: List[
            Tuple[ProtocolSession, int, Optional[Callable[[], int]]]
        ] = []
        self._cond = threading.Condition()
        self._stopping = False
        self._in_flight = False
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def register(
        self,
        session: ProtocolSession,
        cohort_id: int = 0,
        depth_fn: Optional[Callable[[], int]] = None,
    ) -> None:
        """Watch ``session``; refill it whenever it reports low water.

        Sessions without a precomputable pool (the library's replay
        sessions) are accepted but never refilled — their
        ``needs_refill`` is always False — so callers can register
        uniformly.  ``depth_fn``
        overrides the pool depth reported to metrics after a refill;
        sharded cohorts pass their *logical* (min-over-shards) depth so
        the metrics series stays one consistent quantity even though the
        refiller tops shards up individually.
        """
        with self._cond:
            self._sessions.append((session, cohort_id, depth_fn))
            self._cond.notify_all()

    def unregister(self, cohort_id: int) -> int:
        """Stop watching every session registered under ``cohort_id``.

        Returns the number of entries dropped.  The runtime-removal
        counterpart of :meth:`register`: a cohort retired by the control
        plane must not leave dead entries pinning its (soon closed)
        sessions in the watch list.  A refill already in flight for one
        of the dropped sessions runs to completion — the worker operates
        on a snapshot — and lands harmlessly (closed sessions absorb the
        attempt as a no-op error the worker tolerates).
        """
        with self._cond:
            kept = [e for e in self._sessions if e[1] != cohort_id]
            removed = len(self._sessions) - len(kept)
            self._sessions = kept
            self._cond.notify_all()
        return removed

    def start(self) -> "BackgroundRefiller":
        """Start the worker thread (idempotent while one is running).

        The single-worker contract is enforced here: if a previous
        :meth:`stop` timed out and its worker is still draining, starting
        a second worker beside it would let two threads refill the same
        session concurrently, so the call fails loudly instead.  A worker
        that has already exited (timed-out stop that later completed) is
        reaped and replaced.
        """
        with self._cond:
            if self._thread is not None:
                if self._thread.is_alive():
                    if self._stopping:
                        raise ProtocolError(
                            "refiller worker is still stopping (a previous "
                            "stop() timed out); retry stop() before start()"
                        )
                    return self
                self._thread = None  # previous worker finished; reap it
            self._stopping = False
            self._thread = threading.Thread(
                target=self._run, name="offline-refiller", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = None) -> bool:
        """Stop and join the worker; a refill in flight completes first.

        Returns True when the worker is fully stopped (or was never
        running).  When ``timeout`` elapses while a refill is still
        draining, the worker thread is *kept* — ``running`` stays True,
        ``start()`` refuses to spawn a second worker beside it, and a
        later ``stop()`` can finish the join.
        """
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
            thread = self._thread
        if thread is None:
            return True
        thread.join(timeout)
        if thread.is_alive():
            return False  # join timed out; keep _thread so `running` is honest
        with self._cond:
            if self._thread is thread:
                self._thread = None
        return True

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def __enter__(self) -> "BackgroundRefiller":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # consumer interface
    # ------------------------------------------------------------------
    def notify(self) -> None:
        """Wake the worker (call after draining a pool round)."""
        with self._cond:
            self._cond.notify_all()

    def wait_until_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no registered session needs a refill.

        Returns True when idle was reached, False on timeout.  Used by
        tests and benchmarks to establish the steady state in which a
        consumer's think time exceeds refill time — the regime where the
        zero-stall guarantee holds.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                busy = self._in_flight or any(
                    s.needs_refill for s, _, _ in self._sessions
                )
                if not busy:
                    return True
                if self._stopping:
                    return False
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(
                    self.poll_interval_s
                    if remaining is None
                    else min(self.poll_interval_s, remaining)
                )

    # ------------------------------------------------------------------
    # worker
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                if self._stopping:
                    return
                needy = [
                    entry for entry in self._sessions if entry[0].needs_refill
                ]
                if not needy:
                    self._cond.wait(self.poll_interval_s)
                    continue
                self._in_flight = True
            failures = self.failures
            try:
                self._refill_batch(needy)
            finally:
                with self._cond:
                    self._in_flight = False
                    self._cond.notify_all()
            if self.failures != failures:
                # A failed session still reports ``needs_refill``: sit out
                # one poll interval, notifies included, instead of
                # retrying it in a hot loop.
                with self._cond:
                    self._cond.wait_for(
                        lambda: self._stopping, self.poll_interval_s
                    )

    def _refill_batch(self, needy) -> None:
        """Refill one batch of needy sessions, overlapping where possible.

        Sessions exposing the two-phase ``refill_begin`` / ``refill_join``
        surface (process-transport shard handles) are *scattered* first —
        every worker starts encoding before any result is gathered — so
        top-ups for different shards run concurrently on the workers'
        cores.  Plain in-process sessions refill synchronously, one at a
        time, exactly as before (there is only this one worker thread to
        run them on).  A stop request lets refills already started run to
        completion (begun tickets are still joined; their material lands
        in the pools) but starts no new ones.
        """
        tickets = []
        for entry in needy:
            with self._cond:
                if self._stopping:
                    break  # finish cleanly: skip refills not yet started
            session = entry[0]
            if hasattr(session, "refill_begin"):
                ticket = self._attempt(session.refill_begin)
                if ticket is not None:
                    tickets.append((entry, ticket))
            else:
                self._account(*entry, self._attempt(session.refill))
        for entry, ticket in tickets:
            self._account(*entry, self._attempt(entry[0].refill_join, ticket))

    def _attempt(self, step: Callable, *args):
        """One refill step's result, or None when it raised.

        A typed ``ProtocolError`` / ``TransportError`` is the consumer
        closing the session between the low-water check and the refill:
        nothing to top up.  Anything else (a numpy error, a
        ``MemoryError``, a bug in a kernel) is recorded and must not
        unwind the worker, which serves every cohort of the service.
        """
        try:
            return step(*args)
        except (ProtocolError, TransportError):
            return None
        except Exception as exc:
            self.failures += 1
            self.last_error = f"{type(exc).__name__}: {exc}"
            return None

    def _account(
        self,
        session: ProtocolSession,
        cohort_id: int,
        depth_fn: Optional[Callable[[], int]],
        added: Optional[int],
    ) -> None:
        if added:
            self.refills += 1
            self.rounds_refilled += added
            if self.metrics is not None:
                depth = depth_fn() if depth_fn is not None else session.pool_level
                self.metrics.record_refill(cohort_id, added, depth)

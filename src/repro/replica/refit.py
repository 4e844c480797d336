"""The hot-refit protocol: train off-path, flip atomically, retire gracefully.

:class:`RefitCoordinator` owns the generation-aware model swap the
ROADMAP's replicated-serving rung calls for.  A refit never touches a
serving backbone — the double-buffer discipline is:

1. **Train off-path.**  The coordinator has the fleet build a complete
   standby generation (in-process: one ``planner_factory`` call and one
   member; over the process transport: one call, forked standby workers
   and checksummed artifact installs on every one of them) while the
   active set keeps serving.  This is the expensive phase and it happens
   entirely outside any lock.
2. **Flip atomically.**  One pointer swap under the set's flip lock makes
   the standby set active and bumps the set's ``fit_generation``: every
   arrival after the swap dispatches to the new generation, every request
   already queued or in flight stays owned by an old replica.  The
   dispatcher's session-affinity table clears with the swap, so each
   session replans exactly once on the new model.
3. **Retire gracefully.**  The old members stop admitting and drain dry —
   every in-flight request finishes on the generation that admitted it
   (what a dying worker leaves unanswered re-dispatches).  No accepted
   request is dropped, rejected, or blocked beyond the configured
   admission policy.

A flip refused because the set closed during training abandons the
standby: the coordinator retires it itself, since ``close()`` cannot reach
members that never became active.

One refit at a time: a second concurrent :meth:`RefitCoordinator.refit`
raises :class:`~repro.utils.exceptions.ServingError` instead of queueing
(the caller owns retry policy for overlapping retrains).

:func:`schedule_refit` is the measurement-harness hook: it arms a refit on
a background timer so the traffic drivers can overlap a retrain with an
open-loop run (``repro-irs serve-sim --refit-at``).
"""

from __future__ import annotations

import logging
import threading
import time

from repro.utils.exceptions import ServingError

__all__ = ["RefitCoordinator", "RefitHandle", "schedule_refit"]

logger = logging.getLogger(__name__)


class RefitCoordinator:
    """Serialises hot refits of one fleet — the single train → start
    standby → flip → (abandon on refusal) → retire → archive → report
    skeleton of :class:`~repro.replica.set.ReplicaSet` and every subclass.

    What a generation's members are made of is the fleet's business
    (:meth:`~repro.replica.set.ReplicaSet._build_generation`: in-process
    loops, or forked workers with shipped artifacts); the order of the
    steps, and what happens when one is refused, is decided only here."""

    def __init__(self, replica_set) -> None:
        self._set = replica_set
        self._refit_lock = threading.Lock()
        self._history_lock = threading.Lock()
        self._history: "list[dict]" = []

    @property
    def refitting(self) -> bool:
        """True while a refit is training or flipping."""
        locked = self._refit_lock.acquire(blocking=False)
        if locked:
            self._refit_lock.release()
        return not locked

    def history(self) -> "list[dict]":
        with self._history_lock:
            return [dict(report) for report in self._history]

    # ------------------------------------------------------------------ #
    def refit(self) -> dict:
        """Run one complete refit; returns its timing/accounting report.

        Raises :class:`~repro.utils.exceptions.ServingError` if a refit is
        already in progress or the set is closed.
        """
        if not self._refit_lock.acquire(blocking=False):
            raise ServingError("a refit is already in progress on this replica set")
        try:
            fleet = self._set
            if fleet.closed:
                raise ServingError("cannot refit a closed replica set")
            generation_from = fleet.fit_generation
            generation_to = generation_from + 1
            logger.info(
                "refit: preparing %d standby replica(s) for generation %d",
                fleet.num_replicas,
                generation_to,
            )
            # 1. Train (and deploy) off-path: the active members keep
            # serving, untouched.  The expensive phase, outside any lock.
            train_started = time.perf_counter()
            standby, extras = fleet._build_generation(generation_to)
            train_seconds = time.perf_counter() - train_started

            # 2. Atomic flip.  Standby members start BEFORE it: the first
            # post-flip arrival must find a live member, not a cold one.
            try:
                if fleet.started:
                    for member in standby:
                        member.start()
                flip_started = time.perf_counter()
                previous = fleet._flip_to(standby, generation_to)
                flip_seconds = time.perf_counter() - flip_started
            except BaseException:
                # Refused (the set closed while the standby was training):
                # nothing was installed, and close() cannot reach members
                # that were never active — retire the standby here (it
                # served nothing) and surface the refusal.
                fleet._retire(standby)
                raise

            # Re-check started AFTER the flip: a start() racing the training
            # phase may have read the pre-flip active list, so whichever of
            # the two runs second starts the standby (idempotent).
            if fleet.started:
                for member in standby:
                    member.start()

            # 3. Drain-dry retirement: in-flight requests finish on the
            # generation that admitted them; whatever a failing member
            # leaves unanswered re-dispatches (zero admitted requests
            # dropped).
            inflight_at_flip = sum(member.pending_count() for member in previous)
            retire_started = time.perf_counter()
            fleet._redispatch(fleet._retire(previous), reason="retirement")
            retire_seconds = time.perf_counter() - retire_started

            report = {
                "generation_from": generation_from,
                "generation_to": generation_to,
                "num_replicas": len(standby),
                "train_seconds": round(train_seconds, 4),
                "flip_seconds": round(flip_seconds, 6),
                "retire_seconds": round(retire_seconds, 4),
                "inflight_at_flip": inflight_at_flip,
                "retired_served": sum(
                    member.stats()["completed"] for member in previous
                ),
                **extras,
            }
            # Drained dry: collapse the old generation into counter
            # snapshots so repeated refits never accumulate whole models.
            fleet._archive_retired(previous)
            with self._history_lock:
                self._history.append(report)
            logger.info(
                "refit: generation %d -> %d flipped in %.1f us "
                "(%d request(s) in flight finished on the old generation)",
                generation_from,
                generation_to,
                1e6 * flip_seconds,
                inflight_at_flip,
            )
            return dict(report)
        finally:
            self._refit_lock.release()


class RefitHandle:
    """A refit armed on a background timer (see :func:`schedule_refit`)."""

    def __init__(self, replica_set, delay_seconds: float) -> None:
        self.delay_seconds = float(delay_seconds)
        self.report: "dict | None" = None
        self.error: "BaseException | None" = None
        self._set = replica_set
        self._thread = threading.Thread(
            target=self._run, name="repro-replica-refit", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        time.sleep(self.delay_seconds)
        try:
            self.report = self._set.refit()
        except BaseException as exc:  # noqa: BLE001 - surfaced via .error/.result()
            self.error = exc
            logger.exception("scheduled refit failed")

    def join(self, timeout: "float | None" = None) -> None:
        self._thread.join(timeout)

    def result(self) -> dict:
        """Join and return the refit report (re-raising a refit failure)."""
        self.join()
        if self.error is not None:
            raise self.error
        assert self.report is not None
        return self.report


def schedule_refit(replica_set, delay_seconds: float) -> RefitHandle:
    """Arm a hot refit ``delay_seconds`` from now on a background thread."""
    if delay_seconds < 0:
        raise ServingError(f"refit delay must be non-negative, got {delay_seconds}")
    return RefitHandle(replica_set, delay_seconds)

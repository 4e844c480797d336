"""The replica worker: one serving process behind the socket transport.

A :class:`ReplicaWorker` is the parent-side handle of one forked child
process.  The child (:func:`worker_main`) runs a complete single-replica
serving stack — the generation-pinned planner with its own GIL, plan
caches and arena-backed K/V caches, and a full
:class:`~repro.serve.loop.ServingLoop` (its queue, admission scope
``worker-<index>``, optional tracing) — and speaks the
:mod:`repro.distributed.wire` protocol over an ``AF_UNIX`` ``socketpair``
created before the fork.

Thread layout inside the child:

* **reader** (the main thread) — decodes REQUEST_BATCH frames into
  envelopes (a shipped deadline budget re-anchored on this process's clock,
  so the loop's own admission refuses a request that arrives expired) and
  enqueues them; handles STATS / REFIT / SHUTDOWN control frames.  Under
  the ``block`` admission policy a full queue stalls this thread —
  back-pressure propagates to the parent through the socket buffer,
  exactly like a blocked in-process producer.
* **writer** — drains an outbox of answered requests, packing every
  record available at wake-up into ONE RESPONSE_BATCH frame (one batched
  encode).  Every resolved future becomes a
  record (:meth:`_Worker._on_done`): a successful ``next_step`` ships *the
  plan that answered it* — the serving cache's entry for the context,
  peeked through the loop's ``resident_plan`` capability — so the parent
  can answer the session's later steps itself (the mirror of
  :mod:`repro.distributed.remote`); a record that cannot be built ships as
  an error, never as silence.  Refit acks ride the same outbox, so the ack
  of a commit leaves after every answer the old generation gave.
* **heartbeat** — ships an empty HEARTBEAT frame every
  ``heartbeat_interval`` seconds: a liveness beat for the parent's failure
  detector, nothing more (the parent routes by its own pending tables).
* **refit** (one per refit, while it runs) — the loop's own
  :meth:`~repro.serve.loop.ServingLoop.refit` over the ``planner_factory``
  and ``tenant_factory`` the worker inherited at fork.  A REFIT ``prepare``
  frame starts it; once generation N+1 is built the thread acks with the
  sha256 metas of its fitted state
  (:func:`~repro.distributed.artifacts.artifacts_from_planner`) and holds
  the standby at a gate.  ``commit`` opens the gate and the reader waits
  for the loop's refit to return — the flip, and the batch in flight at it
  — before it reads another frame and acks; ``abort`` makes the gate raise,
  so the loop flips nothing.  The build never blocks the reader or the
  heartbeat, so a long one never gets its worker suspected.

All latency math happens on the child's own ``perf_counter`` clock and
crosses the wire as *durations* (queue-wait, service) — never as raw
timestamps, which are not comparable between processes.

Fork discipline: the child installs a **fresh**
:class:`~repro.obs.registry.MetricsRegistry` before constructing anything
(what it builds counts into its own registry; the instruments it *inherits*
— the fitted planner's cache counters — are safe to touch because
:mod:`repro.obs.registry` holds the default registry's lock across every
``fork``, so no other parent thread can be inside it at that instant), and
closes every inherited parent-side socket fd so EOF detection stays crisp.
The child exits via ``os._exit`` — parent-inherited atexit handlers must
not run twice.  Its last frame before the socket closes is an unprompted
STATS_RESPONSE, so the parent's ``stats()`` after ``close()`` holds the
counters the worker ended on.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import queue
import socket
import threading
import time

from repro.distributed import wire
from repro.distributed.artifacts import artifacts_from_planner
from repro.distributed.wire import FrameType, ResponseRecord
from repro.obs.registry import MetricsRegistry, set_registry
from repro.serve.loop import ServingLoop, pin_serving_generation
from repro.serve.request import ServeRequest
from repro.tenant.adapters import PlannerAdapter
from repro.utils.exceptions import ServingError

__all__ = ["CAN_FORK", "ReplicaWorker", "spawn_worker", "worker_main"]

logger = logging.getLogger(__name__)

#: Seconds the parent waits for a worker to build a generation: its HELLO
#: at start-up (the child's planner construction may train a model) and its
#: ``prepared`` ack at a refit (the factories train one).
HELLO_TIMEOUT = 120.0
#: Whether this platform has the ``fork`` start method workers are spawned by.
CAN_FORK = "fork" in multiprocessing.get_all_start_methods()


class ReplicaWorker:
    """Parent-side handle of one worker process: the socket + the process."""

    def __init__(self, process, sock: socket.socket, index: int, generation: int) -> None:
        self.process = process
        #: kept here: a closed ``Process`` no longer answers ``pid``
        self.pid: "int | None" = process.pid
        self.sock = sock
        self.index = index
        self.generation = generation
        self.send_lock = threading.Lock()
        self.hello: "dict | None" = None
        self._reaped = False
        #: Serialises join / alive / kill: the reader that met the worker's
        #: EOF and a retiring thread may both join it.
        self._lock = threading.Lock()

    def alive(self) -> bool:
        with self._lock:
            return not self._reaped and self.process.is_alive()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def join(self, timeout: "float | None" = None) -> None:
        """Wait for the child to exit; once it has, release the process
        handle (``Process.close``: the pipe pair its Popen holds).  Safe
        from several threads; a reaped handle returns at once."""
        with self._lock:
            if self._reaped:
                return
            self.process.join(timeout)
            if self.process.exitcode is not None:
                self.process.close()
                self._reaped = True

    def kill(self) -> None:
        """SIGKILL the child (the chaos suite's worker-death injector)."""
        with self._lock:
            if not self._reaped:
                self.process.kill()


def spawn_worker(
    planner,
    index: int,
    generation: int,
    loop_kwargs: "dict | None" = None,
    heartbeat_interval: float = 0.05,
    inherited_fds: "list[int] | None" = None,
    mp_context=None,
    tenant_factory=None,
    planner_factory=None,
) -> ReplicaWorker:
    """Fork one worker process serving ``planner`` and return its handle.

    The socketpair is created *before* the fork so both ends exist in both
    processes; each side closes the end it does not own.  ``planner`` is a
    fitted planner object — the fork's copy-on-write page sharing is the
    "ship the model to the worker" mechanism for the first generation;
    every later one the worker builds itself, calling the
    ``planner_factory`` (and ``tenant_factory``) it inherits here when a
    REFIT frame asks it to.  ``inherited_fds`` lists parent-side fds of
    *other* workers' sockets the child should close (a later fork inherits
    every earlier socket).  ``tenant_factory`` (optional) is called *inside
    the child* AFTER its fresh metrics registry is installed, so a
    multi-tenant worker's :class:`~repro.tenant.registry.TenantRegistry`
    binds child-owned locks and counters — never objects forked
    mid-acquisition.
    """
    if mp_context is None:
        mp_context = multiprocessing.get_context("fork")
    parent_sock, child_sock = socket.socketpair()
    process = mp_context.Process(
        target=worker_main,
        args=(
            child_sock,
            parent_sock,
            planner,
            index,
            generation,
            dict(loop_kwargs or {}),
            heartbeat_interval,
            list(inherited_fds or []),
            tenant_factory,
            planner_factory,
        ),
        name=f"repro-worker-{index}",
        daemon=True,
    )
    process.start()
    child_sock.close()
    return ReplicaWorker(process, parent_sock, index, generation)


# --------------------------------------------------------------------- #
# Child process
# --------------------------------------------------------------------- #
def worker_main(sock, parent_sock, planner, index: int, *worker_args) -> None:
    """Entry point of the child process (runs until SHUTDOWN or EOF); the
    arguments are :class:`_Worker`'s."""
    try:
        _Worker(sock, parent_sock, planner, index, *worker_args).run()
    except BaseException:
        logger.exception("worker %d died", index)
        os._exit(1)
    os._exit(0)


class _Worker:
    """Child-process state: loop + reader/writer/heartbeat threads."""

    def __init__(
        self,
        sock,
        parent_sock,
        planner,
        index,
        generation,
        loop_kwargs,
        heartbeat_interval,
        inherited_fds,
        tenant_factory=None,
        planner_factory=None,
    ) -> None:
        # Fresh registry FIRST: every MetricGroup built below must bind to a
        # lock this process created, not one forked mid-acquisition.
        set_registry(MetricsRegistry())
        parent_sock.close()
        for fd in inherited_fds:
            try:
                os.close(fd)
            except OSError:
                pass
        self.sock = sock
        self.index = index
        self.generation = generation
        self.heartbeat_interval = float(heartbeat_interval)
        pin_serving_generation(planner, generation)
        self.planner = planner
        self.planner_factory = planner_factory
        self.tenant_factory = tenant_factory
        # The tenant registry is built HERE, after the fresh metrics
        # registry: its bindings' latency groups must be child-owned (the
        # parent keeps its own registry instance).
        tenants = None if tenant_factory is None else tenant_factory()
        if tenants is not None:
            tenants.pin_generation(generation)
        self.loop = ServingLoop(
            planner, admission_scope=f"worker-{index}", tenants=tenants, **loop_kwargs
        )
        self.send_lock = threading.Lock()
        self.outbox: "queue.SimpleQueue" = queue.SimpleQueue()
        self._stop = threading.Event()
        #: The refit in progress: its thread, the gate it waits at (one
        #: ``"commit"`` / ``"abort"`` verdict) and the loop's report.
        self._refitter: "threading.Thread | None" = None
        self._verdict: "queue.SimpleQueue[str]" = queue.SimpleQueue()
        self._refit_report: "dict | None" = None

    # ------------------------------------------------------------------ #
    def run(self) -> None:
        self.loop.start()
        writer = threading.Thread(target=self._writer, name="repro-worker-writer", daemon=True)
        heartbeat = threading.Thread(
            target=self._heartbeat, name="repro-worker-heartbeat", daemon=True
        )
        writer.start()
        heartbeat.start()
        wire.send_frame(
            self.sock,
            FrameType.HELLO,
            wire.encode_json(
                {
                    "index": self.index,
                    "pid": os.getpid(),
                    "generation": self.generation,
                    "resident_slots": self.loop.resident_slots(),
                    "max_length": int(getattr(self.planner, "max_length", 20)),
                    "planner": getattr(self.planner, "name", type(self.planner).__name__),
                    "tenants": (
                        [] if self.loop.tenants is None else list(self.loop.tenants.names)
                    ),
                }
            ),
            lock=self.send_lock,
        )
        try:
            self._reader()
        finally:
            # A standby held at the gate is never flipped in.  Drain dry:
            # close() resolves every accepted future, each resolution lands
            # a record in the outbox via _on_done.
            self._verdict.put("abort")
            self._stop.set()
            self.loop.close()
            self.outbox.put(None)  # writer sentinel — flushes, then exits
            writer.join(timeout=10.0)
            heartbeat.join(timeout=2.0 * self.heartbeat_interval + 1.0)
            try:
                # Last words: the final counters, so the parent's stats()
                # after close() hold what it served (nobody can ask once
                # this process is gone).
                wire.send_frame(
                    self.sock,
                    FrameType.STATS_RESPONSE,
                    wire.encode_json(self._stats()),
                    lock=self.send_lock,
                )
                self.sock.close()
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    def _reader(self) -> None:
        while True:
            frame = wire.recv_frame(self.sock)
            if frame is None:
                logger.info("worker %d: parent closed the transport", self.index)
                return
            frame_type, payload = frame
            if frame_type == FrameType.REQUEST_BATCH:
                self._handle_requests(payload)
            elif frame_type == FrameType.STATS_REQUEST:
                wire.send_frame(
                    self.sock,
                    FrameType.STATS_RESPONSE,
                    wire.encode_json(self._stats()),
                    lock=self.send_lock,
                )
            elif frame_type == FrameType.REFIT:
                self._on_refit(wire.decode_json(payload))
            elif frame_type == FrameType.SHUTDOWN:
                logger.info("worker %d: shutdown requested, draining", self.index)
                return
            else:
                raise ServingError(
                    f"worker {self.index}: unexpected frame type {frame_type}"
                )

    def _handle_requests(self, payload: bytes) -> None:
        for request_id, request in wire.decode_request_batch(payload):
            request.replica_index = self.index
            request.future.add_done_callback(
                lambda future, rid=request_id, req=request: self._on_done(rid, req)
            )
            try:
                # Enqueue stamps enqueued_at on THIS process's clock; the
                # block policy may stall here (back-pressure to the parent).
                self.loop.enqueue(request)
            except BaseException as exc:  # noqa: BLE001 - shipped as an error record
                if not request.future.done():
                    request.fail(exc)

    def _on_done(self, request_id: int, request: ServeRequest) -> None:
        """Done-callback of every worker-side future: ship its record.

        Whatever a done-callback raises is logged by ``concurrent.futures``
        and dropped, so a failure to build the record must itself be
        answered — an unsent record is a parent-side op that hangs until its
        caller times out."""
        try:
            record = self._record(request_id, request)
        except Exception as exc:  # noqa: BLE001 - shipped as an error record
            logger.exception("worker %d: building a response record failed", self.index)
            record = ResponseRecord(
                request_id,
                False,
                error_name=ServingError.__name__,
                error_message=(
                    f"worker {self.index} could not build the response "
                    f"({type(exc).__name__}: {exc})"
                ),
            )
        self.outbox.put(record)

    def _record(self, request_id: int, request: ServeRequest) -> ResponseRecord:
        exc = request.future.exception()
        if exc is not None:
            return ResponseRecord(
                request_id,
                False,
                error_name=type(exc).__name__,
                error_message=str(exc),
            )
        answer = request.future.result()
        if answer is not None and not isinstance(answer, (list, tuple)):
            answer = int(answer)
        completed = request.completed_at or time.perf_counter()
        drain_started = request.drain_started_at or completed
        return ResponseRecord(
            request_id,
            True,
            answer=answer,
            plan=self._plan_behind(request, answer),
            served_generation=request.served_generation,
            batch_tag=request.batch_tag,
            queue_wait_s=max(drain_started - request.enqueued_at, 0.0),
            service_s=max(completed - request.enqueued_at, 0.0),
        )

    def _plan_behind(self, request: ServeRequest, answer) -> "tuple | None":
        """The plan to ship in place of a ``next_step`` answer: the serving
        cache's entry for the context as it stands now, when the request's
        path is a prefix of it and it yields ``answer`` — what the parent
        may then answer later steps from.  ``None`` ships the plain answer
        (other kinds, a model that keeps no plans, an entry that moved on or
        was evicted, a peek that failed)."""
        if request.kind != "next_step":
            return None
        try:
            plan = self.loop.resident_plan(request)
        except Exception:  # noqa: BLE001 - the answer itself is sound: ship it plain
            logger.exception("worker %d: resident_plan failed", self.index)
            return None
        if plan is None:
            return None
        plan = tuple(plan)
        path = request.path_so_far
        if plan[: len(path)] != path or wire.plan_step(plan, path) != answer:
            return None
        return plan

    # ------------------------------------------------------------------ #
    def _writer(self) -> None:
        records: "list[ResponseRecord]" = []
        while True:
            try:
                item = self.outbox.get(block=not records)
            except queue.Empty:
                # Every record already waiting is batched into one frame:
                # under load a whole drained micro-batch ships as a single
                # encode+sendall.
                self._send_responses(records)
                records = []
                continue
            if isinstance(item, ResponseRecord):
                records.append(item)
                continue
            if records:
                self._send_responses(records)
                records = []
            if item is None:  # the shutdown sentinel
                return
            try:  # a refit ack, in order behind the answers queued before it
                wire.send_frame(self.sock, FrameType.REFIT_ACK, item, lock=self.send_lock)
            except OSError:
                pass  # the parent is gone: nobody waits for it

    def _send_responses(self, records) -> None:
        try:
            wire.send_frame(
                self.sock,
                FrameType.RESPONSE_BATCH,
                wire.encode_response_batch(records),
                lock=self.send_lock,
            )
        except OSError:
            logger.warning(
                "worker %d: parent gone, dropping %d response(s)",
                self.index,
                len(records),
            )

    def _heartbeat(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                wire.send_frame(self.sock, FrameType.HEARTBEAT, b"", lock=self.send_lock)
            except OSError:
                return

    # ------------------------------------------------------------------ #
    def _stats(self) -> dict:
        return {
            "index": self.index,
            "generation": self.generation,
            "loop": self.loop.stats(),
        }

    # ------------------------------------------------------------------ #
    # Refit: prepare / commit over this worker's own ServingLoop
    # ------------------------------------------------------------------ #
    def _on_refit(self, message: dict) -> None:
        """One REFIT frame.  ``prepare`` starts the loop's refit on a thread
        of its own and returns at once.  ``commit`` / ``abort`` settle the
        gate that refit waits at, then wait for it to return — so every
        frame read after a commit meets the new generation — and a commit
        is acked with the loop's report."""
        if message["verb"] == "prepare":
            self._verdict = queue.SimpleQueue()
            self._refitter = threading.Thread(
                target=self._refit,
                args=(message, self._verdict),
                name="repro-worker-refit",
                daemon=True,
            )
            self._refitter.start()
            return
        self._verdict.put(message["verb"])
        self._refitter.join()
        if message["verb"] == "commit":
            self._ack(message, "committed", report=self._refit_report)

    def _refit(self, message: dict, verdict: "queue.SimpleQueue[str]") -> None:
        """Build generation N+1 through ``ServingLoop.refit``, ack it
        ``prepared`` with its artifact metas, and let the loop flip it in
        only on a ``commit`` verdict.  The loop calls the tenant factory
        last, so the gate sits there: everything is built by then, and a
        gate that raises leaves the loop serving generation N."""
        generation = message["generation"]
        built = {}

        def build_planner():
            built["planner"] = self.planner_factory()
            return built["planner"]

        def build_tenants_then_wait():
            tenants = None if self.tenant_factory is None else self.tenant_factory()
            planner = built["planner"]
            PlannerAdapter(planner)  # refuses a factory that returns no planner
            artifacts = [a.meta() for a in artifacts_from_planner(planner, generation)]
            self._ack(message, "prepared", artifacts=artifacts)
            if verdict.get() != "commit":
                raise ServingError(f"worker {self.index}: refit to generation {generation} aborted")
            return tenants

        self._refit_report = None
        try:
            self._refit_report = self.loop.refit(build_planner, build_tenants_then_wait)
        except BaseException as exc:  # noqa: BLE001 - shipped in the ack
            # (after an abort nobody waits for it: the parent skips it)
            self._ack(message, "failed", error=f"{type(exc).__name__}: {exc}")
            return
        self.generation = generation

    def _ack(self, message: dict, verb: str, **fields) -> None:
        """Queue one REFIT_ACK behind every answer already in the outbox."""
        ack = {"refit": message["refit"], "verb": verb, "pid": os.getpid(), **fields}
        self.outbox.put(wire.encode_json(ack))

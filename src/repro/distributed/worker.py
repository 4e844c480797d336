"""The replica worker: one serving process behind the socket transport.

A :class:`ReplicaWorker` is the parent-side handle of one forked child
process.  The child (:func:`worker_main`) runs a complete single-replica
serving stack — the generation-pinned planner with its own GIL, plan
caches and arena-backed K/V caches, a full
:class:`~repro.serve.loop.ServingLoop` (its queue, admission scope
``worker-<index>``, optional tracing) and a
:class:`~repro.replica.replica.Replica` for load accounting — and speaks
the :mod:`repro.distributed.wire` protocol over an ``AF_UNIX``
``socketpair`` created before the fork.

Thread layout inside the child:

* **reader** (the main thread) — decodes REQUEST_BATCH frames into
  envelopes (a shipped deadline budget re-anchored on this process's clock,
  so the loop's own admission refuses a request that arrives expired) and
  enqueues them; handles STATS / INSTALL_ARTIFACT / SHUTDOWN control
  frames.  Under the ``block`` admission policy a full queue stalls this
  thread — back-pressure propagates to the parent through the socket
  buffer, exactly like a blocked in-process producer.
* **writer** — drains an outbox of answered requests, packing every
  record available at wake-up into ONE RESPONSE_BATCH frame (one batched
  encode).  Every resolved future becomes a
  record (:meth:`_Worker._on_done`): a successful ``next_step`` ships *the
  plan that answered it* — the serving cache's entry for the context,
  peeked through the loop's ``resident_plan`` capability — so the parent
  can answer the session's later steps itself (the mirror of
  :mod:`repro.distributed.remote`); a record that cannot be built ships as
  an error, never as silence.
* **heartbeat** — ships the replica's load signals (EWMA in-flight depth,
  recent p95, queue depth) every ``heartbeat_interval`` seconds; the
  parent's dispatcher scores workers from these instead of shared memory.

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
STATS_RESPONSE, so the parent's archive of a retired generation holds the
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
from repro.distributed.artifacts import (
    GENERATOR_STATE,
    MODEL_WEIGHTS,
    unpack_generator,
    unpack_state_dict,
)
from repro.distributed.wire import FrameType, ResponseRecord
from repro.obs.registry import MetricsRegistry, set_registry
from repro.replica.replica import Replica, pin_serving_generation
from repro.serve.loop import ServingLoop
from repro.serve.request import ServeRequest
from repro.utils.exceptions import ServingError

__all__ = ["CAN_FORK", "ReplicaWorker", "spawn_worker", "worker_main"]

logger = logging.getLogger(__name__)

#: Seconds the parent waits for a worker's HELLO (covers the child's
#: planner construction, which may train a model).
HELLO_TIMEOUT = 120.0
#: Whether this platform has the ``fork`` start method workers are spawned by.
CAN_FORK = "fork" in multiprocessing.get_all_start_methods()


class ReplicaWorker:
    """Parent-side handle of one worker process: the socket + the process."""

    def __init__(self, process, sock: socket.socket, index: int, generation: int) -> None:
        self.process = process
        self.sock = sock
        self.index = index
        self.generation = generation
        self.send_lock = threading.Lock()
        self.hello: "dict | None" = None

    @property
    def pid(self) -> "int | None":
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def join(self, timeout: "float | None" = None) -> None:
        self.process.join(timeout)

    def kill(self) -> None:
        """SIGKILL the child (the chaos suite's worker-death injector)."""
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
) -> ReplicaWorker:
    """Fork one worker process serving ``planner`` and return its handle.

    The socketpair is created *before* the fork so both ends exist in both
    processes; each side closes the end it does not own.  ``planner`` is a
    fitted planner object — the fork's copy-on-write page sharing is the
    "ship the model to the worker" mechanism for the initial deploy (a
    refit re-ships weights explicitly through the artifact registry).
    ``inherited_fds`` lists parent-side fds of *other* workers' sockets the
    child should close (a later fork inherits every earlier socket).
    ``tenant_factory`` (optional) is called *inside the child* AFTER its
    fresh metrics registry is installed, so a multi-tenant worker's
    :class:`~repro.tenant.registry.TenantRegistry` binds child-owned locks
    and counters — never objects forked mid-acquisition.
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
    """Child-process state: loop + replica + reader/writer/heartbeat threads."""

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
        # The tenant registry is built HERE, after the fresh metrics
        # registry: its bindings' admission controllers and latency groups
        # must be child-owned (the parent keeps its own registry instance).
        tenants = None if tenant_factory is None else tenant_factory()
        if tenants is not None:
            tenants.pin_generation(generation)
        self.loop = ServingLoop(
            planner, admission_scope=f"worker-{index}", tenants=tenants, **loop_kwargs
        )
        self.replica = Replica(index, planner, self.loop, generation)
        self.send_lock = threading.Lock()
        self.outbox: "queue.SimpleQueue" = queue.SimpleQueue()
        self._stop = threading.Event()
        self._heartbeat_seq = 0

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
            # Drain dry: close() resolves every accepted future, each
            # resolution lands a record in the outbox via _on_done.
            self._stop.set()
            self.loop.close()
            self.outbox.put(None)  # writer sentinel — flushes, then exits
            writer.join(timeout=10.0)
            heartbeat.join(timeout=2.0 * self.heartbeat_interval + 1.0)
            try:
                # Last words: the final counters, so the parent's archive of
                # a retired generation holds what it served (nobody can ask
                # once this process is gone).
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
            elif frame_type == FrameType.INSTALL_ARTIFACT:
                self._handle_install(payload)
            elif frame_type == FrameType.SHUTDOWN:
                logger.info("worker %d: shutdown requested, draining", self.index)
                return
            else:
                raise ServingError(
                    f"worker {self.index}: unexpected frame type {frame_type}"
                )

    def _handle_requests(self, payload: bytes) -> None:
        for request_id, request in wire.decode_request_batch(payload):
            self.replica.on_dispatch()
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
        self.replica.on_complete(request)
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
        while True:
            record = self.outbox.get()
            if record is None:
                return
            records = [record]
            # Batch every record already waiting into one frame: under load
            # a whole drained micro-batch ships as a single encode+sendall.
            while True:
                try:
                    extra = self.outbox.get_nowait()
                except queue.Empty:
                    break
                if extra is None:
                    self._send_responses(records)
                    return
                records.append(extra)
            self._send_responses(records)

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
            stats = self.replica.stats()
            self._heartbeat_seq += 1
            try:
                wire.send_frame(
                    self.sock,
                    FrameType.HEARTBEAT,
                    wire.encode_heartbeat(
                        self.index,
                        self._heartbeat_seq,
                        self.generation,
                        stats["healthy"],
                        stats["inflight"],
                        stats["dispatched"],
                        stats["completed"],
                        stats["queued"],
                        stats["latency_samples"],
                        stats["ewma_depth"],
                        stats["recent_p95_ms"],
                    ),
                    lock=self.send_lock,
                )
            except OSError:
                return

    # ------------------------------------------------------------------ #
    def _stats(self) -> dict:
        return {
            "index": self.index,
            "generation": self.generation,
            "loop": self.loop.stats(),
            "replica": self.replica.stats(),
        }

    def _handle_install(self, payload: bytes) -> None:
        (meta_len,) = wire._COUNT.unpack_from(payload, 0)
        meta = wire.decode_json(payload[wire._COUNT.size : wire._COUNT.size + meta_len])
        blob = payload[wire._COUNT.size + meta_len :]
        outcome = {"name": meta["name"], "generation": meta["generation"], "ok": True}
        try:
            import hashlib

            digest = hashlib.sha256(blob).hexdigest()
            if digest != meta["sha256"]:
                raise ServingError(
                    f"artifact {meta['name']} checksum mismatch "
                    f"({digest[:12]} != {meta['sha256'][:12]})"
                )
            outcome["sha256"] = digest
            if meta["name"] == MODEL_WEIGHTS:
                module = getattr(getattr(self.planner, "backbone", None), "module", None)
                if module is None:
                    raise ServingError("planner backbone has no module to load weights into")
                # Loading through the Module (not warm_start) leaves the
                # backbone's fit_generation untouched — the pinned planner
                # must not observe a generation change — so the caches are
                # invalidated explicitly instead.
                module.load_state_dict(unpack_state_dict(blob))
            elif meta["name"] == GENERATOR_STATE:
                generator = unpack_generator(blob)
                if repr(generator.retrieval_key()) != meta["identity"]:
                    raise ServingError(
                        "generator artifact identity drifted in transit: "
                        f"{meta['identity']} != {generator.retrieval_key()!r}"
                    )
                self.planner.candidate_generator = generator
            else:
                raise ServingError(f"unknown artifact kind {meta['name']!r}")
            invalidate = getattr(self.planner, "invalidate_caches", None)
            if invalidate is not None:
                invalidate()
        except BaseException as exc:  # noqa: BLE001 - shipped in the ACK
            outcome["ok"] = False
            outcome["error"] = f"{type(exc).__name__}: {exc}"
        wire.send_frame(
            self.sock,
            FrameType.ARTIFACT_ACK,
            wire.encode_json(outcome),
            lock=self.send_lock,
        )

"""The load generator: closed units, paced units, and what brackets them.

One generator thread drives a surface through typed ``serve(request)``
calls only.  An *op* is one answered ``next_step`` request; a session asks
for its path one step at a time until the objective, the length budget or
``None`` ends it.  The generator knows each op's class from its own
script: a **first** op is step 0 of a fresh session, everything else is a
**next** op.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import queue
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve.api import NextStepRequest

from workloads import THINK_TIME_S, SessionScript

OP_TIMEOUT_S = 5.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class Session:
    """One scripted session in flight."""

    __slots__ = ("script", "path", "done", "failed", "due")

    def __init__(self, script: SessionScript) -> None:
        self.script = script
        self.path: "list[int]" = []
        self.done = False
        self.failed = False
        self.due = 0.0

    def request(self) -> NextStepRequest:
        history, objective, user = self.script.context
        return NextStepRequest(
            history=history,
            objective=objective,
            path_so_far=tuple(self.path),
            user_index=user,
            tenant=self.script.tenant,
        )

    def is_first(self) -> bool:
        return self.script.fresh and not self.path

    def absorb(self, answer, max_length: int) -> None:
        if answer is None:
            self.done = True
            return
        self.path.append(int(answer))
        if answer == self.script.context[1] or len(self.path) >= max_length:
            self.done = True


@dataclass
class UnitResult:
    """Everything one unit measured (times in seconds unless named ``_ms``)."""

    ops: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    first_ms: "list[float]" = field(default_factory=list)
    next_ms: "list[float]" = field(default_factory=list)
    late_ms: "list[float]" = field(default_factory=list)
    fresh_sessions: int = 0
    sessions: "list[Session]" = field(default_factory=list)
    responses: list = field(default_factory=list)  # (is_first, Response), traced runs only
    counters: dict = field(default_factory=dict)  # exact counter deltas over the unit
    host_speed: float = 1.0  # KERNEL_REFERENCE_MS / the kernel's reading around the unit

    def digest(self) -> str:
        """Order-independent digest of every session's context and path."""
        lines = sorted(repr((s.script.tenant, s.script.context, s.path)) for s in self.sessions)
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# --------------------------------------------------------------------- #
# Host and process-tree probes
# --------------------------------------------------------------------- #
#: what :func:`calibrate`'s two parts read on this class of host when no
#: neighbour interferes; they only fix the scale of the calibrated metrics
KERNEL_REFERENCE_MS = 6.5
STREAM_REFERENCE_MS = 6.3
_STREAM_SHAPE = (64, 20_000)  # beam rows x catalog items: 10 MB, far out of L2
_stream_rows = None


def calibrate(stream_share: float = 0.0) -> float:
    """Milliseconds a fixed kernel takes right now, on the interpreter part's scale.

    The host's two virtual CPUs share physical cores with neighbours:
    everything — wall time and CPU time alike — runs up to ~1.4x slower
    (memory-bound code up to 2x) for a fraction of a second or for
    minutes, and nothing inside the guest sees when.  The same kernel
    timed on both sides of every unit does: ``KERNEL_REFERENCE_MS`` over
    its reading is the speed the host ran at around that unit.

    The kernel has two parts, because neighbours interfere in two ways.
    The interpreter part (a pure-Python loop, mean of two runs) slows when
    they take CPU; the stream part (one log-softmax pass over a
    ``_STREAM_SHAPE`` float64 array, the shape ``catalog_pruned`` scores)
    slows up to 1.8x more when they also take memory bandwidth.
    ``stream_share`` is the weight of the stream part: the share of the
    workload's time spent streaming arrays that size (``Spec.stream_share``).
    """
    started = time.perf_counter()
    for _ in range(2):
        total = 0
        for i in range(100_000):
            total += i * i % 7
    reading = 500.0 * (time.perf_counter() - started)
    if stream_share:
        global _stream_rows
        if _stream_rows is None:
            _stream_rows = np.random.default_rng(0).standard_normal(_STREAM_SHAPE)
        started = time.perf_counter()
        shifted = _stream_rows - _stream_rows.max(axis=1)[:, None]
        shifted - np.log(np.exp(shifted).sum(axis=1))[:, None]
        stream_ms = 1000.0 * (time.perf_counter() - started)
        reading = (1.0 - stream_share) * reading + stream_share * stream_ms * (
            KERNEL_REFERENCE_MS / STREAM_REFERENCE_MS
        )
    return reading


def _proc_cpu_s(pid: int) -> float:
    """CPU seconds of another process, at the scheduler's resolution.

    ``/proc/<pid>/stat`` counts in 10 ms ticks — 5 % of a worker's share of
    a closed unit; the process's CPU-time clock reads the same counter in
    nanoseconds (``MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)``).
    """
    try:
        return time.clock_gettime(((~pid) << 3) | 2)
    except OSError:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime + stime


def tree_cpu_s(worker_pids: "list[int]") -> float:
    """CPU seconds of this process plus the given worker processes."""
    return time.process_time() + sum(_proc_cpu_s(pid) for pid in worker_pids)


def tree_peak_rss_mb(worker_pids: "list[int]") -> float:
    """Peak resident set of this process plus the workers' (``VmHWM``)."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


# --------------------------------------------------------------------- #
# Units
# --------------------------------------------------------------------- #
def closed_unit(surface, scripts, window: int, max_length: int, worker_pids=(), keep=False):
    """Lockstep rounds with ``window`` sessions in flight.

    Every live session's next request is submitted, then all of them are
    awaited, so batch composition is a property of the script and not of
    thread timing.  A finished session is replaced by the next scripted
    one until the list runs out.
    """
    result = UnitResult()
    backlog = [Session(script) for script in reversed(scripts)]
    result.sessions = list(reversed(backlog))
    result.fresh_sessions = sum(1 for s in result.sessions if s.script.fresh)
    live = [backlog.pop() for _ in range(min(window, len(backlog)))]
    cpu_started = tree_cpu_s(worker_pids)
    started = time.perf_counter()
    while live:
        firsts = [session.is_first() for session in live]
        futures = []
        for session in live:
            try:
                futures.append(surface.serve(session.request()))
            except Exception as exc:  # noqa: BLE001 - refused at admission
                futures.append(exc)
        deadline = time.perf_counter() + OP_TIMEOUT_S
        for session, future, first in zip(live, futures, firsts):
            try:
                if isinstance(future, Exception):
                    raise future
                response = future.result(timeout=max(deadline - time.perf_counter(), 0.0))
            except Exception:  # noqa: BLE001 - errored, refused or late: a failed op
                result.failed += 1
                session.done = session.failed = True
                continue
            result.ops += 1
            session.absorb(response.answer, max_length)
            if keep:
                result.responses.append((first, response))
        live = [s for s in live if not s.done]
        while backlog and len(live) < window:
            live.append(backlog.pop())
    result.wall_s = time.perf_counter() - started
    result.cpu_s = tree_cpu_s(worker_pids) - cpu_started
    return result


def paced_unit(surface, arrivals, max_length: int, worker_pids=(), keep=False):
    """Open-loop session arrivals; think time between a reply and the next step.

    Latency runs from the instant a request was *due* (its arrival, or the
    previous reply plus the think time) to its done-callback, so a late
    generator or a blocked ``serve`` call counts against the op.
    """
    result = UnitResult()
    done: "queue.SimpleQueue" = queue.SimpleQueue()
    cpu_started = tree_cpu_s(worker_pids)
    origin = time.perf_counter()
    schedule = []
    for order, (offset, script) in enumerate(arrivals):
        session = Session(script)
        session.due = origin + offset
        result.sessions.append(session)
        schedule.append((session.due, order, session))
    result.fresh_sessions = sum(1 for s in result.sessions if s.script.fresh)
    heapq.heapify(schedule)
    order = len(schedule)
    pending = 0
    while schedule or pending:
        now = time.perf_counter()
        while schedule and schedule[0][0] <= now:
            session = heapq.heappop(schedule)[2]
            result.late_ms.append(1000.0 * (now - session.due))
            try:
                future = surface.serve(session.request())
            except Exception:  # noqa: BLE001 - refused at admission: a failed op
                result.failed += 1
                session.done = session.failed = True
                continue
            future.add_done_callback(
                lambda f, s=session, first=session.is_first(): done.put(
                    (s, first, f, time.perf_counter())
                )
            )
            pending += 1
            now = time.perf_counter()
        # Sleep until the next request is due or the next reply lands.
        timeout = schedule[0][0] - now if schedule else OP_TIMEOUT_S
        try:
            item = done.get(timeout=max(timeout, 0.0))
        except queue.Empty:
            if not schedule:
                result.failed += pending  # not answered within the limit
                break
            continue
        while item is not None:
            session, first, future, finished = item
            pending -= 1
            latency_ms = 1000.0 * (finished - session.due)
            if future.exception() is not None or latency_ms > 1000.0 * OP_TIMEOUT_S:
                result.failed += 1
                session.done = session.failed = True
            else:
                response = future.result()
                result.ops += 1
                (result.first_ms if first else result.next_ms).append(latency_ms)
                if keep:
                    result.responses.append((first, response))
                session.absorb(response.answer, max_length)
                if not session.done:
                    session.due = finished + THINK_TIME_S
                    order += 1
                    heapq.heappush(schedule, (session.due, order, session))
            try:
                item = done.get_nowait()
            except queue.Empty:
                item = None
    result.wall_s = time.perf_counter() - origin
    result.cpu_s = tree_cpu_s(worker_pids) - cpu_started
    return result

"""Length-prefixed binary wire protocol for distributed serving.

Every message between a :class:`~repro.distributed.remote.RemoteReplicaSet`
and its :class:`~repro.distributed.worker.ReplicaWorker` processes is one
*frame*: a fixed :data:`FRAME_HEADER` (payload length + frame type) followed
by the payload.  The hot path — request and response batches — is
struct-packed with batched encode/decode so serialization cost is a few
hundred nanoseconds per request (the e2e probes
``distributed.encode_us_per_req`` / ``decode_us_per_req``); control frames
(hello, stats, the refit's prepare / commit exchange) are JSON, where
schema flexibility matters more than nanoseconds; a heartbeat is an empty
frame.

The payloads deliberately carry **durations, never timestamps**:
``time.perf_counter()`` values are process-local (each process picks its
own epoch), so a worker-side ``enqueued_at`` compared against a
parent-side ``completed_at`` would produce garbage latencies — negative or
off by the processes' epoch skew.  A response record therefore ships the
worker-measured queue-wait and service *durations*; the parent stamps
arrival/completion on its own clock.  A request's ``deadline`` follows the
same rule: the record carries the *budget left* when it was packed
(``inf`` = no deadline) and the decoder turns it back into an instant of
its own clock, so ``deadline`` means the same on every transport — the
worker loop's admission refuses an expired request with a typed error
that round-trips (``DeadlineExceeded``, a ``QueueFullError``).

Record layouts (network order; the ``struct`` formats live next to the
codecs below):

* **request** — ``id kind objective user max_length hist_len path_len
  tenant_len budget_s``, then the history and path items as i64 and the
  utf-8 tenant id;
* **response, ok** — ``id status=0 answer_kind generation batch_tag
  queue_wait_s service_s item_count``, then the items as i64.  Four answer
  kinds: ``0`` none, ``1`` one item, ``2`` a path (a list) and ``3`` a
  **plan** — sent for a ``next_step`` in place of its answer: the items are
  the plan tuple the worker's serving cache holds for the request's context
  after answering it, of which the request's ``path_so_far`` is a prefix
  and whose next item (or end) *is* the answer.  The parent derives the
  answer from its own copy of ``path_so_far`` and keeps the plan
  (:class:`ResponseRecord.plan`);
* **response, error** — ``id status=1 name_len message_len``, then the
  utf-8 exception class name and message.

Framing is symmetric: both ends speak :func:`send_frame` /
:func:`recv_frame` over a ``SOCK_STREAM`` socket.  ``recv_frame`` returns
``None`` on a clean EOF (the peer closed), which the reader threads treat
as the connection-level death signal of the failure detector.
"""

from __future__ import annotations

import json
import math
import struct
import threading
import time

from repro.serve.request import ServeRequest
from repro.utils.exceptions import (
    ConfigurationError,
    DeadlineExceeded,
    QueueFullError,
    ServingError,
    StaleGenerationError,
)

__all__ = [
    "FrameType",
    "ResponseRecord",
    "send_frame",
    "recv_frame",
    "encode_request_batch",
    "decode_request_batch",
    "encode_response_batch",
    "decode_response_batch",
    "encode_json",
    "decode_json",
    "exception_from_record",
    "plan_step",
]


class FrameType:
    """One byte on the wire naming what the payload is."""

    HELLO = 1  # worker -> parent: JSON identity/capabilities after startup
    REQUEST_BATCH = 2  # parent -> worker: struct-packed request envelopes
    RESPONSE_BATCH = 3  # worker -> parent: struct-packed answers/errors
    HEARTBEAT = 4  # worker -> parent: empty payload, a liveness beat
    STATS_REQUEST = 5  # parent -> worker: empty payload
    STATS_RESPONSE = 6  # worker -> parent: JSON ServingLoop/replica stats
    REFIT = 7  # parent -> worker: JSON prepare / commit / abort of one refit
    REFIT_ACK = 8  # worker -> parent: JSON prepared (artifact metas) / failed / committed
    SHUTDOWN = 9  # parent -> worker: drain dry and exit

    NAMES = {
        1: "hello",
        2: "request_batch",
        3: "response_batch",
        4: "heartbeat",
        5: "stats_request",
        6: "stats_response",
        7: "refit",
        8: "refit_ack",
        9: "shutdown",
    }


#: ``!IB`` — payload byte length (u32) + frame type (u8), network order.
FRAME_HEADER = struct.Struct("!IB")

#: Upper bound on one frame's payload: catches a corrupted/desynced header
#: before it turns into a multi-gigabyte allocation.  The largest legitimate
#: frames — a response batch of a whole drained micro-batch (plans
#: included) and a worker's STATS JSON — are kilobytes to a few megabytes,
#: far under this.
MAX_PAYLOAD_BYTES = 1 << 30

# Request record: id(u64) kind(u8) objective(q) user(q, -1=None)
# max_length(i, -1=None) hist_len(I) path_len(I) tenant_len(H)
# budget_s(d, inf=no deadline); items follow as i64, then the utf-8 tenant
# id (tenant_len 0 = untenanted — tenant names are validated non-empty at
# registration, so 0 is unambiguous).  ``budget_s`` is what is left of the
# request's ``deadline`` when the record is packed; the decoder re-anchors it
# on its own clock.
_REQUEST_FIXED = struct.Struct("!QBqqiIIHd")
#: The request kinds on the wire; any other code is refused at decode.
_KIND_CODES = {"next_step": 0, "plan_paths": 1}
_KIND_NAMES = {code: name for name, code in _KIND_CODES.items()}

# Response record (ok): id(u64) status(u8=0) answer_kind(u8)
# generation(q, -1=None) batch_tag(q, -1=None) queue_wait_s(d) service_s(d)
# item_count(I); answer items follow as i64.  Answer kind 3 carries no
# answer but the PLAN that gave it — the worker's serving-cache entry for the
# request's context, of which the request's ``path_so_far`` is a prefix; the
# parent reads the answer off it at ``len(path_so_far)`` and keeps the plan.
_RESPONSE_OK = struct.Struct("!QBBqqddI")
# Response record (error): id(u64) status(u8=1) name_len(H) message_len(I);
# utf-8 exception name + message follow.
_RESPONSE_ERR = struct.Struct("!QBHI")
_ANSWER_NONE = 0
_ANSWER_INT = 1
_ANSWER_PATH = 2
_ANSWER_PLAN = 3

_COUNT = struct.Struct("!I")

#: Exception classes a worker's error response may legally reconstruct as.
#: Anything else (a planner bug's ValueError, say) maps to ServingError with
#: the original class name preserved in the message.
_WIRE_EXCEPTIONS = {
    cls.__name__: cls
    for cls in (
        ConfigurationError,
        DeadlineExceeded,
        QueueFullError,
        ServingError,
        StaleGenerationError,
    )
}


class ResponseRecord:
    """One decoded response: an answer (or the ``plan`` to read it off, in
    which case ``answer`` is ``None``) or a remote error, plus the
    worker-measured durations (worker-clock; see the module docstring)."""

    __slots__ = (
        "request_id",
        "ok",
        "answer",
        "plan",
        "served_generation",
        "batch_tag",
        "queue_wait_s",
        "service_s",
        "error_name",
        "error_message",
    )

    def __init__(
        self,
        request_id: int,
        ok: bool,
        answer=None,
        served_generation: "int | None" = None,
        batch_tag: "int | None" = None,
        queue_wait_s: float = 0.0,
        service_s: float = 0.0,
        error_name: "str | None" = None,
        error_message: "str | None" = None,
        plan: "tuple[int, ...] | None" = None,
    ) -> None:
        self.request_id = request_id
        self.ok = ok
        self.answer = answer
        self.plan = plan
        self.served_generation = served_generation
        self.batch_tag = batch_tag
        self.queue_wait_s = queue_wait_s
        self.service_s = service_s
        self.error_name = error_name
        self.error_message = error_message


# --------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------- #
def send_frame(sock, frame_type: int, payload: bytes = b"", lock: "threading.Lock | None" = None) -> int:
    """Write one frame; returns bytes written.  ``lock`` (when given)
    serialises concurrent senders so interleaved frames cannot tear."""
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ServingError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte wire bound"
        )
    frame = FRAME_HEADER.pack(len(payload), frame_type) + payload
    if lock is None:
        sock.sendall(frame)
    else:
        with lock:
            sock.sendall(frame)
    return len(frame)


def _recv_exact(sock, count: int) -> "bytes | None":
    """Read exactly ``count`` bytes; ``None`` on EOF at a frame boundary,
    ServingError on EOF mid-frame (a torn write — the peer died sending)."""
    chunks: "list[bytes]" = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count and not chunks:
                return None
            raise ServingError(
                f"connection closed mid-frame ({count - remaining} of {count} "
                "bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks) if len(chunks) != 1 else chunks[0]


def recv_frame(sock) -> "tuple[int, bytes] | None":
    """Read one frame; ``None`` on clean EOF (the peer closed)."""
    header = _recv_exact(sock, FRAME_HEADER.size)
    if header is None:
        return None
    length, frame_type = FRAME_HEADER.unpack(header)
    if length > MAX_PAYLOAD_BYTES:
        raise ServingError(
            f"frame header announces {length} bytes (> {MAX_PAYLOAD_BYTES}); "
            "the stream is desynchronized"
        )
    if length == 0:
        return frame_type, b""
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ServingError("connection closed between frame header and payload")
    return frame_type, payload


# --------------------------------------------------------------------- #
# Request batches (parent -> worker)
# --------------------------------------------------------------------- #
def encode_request_batch(entries: "list[tuple[int, ServeRequest]]") -> bytes:
    """Pack ``(request_id, envelope)`` pairs into one REQUEST_BATCH payload."""
    parts = [_COUNT.pack(len(entries))]
    for request_id, request in entries:
        history = request.history
        path = request.path_so_far
        tenant = b"" if request.tenant is None else request.tenant.encode("utf-8")
        deadline = request.deadline
        parts.append(
            _REQUEST_FIXED.pack(
                request_id,
                _KIND_CODES[request.kind],
                request.objective,
                -1 if request.user_index is None else request.user_index,
                -1 if request.max_length is None else request.max_length,
                len(history),
                len(path),
                len(tenant),
                math.inf if deadline is None else deadline - time.perf_counter(),
            )
        )
        if history:
            parts.append(struct.pack(f"!{len(history)}q", *history))
        if path:
            parts.append(struct.pack(f"!{len(path)}q", *path))
        if tenant:
            parts.append(tenant)
    return b"".join(parts)


def decode_request_batch(payload: bytes) -> "list[tuple[int, ServeRequest]]":
    """Unpack a REQUEST_BATCH payload into fresh envelopes (each with its
    own worker-side :class:`~concurrent.futures.Future`; a shipped budget
    becomes a ``deadline`` on THIS process's clock)."""
    (count,) = _COUNT.unpack_from(payload, 0)
    offset = _COUNT.size
    entries: "list[tuple[int, ServeRequest]]" = []
    for _ in range(count):
        (
            request_id,
            kind_code,
            objective,
            user_index,
            max_length,
            hist_len,
            path_len,
            tenant_len,
            budget_s,
        ) = _REQUEST_FIXED.unpack_from(payload, offset)
        kind = _KIND_NAMES.get(kind_code)
        if kind is None:
            raise ServingError(f"unknown request kind code {kind_code} on the wire")
        offset += _REQUEST_FIXED.size
        history = struct.unpack_from(f"!{hist_len}q", payload, offset)
        offset += 8 * hist_len
        path = struct.unpack_from(f"!{path_len}q", payload, offset)
        offset += 8 * path_len
        tenant = payload[offset : offset + tenant_len].decode("utf-8") or None
        offset += tenant_len
        entries.append(
            (
                request_id,
                ServeRequest(
                    kind=kind,
                    history=history,
                    objective=objective,
                    path_so_far=path,
                    user_index=None if user_index < 0 else user_index,
                    max_length=None if max_length < 0 else max_length,
                    tenant=tenant,
                    deadline=(
                        None if budget_s == math.inf else time.perf_counter() + budget_s
                    ),
                ),
            )
        )
    return entries


# --------------------------------------------------------------------- #
# Response batches (worker -> parent)
# --------------------------------------------------------------------- #
def encode_response_batch(records: "list[ResponseRecord]") -> bytes:
    """Pack answered/errored requests into one RESPONSE_BATCH payload."""
    parts = [_COUNT.pack(len(records))]
    for record in records:
        if record.ok:
            answer = record.answer
            if record.plan is not None:
                answer_kind, items = _ANSWER_PLAN, record.plan
            elif answer is None:
                answer_kind, items = _ANSWER_NONE, ()
            elif isinstance(answer, int):
                answer_kind, items = _ANSWER_INT, (answer,)
            else:
                answer_kind, items = _ANSWER_PATH, tuple(int(item) for item in answer)
            parts.append(
                _RESPONSE_OK.pack(
                    record.request_id,
                    0,
                    answer_kind,
                    -1 if record.served_generation is None else record.served_generation,
                    -1 if record.batch_tag is None else record.batch_tag,
                    record.queue_wait_s,
                    record.service_s,
                    len(items),
                )
            )
            if items:
                parts.append(struct.pack(f"!{len(items)}q", *items))
        else:
            name = (record.error_name or "ServingError").encode("utf-8")
            message = (record.error_message or "").encode("utf-8")
            parts.append(_RESPONSE_ERR.pack(record.request_id, 1, len(name), len(message)))
            parts.append(name)
            parts.append(message)
    return b"".join(parts)


def decode_response_batch(payload: bytes) -> "list[ResponseRecord]":
    (count,) = _COUNT.unpack_from(payload, 0)
    offset = _COUNT.size
    records: "list[ResponseRecord]" = []
    for _ in range(count):
        status = payload[offset + 8]
        if status == 0:
            (
                request_id,
                _,
                answer_kind,
                generation,
                batch_tag,
                queue_wait_s,
                service_s,
                item_count,
            ) = _RESPONSE_OK.unpack_from(payload, offset)
            offset += _RESPONSE_OK.size
            items = struct.unpack_from(f"!{item_count}q", payload, offset)
            offset += 8 * item_count
            plan = None
            if answer_kind == _ANSWER_NONE:
                answer = None
            elif answer_kind == _ANSWER_INT:
                answer = items[0]
            elif answer_kind == _ANSWER_PATH:
                answer = list(items)
            else:
                answer, plan = None, items
            records.append(
                ResponseRecord(
                    request_id,
                    True,
                    answer=answer,
                    plan=plan,
                    served_generation=None if generation < 0 else generation,
                    batch_tag=None if batch_tag < 0 else batch_tag,
                    queue_wait_s=queue_wait_s,
                    service_s=service_s,
                )
            )
        else:
            request_id, _, name_len, message_len = _RESPONSE_ERR.unpack_from(
                payload, offset
            )
            offset += _RESPONSE_ERR.size
            name = payload[offset : offset + name_len].decode("utf-8")
            offset += name_len
            message = payload[offset : offset + message_len].decode("utf-8")
            offset += message_len
            records.append(
                ResponseRecord(
                    request_id, False, error_name=name, error_message=message
                )
            )
    return records


def plan_step(plan: "tuple[int, ...]", path_so_far: "tuple[int, ...]") -> "int | None":
    """The ``next_step`` answer ``plan`` gives a request whose ``path_so_far``
    is a prefix of it: the next planned item, ``None`` past the plan's end —
    how both ends read an answer-kind-3 record."""
    served = len(path_so_far)
    return plan[served] if len(plan) > served else None


def exception_from_record(record: ResponseRecord) -> Exception:
    """Rebuild a caller-visible exception from an error response.

    Exceptions in the package hierarchy round-trip as themselves (the
    ``reject`` admission policy's :class:`QueueFullError` must stay
    catchable as QueueFullError through the transport); anything else
    becomes a :class:`ServingError` that names the original class.
    """
    cls = _WIRE_EXCEPTIONS.get(record.error_name or "")
    if cls is not None:
        return cls(record.error_message or "")
    return ServingError(
        f"remote worker error ({record.error_name}): {record.error_message}"
    )


# --------------------------------------------------------------------- #
# JSON control payloads
# --------------------------------------------------------------------- #
def encode_json(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")


def decode_json(payload: bytes) -> dict:
    return json.loads(payload.decode("utf-8"))

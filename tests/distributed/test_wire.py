"""Unit coverage of the binary wire codec (no processes involved)."""

from __future__ import annotations

import socket
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import wire
from repro.distributed.wire import FrameType
from repro.serve.request import ServeRequest
from repro.utils.exceptions import (
    ConfigurationError,
    DeadlineExceeded,
    QueueFullError,
    ServingError,
    StaleGenerationError,
)


def _request(kind="next_step", **kwargs):
    kwargs.setdefault("history", (1, 2, 3))
    kwargs.setdefault("objective", 7)
    return ServeRequest.create(kind, kwargs.pop("history"), kwargs.pop("objective"), **kwargs)


class TestRequestCodec:
    def test_roundtrip_preserves_every_field(self):
        requests = [
            _request(path_so_far=(4, 5), user_index=2),
            _request(kind="plan_paths", history=(9,), objective=1, max_length=4),
            _request(user_index=None),
        ]
        payload = wire.encode_request_batch(list(enumerate(requests, start=10)))
        decoded = wire.decode_request_batch(payload)
        assert [rid for rid, _ in decoded] == [10, 11, 12]
        for (_, got), sent in zip(decoded, requests):
            assert got.kind == sent.kind
            assert got.history == sent.history
            assert got.objective == sent.objective
            assert got.path_so_far == sent.path_so_far
            assert got.user_index == sent.user_index
            assert got.max_length == sent.max_length

    def test_tenant_and_both_kinds_round_trip(self):
        requests = [
            _request(history=(1, 2), objective=5, path_so_far=(9,), tenant="zoo"),
            _request(kind="plan_paths", history=(4,), objective=11, tenant="irs-tenant"),
            _request(tenant=None),
            _request(kind="plan_paths", max_length=3, tenant="a"),
        ]
        payload = wire.encode_request_batch(list(enumerate(requests)))
        decoded = wire.decode_request_batch(payload)
        for (_, got), sent in zip(decoded, requests):
            assert got.kind == sent.kind
            assert got.tenant == sent.tenant
            assert got.history == sent.history
            assert got.objective == sent.objective
            assert got.path_so_far == sent.path_so_far

    @pytest.mark.parametrize("code", [2, 3, 255])
    def test_an_unknown_kind_code_is_a_serving_error_naming_it(self, code):
        payload = bytearray(wire.encode_request_batch([(0, _request())]))
        payload[wire._COUNT.size + 8] = code  # the kind byte follows the u64 id
        with pytest.raises(ServingError, match=f"kind code {code}"):
            wire.decode_request_batch(bytes(payload))

    def test_a_deadline_crosses_as_the_budget_left_and_none_stays_none(self):
        """A duration, never a timestamp: the decoder re-anchors what was
        left of the budget at encode time on its own clock."""
        now = time.perf_counter()
        requests = [
            _request(deadline=now + 5.0),
            _request(deadline=None),
            _request(kind="plan_paths", deadline=now - 1.0),
        ]
        payload = wire.encode_request_batch(list(enumerate(requests)))
        packed = time.perf_counter()
        decoded = [request for _, request in wire.decode_request_batch(payload)]
        unpacked = time.perf_counter()
        assert decoded[1].deadline is None
        # What was left at some instant in [now, packed], re-anchored at some
        # instant in [packed, unpacked]: never earlier than the caller's own
        # deadline (transit is invisible without a shared clock), never more
        # budget than the caller gave.
        assert now + 5.0 <= decoded[0].deadline <= unpacked + 5.0
        assert decoded[2].deadline <= unpacked - 1.0  # expired stays expired

    def test_decoded_envelope_owns_a_fresh_future(self):
        request = _request()
        payload = wire.encode_request_batch([(1, request)])
        [(_, decoded)] = wire.decode_request_batch(payload)
        assert decoded.future is not request.future
        assert not decoded.future.done()


class TestResponseCodec:
    def test_ok_roundtrip_for_both_answer_kinds(self):
        payload = wire.encode_response_batch(
            [
                wire.ResponseRecord(
                    5,
                    True,
                    answer=[3, 1, 2],
                    served_generation=4,
                    batch_tag=9,
                    queue_wait_s=0.25,
                    service_s=0.5,
                ),
                wire.ResponseRecord(
                    6, True, answer=17, served_generation=4, batch_tag=10,
                    queue_wait_s=0.0, service_s=0.125,
                ),
                wire.ResponseRecord(7, True, answer=None),
            ]
        )
        records = wire.decode_response_batch(payload)
        assert [r.request_id for r in records] == [5, 6, 7]
        assert records[0].answer == [3, 1, 2]
        assert isinstance(records[0].answer, list)
        assert records[0].served_generation == 4
        assert records[0].batch_tag == 9
        assert records[0].queue_wait_s == pytest.approx(0.25)
        assert records[0].service_s == pytest.approx(0.5)
        assert records[1].answer == 17
        assert isinstance(records[1].answer, int)
        assert records[2].answer is None

    def test_a_plan_crosses_in_place_of_the_answer(self):
        """The fourth answer kind: the plan a ``next_step`` was answered from
        (the parent reads the answer off it at ``len(path_so_far)``)."""
        record = wire.ResponseRecord(
            8, True, answer=4, plan=(9, 4, 2), served_generation=3, batch_tag=11,
            queue_wait_s=0.5, service_s=0.75,
        )
        finished = wire.ResponseRecord(9, True, answer=None, plan=(9, 4))
        empty = wire.ResponseRecord(10, True, answer=None, plan=())
        decoded = wire.decode_response_batch(
            wire.encode_response_batch([record, finished, empty])
        )
        assert [r.plan for r in decoded] == [(9, 4, 2), (9, 4), ()]
        assert [r.answer for r in decoded] == [None, None, None]
        assert decoded[0].ok and decoded[0].served_generation == 3
        assert (decoded[0].batch_tag, decoded[0].queue_wait_s, decoded[0].service_s) == (
            11, 0.5, 0.75,
        )
        # A plan costs its items: 8 bytes each beside the fixed row.
        plain = wire.ResponseRecord(8, True, answer=4)
        assert len(wire.encode_response_batch([record])) == (
            len(wire.encode_response_batch([plain])) + 2 * 8
        )

    def test_rows_packed_before_the_plan_kind_decode_unchanged(self):
        """The record layout is pinned: kinds 0 / 1 / 2 read as they always
        did, and carry no plan."""
        row = struct.Struct("!QBBqqddI")
        payload = (
            struct.pack("!I", 3)
            + row.pack(1, 0, 0, -1, -1, 0.0, 0.0, 0)
            + row.pack(2, 0, 1, 5, 6, 0.25, 0.5, 1) + struct.pack("!q", 17)
            + row.pack(3, 0, 2, 5, 7, 0.0, 0.125, 2) + struct.pack("!2q", 3, 1)
        )
        none, step, path = wire.decode_response_batch(payload)
        assert (none.answer, step.answer, path.answer) == (None, 17, [3, 1])
        assert none.plan is step.plan is path.plan is None
        assert (none.served_generation, none.batch_tag) == (None, None)
        assert (step.served_generation, step.batch_tag, step.service_s) == (5, 6, 0.5)
        assert payload == wire.encode_response_batch(
            [
                wire.ResponseRecord(1, True),
                wire.ResponseRecord(2, True, answer=17, served_generation=5, batch_tag=6,
                                    queue_wait_s=0.25, service_s=0.5),
                wire.ResponseRecord(3, True, answer=[3, 1], served_generation=5, batch_tag=7,
                                    service_s=0.125),
            ]
        )

    @given(
        records=st.lists(
            st.one_of(
                st.builds(
                    dict,
                    answer=st.one_of(
                        st.none(),
                        st.integers(-(2**63), 2**63 - 1),
                        st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6),
                    ),
                    served_generation=st.one_of(st.none(), st.integers(0, 2**40)),
                    batch_tag=st.one_of(st.none(), st.integers(0, 2**63 - 1)),
                    queue_wait_s=st.floats(0.0, 1e3),
                    service_s=st.floats(0.0, 1e3),
                ),
                st.builds(
                    dict,
                    plan=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6).map(tuple),
                    served_generation=st.one_of(st.none(), st.integers(0, 2**40)),
                    batch_tag=st.one_of(st.none(), st.integers(0, 2**63 - 1)),
                ),
                st.builds(
                    dict, error_name=st.text(max_size=12), error_message=st.text(max_size=40)
                ),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_any_batch_of_the_four_answer_kinds_and_errors_round_trips(self, records):
        sent = [
            wire.ResponseRecord(index, "error_name" not in fields, **fields)
            for index, fields in enumerate(records)
        ]
        decoded = wire.decode_response_batch(wire.encode_response_batch(sent))
        assert len(decoded) == len(sent)
        for got, want in zip(decoded, sent):
            assert (got.request_id, got.ok) == (want.request_id, want.ok)
            if not want.ok:
                assert got.error_name == (want.error_name or "ServingError")
                assert got.error_message == want.error_message
                continue
            assert (got.answer, got.plan) == (want.answer, want.plan)
            assert (got.served_generation, got.batch_tag) == (
                want.served_generation, want.batch_tag,
            )
            assert (got.queue_wait_s, got.service_s) == (want.queue_wait_s, want.service_s)

    @pytest.mark.parametrize(
        "exc",
        [
            ConfigurationError("bad knob"),
            QueueFullError("queue 0 full"),
            ServingError("loop closed"),
            StaleGenerationError("generation 1 < 2"),
            DeadlineExceeded("request deadline expired 3.0ms ago"),
        ],
    )
    def test_known_exceptions_roundtrip_to_same_type(self, exc):
        record = wire.ResponseRecord(
            3, False, error_name=type(exc).__name__, error_message=str(exc)
        )
        [decoded] = wire.decode_response_batch(wire.encode_response_batch([record]))
        assert not decoded.ok
        rebuilt = wire.exception_from_record(decoded)
        assert type(rebuilt) is type(exc)
        assert str(exc) in str(rebuilt)

    def test_unknown_exception_degrades_to_serving_error_naming_it(self):
        record = wire.ResponseRecord(
            3, False, error_name="KeyError", error_message="whoops"
        )
        [decoded] = wire.decode_response_batch(wire.encode_response_batch([record]))
        rebuilt = wire.exception_from_record(decoded)
        assert isinstance(rebuilt, ServingError)
        assert "KeyError" in str(rebuilt)


class TestHeartbeatCodec:
    def test_roundtrip(self):
        hb = wire.encode_heartbeat(
            index=3,
            seq=42,
            generation=2,
            inflight=5,
            dispatched=100,
            completed=95,
            queued=4,
            latency_samples=64,
            ewma_depth=1.5,
            p95_ms=12.25,
        )
        decoded = wire.decode_heartbeat(hb)
        assert decoded.index == 3
        assert decoded.seq == 42
        assert decoded.generation == 2
        assert not hasattr(decoded, "healthy")  # liveness is the parent's verdict
        assert decoded.inflight == 5
        assert (decoded.dispatched, decoded.completed) == (100, 95)
        assert decoded.queued == 4
        assert decoded.latency_samples == 64
        assert decoded.ewma_depth == pytest.approx(1.5)
        assert decoded.p95_ms == pytest.approx(12.25)


class TestFraming:
    def test_send_recv_roundtrip_over_a_socketpair(self):
        a, b = socket.socketpair()
        try:
            sent = wire.send_frame(a, FrameType.HEARTBEAT, b"payload")
            assert sent == wire.FRAME_HEADER.size + len("payload")
            frame_type, payload = wire.recv_frame(b)
            assert frame_type == FrameType.HEARTBEAT
            assert payload == b"payload"
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert wire.recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(wire.FRAME_HEADER.pack(100, FrameType.REQUEST_BATCH) + b"short")
            a.close()
            with pytest.raises(ServingError, match="mid-frame"):
                wire.recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected_at_both_ends(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_PAYLOAD_BYTES", 64)
        a, b = socket.socketpair()
        try:
            with pytest.raises(ServingError, match="wire bound"):
                wire.send_frame(a, FrameType.REQUEST_BATCH, b"x" * 65)
            a.sendall(wire.FRAME_HEADER.pack(65, FrameType.REQUEST_BATCH))
            with pytest.raises(ServingError, match="desynchronized"):
                wire.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_json_frames_roundtrip(self):
        payload = wire.encode_json({"b": 2, "a": [1, None, "x"]})
        assert wire.decode_json(payload) == {"a": [1, None, "x"], "b": 2}

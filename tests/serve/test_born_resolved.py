"""A born-resolved future behaves as a resolved ``concurrent.futures.Future``.

A request answered before anyone read its future (a resident step, on
either front-end) resolves to a ``_Resolved`` future: built finished, with
no lock until ``concurrent.futures.wait`` / ``as_completed`` or ``repr``
asks for one.  Every check here holds it to a plain ``Future`` completed
with ``set_result`` — the subclass meets private ``concurrent.futures``
attributes (the condition, the waiter list, the state), so this is what
catches an interpreter whose ``Future`` reads them differently.
"""

from __future__ import annotations

import concurrent.futures
import logging
import re
import threading
from concurrent.futures import (
    ALL_COMPLETED,
    FIRST_COMPLETED,
    FIRST_EXCEPTION,
    Future,
    InvalidStateError,
)

import pytest

from repro.serve.request import ServeRequest, _Resolved

ANSWER = 7


def _pair(answer=ANSWER):
    """(born resolved, a real Future resolved with ``set_result``)."""
    real = Future()
    real.set_result(answer)
    return _Resolved(answer), real


def _resolve_later(future: Future, answer=None, exc=None, delay: float = 0.02) -> threading.Timer:
    def complete():
        if exc is None:
            future.set_result(answer)
        else:
            future.set_exception(exc)

    timer = threading.Timer(delay, complete)
    timer.start()
    return timer


class TestReads:
    def test_it_is_a_future(self):
        born, _ = _pair()
        assert isinstance(born, Future)

    @pytest.mark.parametrize("timeout", [None, 0, 0.5])
    def test_result_and_exception_with_and_without_a_timeout(self, timeout):
        born, real = _pair()
        assert born.result(timeout) == real.result(timeout) == ANSWER
        assert born.result(timeout=timeout) == real.result(timeout=timeout)
        assert born.exception(timeout) is real.exception(timeout) is None

    def test_a_none_answer_is_a_result_like_any_other(self):
        born, real = _pair(None)
        assert born.result() is real.result() is None
        assert born.exception() is real.exception() is None

    def test_state_predicates(self):
        born, real = _pair()
        for future in (born, real):
            assert future.done() is True
            assert future.running() is False
            assert future.cancelled() is False

    def test_no_condition_until_one_is_asked_for(self):
        born, _ = _pair()
        born.result(0)
        born.exception(0)
        born.done()
        born.cancel()
        born.add_done_callback(lambda future: None)
        assert "_condition" not in vars(born)
        condition = born._condition
        assert born._condition is condition  # made once


class TestWrites:
    def test_cancel_returns_false_and_leaves_the_result(self):
        born, real = _pair()
        assert born.cancel() is real.cancel() is False
        assert born.result() == real.result() == ANSWER
        assert not born.cancelled() and not real.cancelled()

    def test_completing_again_raises(self):
        for future in _pair():
            with pytest.raises(InvalidStateError):
                future.set_result(1)
            with pytest.raises(InvalidStateError):
                future.set_exception(ValueError("late"))
            assert future.result() == ANSWER

    def test_set_running_or_notify_cancel_raises(self, caplog):
        for future in _pair():
            with caplog.at_level(logging.CRITICAL, logger="concurrent.futures"):
                with pytest.raises(RuntimeError, match="unexpected state"):
                    future.set_running_or_notify_cancel()


class TestDoneCallbacks:
    def test_a_callback_runs_at_once_on_the_calling_thread(self):
        for future in _pair():
            seen = []
            future.add_done_callback(lambda f: seen.append((f, threading.get_ident())))
            assert seen == [(future, threading.get_ident())]

    def test_a_raising_callback_is_logged_not_propagated(self, caplog):
        logged = []
        for future in _pair():
            caplog.clear()

            def boom(f):
                raise ValueError("callback failed")

            with caplog.at_level(logging.ERROR, logger="concurrent.futures"):
                future.add_done_callback(boom)  # must not raise
            (record,) = caplog.records
            assert record.name == "concurrent.futures"
            assert record.exc_info[0] is ValueError
            logged.append(re.sub(r"<\w+ at 0x[0-9a-f]+", "<F", record.getMessage()))
        assert logged[0] == logged[1]


class TestWaitAndAsCompleted:
    """``wait`` / ``as_completed`` over born-resolved futures, real resolved
    ones and pending ones, answered the same whichever kind is resolved."""

    @pytest.mark.parametrize("kind", ["born", "real"])
    def test_first_completed_returns_the_resolved_at_once(self, kind):
        resolved = [_pair(i)[kind == "real"] for i in range(2)]
        pending = [Future(), Future()]
        done, not_done = concurrent.futures.wait(
            resolved + pending, timeout=5, return_when=FIRST_COMPLETED
        )
        assert done == set(resolved) and not_done == set(pending)
        for future in resolved + pending:
            assert future._waiters == []

    @pytest.mark.parametrize("kind", ["born", "real"])
    def test_all_completed_waits_for_the_pending(self, kind):
        resolved = [_pair(i)[kind == "real"] for i in range(2)]
        pending = Future()
        done, not_done = concurrent.futures.wait(
            resolved + [pending], timeout=0.01, return_when=ALL_COMPLETED
        )
        assert done == set(resolved) and not_done == {pending}
        timer = _resolve_later(pending, answer=3)
        done, not_done = concurrent.futures.wait(
            resolved + [pending], timeout=5, return_when=ALL_COMPLETED
        )
        timer.join()
        assert done == set(resolved) | {pending} and not not_done
        for future in resolved + [pending]:
            assert future._waiters == []

    @pytest.mark.parametrize("kind", ["born", "real"])
    def test_first_exception_waits_past_resolved_results(self, kind):
        resolved = [_pair(i)[kind == "real"] for i in range(2)]
        failing, quiet = Future(), Future()
        timer = _resolve_later(failing, exc=ValueError("planned"))
        done, not_done = concurrent.futures.wait(
            resolved + [failing, quiet], timeout=5, return_when=FIRST_EXCEPTION
        )
        timer.join()
        assert done == set(resolved) | {failing} and not_done == {quiet}
        assert isinstance(failing.exception(), ValueError)

    def test_all_resolved_returns_without_a_waiter(self):
        futures = [future for i in range(3) for future in _pair(i)]
        for return_when in (FIRST_COMPLETED, FIRST_EXCEPTION, ALL_COMPLETED):
            done, not_done = concurrent.futures.wait(futures, timeout=0, return_when=return_when)
            assert done == set(futures) and not not_done

    @pytest.mark.parametrize("kind", ["born", "real"])
    def test_as_completed_yields_the_resolved_then_the_pending(self, kind):
        resolved = [_pair(i)[kind == "real"] for i in range(3)]
        pending = Future()
        timer = _resolve_later(pending, answer=9)
        order = list(concurrent.futures.as_completed(resolved + [pending], timeout=5))
        timer.join()
        assert set(order[:3]) == set(resolved) and order[3] is pending
        assert [future.result() for future in order[3:]] == [9]
        for future in resolved + [pending]:
            assert future._waiters == []

    def test_as_completed_times_out_on_a_pending_one(self):
        born, _ = _pair()
        pending = Future()
        seen = []
        with pytest.raises(concurrent.futures.TimeoutError):
            for future in concurrent.futures.as_completed([born, pending], timeout=0.01):
                seen.append(future)
        assert seen == [born]
        assert born._waiters == [] and pending._waiters == []

    def test_two_threads_waiting_on_one_born_future(self):
        born, _ = _pair()
        results = []

        def wait():
            for _ in range(200):
                done, _ = concurrent.futures.wait([born, Future()], return_when=FIRST_COMPLETED)
                results.append(done == {born})

        threads = [threading.Thread(target=wait) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert results == [True] * 400 and born._waiters == []


def test_repr_matches_a_resolved_future():
    born, real = _pair()
    shape = re.compile(r"<(\w+) at 0x[0-9a-f]+ (.*)>")
    born_shape, real_shape = shape.fullmatch(repr(born)), shape.fullmatch(repr(real))
    assert born_shape.group(1) == "_Resolved" and real_shape.group(1) == "Future"
    assert born_shape.group(2) == real_shape.group(2) == "state=finished returned int"


class TestServeRequestFutures:
    """Which future a request ends up holding."""

    def _request(self) -> ServeRequest:
        return ServeRequest.create("next_step", (1, 2, 3), 9)

    def test_resolved_before_any_read_is_born_resolved(self):
        request = self._request()
        request.resolve(4)
        assert type(request.future) is _Resolved
        assert request.future.result() == 4

    def test_read_before_resolution_is_a_real_future(self):
        request = self._request()
        future = request.future
        assert type(future) is Future and not future.done()
        request.resolve(4)
        assert request.future is future and future.result(0) == 4

    def test_a_failure_completes_a_real_future(self):
        request = self._request()
        request.fail(ValueError("no plan"))
        assert type(request.future) is Future
        assert isinstance(request.future.exception(0), ValueError)

    def test_the_lift_runs_on_both_paths(self):
        for read_first in (False, True):
            request = self._request()
            request.lift = lambda envelope, answer: ("lifted", answer)
            if read_first:
                request.future
            request.resolve(4)
            assert request.future.result(0) == ("lifted", 4)

    def test_requests_are_equal_only_to_themselves(self):
        first, second = self._request(), self._request()
        assert first == first and first != second

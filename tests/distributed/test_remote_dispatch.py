"""Where the process fleet places work: by what the parent itself sees.

The :class:`~repro.replica.dispatch.Dispatcher` scores each worker by the
requests on its wire, as the parent's own pending table counts them.  A
worker that cannot answer (here: stopped) keeps its request pending, so it
loses every new request from the next pick on, while the failure detector
has not suspected it yet.
"""

from __future__ import annotations

import os
import signal

from repro.distributed import RemoteReplicaSet
from repro.serve import ServingLoop
from repro.serve.api import PlanRequest

from tests.distributed.conftest import HEARTBEAT_INTERVAL


class TestStalledWorker:
    def test_new_requests_route_around_a_stalled_worker(
        self, make_factory, remote_contexts
    ):
        requests = [
            PlanRequest(history=tuple(history), objective=objective, user_index=user)
            for history, objective, user in remote_contexts[:6]
        ]
        with ServingLoop(make_factory()()) as loop:
            expected = [loop.serve(request).result(timeout=30).answer for request in requests]
        with RemoteReplicaSet(
            make_factory(),
            num_replicas=2,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            # Never suspected during the test: routing alone must avoid it.
            heartbeat_misses=1000,
        ) as remote_set:
            stalled, survivor = remote_set.active_replicas()
            os.kill(stalled.worker.pid, signal.SIGSTOP)
            try:
                futures = [remote_set.serve(requests[0])]
                # Nothing was on either wire: the first request takes slot 0.
                assert (stalled.stats()["pending"], stalled.stats()["dispatched"]) == (1, 1)
                for request in requests[1:]:
                    futures.append(remote_set.serve(request))
                    # Slot 0 still holds a request on its wire: the next goes
                    # to the idle survivor, every time.
                    assert stalled.stats()["dispatched"] == 1
                    assert futures[-1].result(timeout=30).replica_index == survivor.index
                assert stalled.healthy
            finally:
                os.kill(stalled.worker.pid, signal.SIGCONT)
            responses = [future.result(timeout=30) for future in futures]
        assert responses[0].replica_index == stalled.index
        assert [response.answer for response in responses] == expected

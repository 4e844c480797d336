"""End-to-end parity of multi-process serving with the in-process fleet.

Acceptance contract of the distributed-serving PR: with every worker at
one shared generation, :class:`~repro.distributed.RemoteReplicaSet`
responses are bit-identical to in-process (and therefore to sequential)
serving at 1, 2 and 4 workers.  Crossing a process boundary changes
*where* work happens, never what is answered.
"""

from __future__ import annotations

import pytest

from repro.distributed import RemoteReplicaSet
from repro.serve import replay_lockstep
from repro.serve.request import ServeRequest
from repro.utils.exceptions import ConfigurationError, ServingError

from tests.distributed.conftest import HEARTBEAT_INTERVAL, MAX_LENGTH


class TestRemoteParity:
    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_lockstep_replay_bit_identical(
        self, make_factory, remote_contexts, sequential_paths, num_workers
    ):
        with RemoteReplicaSet(
            make_factory(),
            num_replicas=num_workers,
            heartbeat_interval=HEARTBEAT_INTERVAL,
        ) as remote_set:
            served = replay_lockstep(remote_set, remote_contexts, MAX_LENGTH)
            transport = remote_set.stats()["transport"]
        assert served == sequential_paths
        # A context's later steps were answered in the parent, from the plan
        # its first response mirrored there: resident steps stay off the wire.
        assert transport["parent_answered"] > 0

    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_plan_paths_futures_match_plan_path(
        self, make_factory, remote_contexts, num_workers
    ):
        reference = make_factory()()
        expected = [
            reference.plan_path(history, objective, user_index=user)
            for history, objective, user in remote_contexts
        ]
        with RemoteReplicaSet(
            make_factory(), num_replicas=num_workers, heartbeat_interval=HEARTBEAT_INTERVAL
        ) as remote_set:
            futures = [
                remote_set.enqueue(
                    ServeRequest.create("plan_paths", history, objective, user_index=user)
                )
                for history, objective, user in remote_contexts
            ]
            answers = [future.result() for future in futures]
        assert answers == expected
        # The codec's path answers decode to plain lists, same as in-process.
        assert all(isinstance(answer, list) for answer in answers)

    def test_envelope_metadata_round_trips(self, make_factory, remote_contexts):
        with RemoteReplicaSet(
            make_factory(), num_replicas=2, heartbeat_interval=HEARTBEAT_INTERVAL
        ) as remote_set:
            history, objective, user = remote_contexts[0]
            request = ServeRequest.create(
                "plan_paths", history, objective, user_index=user
            )
            remote_set.enqueue(request).result()
        assert request.served_generation == 1
        assert request.batch_tag is not None
        assert request.replica_index in (0, 1)

    def test_stats_keep_the_replica_set_shape(self, make_factory, remote_contexts):
        with RemoteReplicaSet(
            make_factory(), num_replicas=2, heartbeat_interval=HEARTBEAT_INTERVAL
        ) as remote_set:
            replay_lockstep(remote_set, remote_contexts, MAX_LENGTH)
            stats = remote_set.stats()
        assert stats["num_replicas"] == 2
        assert stats["transport_kind"] == "process"
        assert stats["generation"] == 1
        assert stats["served"] >= len(remote_contexts)
        assert len(stats["replicas"]) == 2
        assert stats["admission"]["admitted"] == stats["served"]
        # Per-worker admission scopes survive into the fleet aggregate.
        assert sorted(
            entry["scope"] for entry in stats["admission"]["per_replica"]
        ) == ["worker-0", "worker-1"]
        assert stats["dispatch"]["replicas"] == 2
        transport = stats["transport"]
        # Every op was answered once: over the wire, or in the parent from a
        # plan an earlier response mirrored there.
        assert transport["requests_sent"] + transport["parent_answered"] == stats["served"]
        assert transport["responses"] == transport["requests_sent"]
        assert 0 < transport["parent_answered"] <= stats["resident"]
        assert transport["plans_received"] >= len(remote_contexts)
        assert transport["redispatched"] == 0
        assert transport["duplicate_responses"] == 0
        assert [a["name"] for a in transport["artifacts"]] == ["model_weights"]

    def test_remote_errors_surface_on_the_callers_future(self, make_factory):
        """A worker-side planner failure travels back as an exception that
        names the original class — never a hung or dropped future."""
        with RemoteReplicaSet(
            make_factory(), num_replicas=1, heartbeat_interval=HEARTBEAT_INTERVAL
        ) as remote_set:
            # Out-of-vocabulary history: the worker's backbone raises
            # IndexError, which is outside the wire's exception allow-list
            # and therefore degrades to ServingError naming it.
            failed = ServeRequest.create("plan_paths", [999_999], 3)
            with pytest.raises(ServingError, match="IndexError"):
                remote_set.enqueue(failed).result(timeout=30)
            # A failed envelope is stamped like an answered one (same site).
            assert failed.completed_at >= failed.enqueued_at > 0.0
            assert failed.replica_index == 0
            assert failed.served_generation is None and failed.batch_tag is None
            # The worker survives a failed request and keeps serving.
            assert remote_set.enqueue(
                ServeRequest.create("plan_paths", [1, 2], 3)
            ).result(timeout=30)

    def test_enqueue_after_close_raises(self, make_factory, remote_contexts):
        remote_set = RemoteReplicaSet(
            make_factory(), num_replicas=1, heartbeat_interval=HEARTBEAT_INTERVAL
        )
        remote_set.start()
        remote_set.close()
        history, objective, user = remote_contexts[0]
        with pytest.raises(ServingError):
            remote_set.enqueue(
                ServeRequest.create("next_step", history, objective, [], user_index=user)
            )

    def test_factory_must_be_callable_and_produce_planners(self):
        with pytest.raises(ConfigurationError, match="planner_factory"):
            RemoteReplicaSet("not-a-factory")
        with pytest.raises(ConfigurationError, match="plan_for_requests"):
            RemoteReplicaSet(lambda: object(), num_replicas=1)

    def test_close_is_idempotent_and_workers_exit(self, make_factory):
        remote_set = RemoteReplicaSet(
            make_factory(), num_replicas=2, heartbeat_interval=HEARTBEAT_INTERVAL
        )
        workers = [replica.worker for replica in remote_set.active_replicas()]
        remote_set.close()
        remote_set.close()
        assert all(not worker.alive() for worker in workers)

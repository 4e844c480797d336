"""End-to-end parity of the in-process fleet at one generation.

Mirror of ``tests/serve``'s suite: :class:`~repro.replica.set.ReplicaSet`
— the fleet core over one member — answers bit-identically to sequential
serving.  Dispatch, the fleet admission rule and the stats roll-up change
*where* work happens, never what is answered.  Fan-out across members is
the process fleet's, and its parity suite is ``tests/distributed``.
"""

from __future__ import annotations

import pytest

from repro.replica import ReplicaSet
from repro.serve import replay_lockstep
from repro.serve.request import ServeRequest
from repro.utils.exceptions import ConfigurationError, ServingError

MAX_LENGTH = 5  # keep in sync with tests/replica/conftest.py


class TestReplicaSetParity:
    def test_lockstep_replay_bit_identical(
        self, make_factory, replica_contexts, sequential_paths
    ):
        with ReplicaSet(make_factory()) as replica_set:
            served = replay_lockstep(replica_set, replica_contexts, MAX_LENGTH)
        assert served == sequential_paths

    def test_plan_paths_futures_match_plan_path(self, make_factory, replica_contexts):
        reference = make_factory()()
        expected = [
            reference.plan_path(history, objective, user_index=user)
            for history, objective, user in replica_contexts
        ]
        with ReplicaSet(make_factory()) as replica_set:
            futures = [
                replica_set.enqueue(
                    ServeRequest.create("plan_paths", history, objective, user_index=user)
                )
                for history, objective, user in replica_contexts
            ]
            assert [future.result() for future in futures] == expected

    def test_mixed_kind_submissions_match_sequential(
        self, make_factory, replica_contexts
    ):
        reference = make_factory()()
        with ReplicaSet(make_factory()) as replica_set:
            next_futures = [
                replica_set.enqueue(
                    ServeRequest.create("next_step", history, objective, [], user_index=user)
                )
                for history, objective, user in replica_contexts
            ]
            plan_futures = [
                replica_set.enqueue(
                    ServeRequest.create("plan_paths", history, objective, user_index=user)
                )
                for history, objective, user in replica_contexts
            ]
            next_items = [future.result() for future in next_futures]
            plans = [future.result() for future in plan_futures]
        assert next_items == [
            reference.next_step(history, objective, [], user_index=user)
            for history, objective, user in replica_contexts
        ]
        assert plans == [
            reference.plan_path(history, objective, user_index=user)
            for history, objective, user in replica_contexts
        ]

    def test_session_affinity_pins_contexts_to_one_replica(
        self, make_factory, replica_contexts
    ):
        """Every answered request of one serving context names the same
        member, and the dispatcher pins the session to it."""
        with ReplicaSet(make_factory()) as replica_set:
            owners: "dict[int, set[int]]" = {}
            for _round in range(3):
                futures = []
                for index, (history, objective, user) in enumerate(replica_contexts):
                    request_future = replica_set.enqueue(
                        ServeRequest.create("next_step", history, objective, [], user_index=user)
                    )
                    futures.append((index, request_future))
                for index, future in futures:
                    future.result()
            # replica_index is stamped on the envelope at dispatch; re-submit
            # once more and record the owners directly off the envelopes.
            for index, (history, objective, user) in enumerate(replica_contexts):
                request = ServeRequest.create(
                    "next_step", history, objective, user_index=user
                )
                replica_set.enqueue(request).result()
                owners.setdefault(index, set()).add(request.replica_index)
            stats = replica_set.stats()
        assert all(len(owner_set) == 1 for owner_set in owners.values())
        assert stats["dispatch"]["sessions_pinned"] >= len(replica_contexts)
        assert stats["dispatch"]["picks"]["affinity"] > 0

    def test_stats_expose_fleet_and_per_replica_accounting(
        self, make_factory, replica_contexts
    ):
        with ReplicaSet(make_factory()) as replica_set:
            replay_lockstep(replica_set, replica_contexts, MAX_LENGTH)
            stats = replica_set.stats()
        assert stats["num_replicas"] == 1
        assert stats["generation"] == 1
        assert stats["served"] > 0
        assert len(stats["replicas"]) == 1
        # The member's admission scope survives into the fleet aggregate.
        per_replica = stats["admission"]["per_replica"]
        assert [entry["scope"] for entry in per_replica] == ["replica-0"]
        assert stats["admission"]["admitted"] == sum(
            entry["admitted"] for entry in per_replica
        )
        assert stats["queue_depth"]["max"] >= 1
        assert stats["micro_batches"]["count"] >= 1

    def test_enqueue_after_close_raises(self, make_factory, replica_contexts):
        replica_set = ReplicaSet(make_factory())
        replica_set.start()
        replica_set.close()
        history, objective, user = replica_contexts[0]
        with pytest.raises(ServingError):
            replica_set.enqueue(
                ServeRequest.create("next_step", history, objective, [], user_index=user)
            )

    def test_factory_must_be_callable_and_produce_planners(self):
        with pytest.raises(ConfigurationError, match="planner_factory"):
            ReplicaSet("not-a-factory")
        with pytest.raises(ConfigurationError, match="plan_for_requests"):
            ReplicaSet(lambda: object())

    def test_the_replica_variable_does_not_fan_out_in_process(
        self, make_factory, monkeypatch
    ):
        """``REPRO_REPLICAS`` is the process fleet's worker count."""
        monkeypatch.setenv("REPRO_REPLICAS", "3")
        replica_set = ReplicaSet(make_factory())
        try:
            assert replica_set.num_replicas == 1
            assert len(replica_set.active_replicas()) == 1
        finally:
            replica_set.close()

"""Multi-tenant serving across the process transport.

The tenant contract of the multi-tenancy PR, exercised end-to-end over
real forked workers:

* both request kinds (``next_step`` / ``plan_paths``), served by a planner
  tenant and by a recommender tenant, round-trip the wire bit-identically
  to calling the tenant's model directly in-process;
* tenant placement makes :class:`RemoteReplicaSet` the isolation
  boundary — a placed tenant's requests only ever reach its own slots'
  workers, and a refit of a placed fleet rebuilds every worker's tenants
  in place.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.distributed import RemoteReplicaSet
from repro.models.markov import MarkovChainRecommender
from repro.serve.api import NextStepRequest, PlanRequest
from repro.tenant import TenantRegistry
from repro.utils.exceptions import ServingError

from tests.distributed.conftest import HEARTBEAT_INTERVAL, MAX_LENGTH


@pytest.fixture(scope="module")
def zoo_markov(tiny_split):
    return MarkovChainRecommender().fit(tiny_split)


@pytest.fixture()
def make_tenant_factory(make_factory, zoo_markov):
    """A deterministic two-tenant registry factory (forked per worker)."""

    def build():
        planner_factory = make_factory()

        def factory():
            registry = TenantRegistry()
            registry.add("irs", planner_factory())
            registry.add("zoo", zoo_markov)
            return registry

        return factory

    return build


def _tenant_traffic(remote_contexts):
    """One typed request of each kind per tenant that serves it."""
    history, objective, user = remote_contexts[0]
    return [
        NextStepRequest(
            history=history, objective=objective, user_index=user, tenant="irs"
        ),
        PlanRequest(
            history=history,
            objective=objective,
            user_index=user,
            max_length=MAX_LENGTH,
            tenant="irs",
        ),
        NextStepRequest(
            history=history, objective=objective, user_index=user, tenant="zoo"
        ),
    ]


class TestRemoteTenantParity:
    def test_every_kind_round_trips_bit_identical(
        self, make_tenant_factory, make_factory, zoo_markov, remote_contexts
    ):
        requests = _tenant_traffic(remote_contexts)
        history, objective, user = remote_contexts[0]
        reference = make_factory()()
        expected = [
            reference.next_step(history, objective, [], user_index=user),
            reference.plan_path(history, objective, user_index=user, max_length=MAX_LENGTH),
            # the control arm: the best unseen item, objective ignored
            zoo_markov.top_k(list(history), 1, user_index=user, exclude=list(history))[0],
        ]
        tenant_factory = make_tenant_factory()
        with RemoteReplicaSet(
            make_factory(),
            num_replicas=2,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            tenant_factory=tenant_factory,
        ) as remote_set:
            responses = [remote_set.serve(request).result() for request in requests]
            fleet_generation = remote_set.fit_generation
        assert [response.answer for response in responses] == expected
        assert [response.tenant for response in responses] == ["irs", "irs", "zoo"]
        # Parent-clock stamps: latencies never negative across the boundary.
        assert all(response.latency_s >= 0.0 for response in responses)
        assert all(response.replica_index is not None for response in responses)
        # The planner tenant carries the fleet generation its worker was
        # pinned to; the Markov recommender has none to report.
        assert responses[0].served_generation == fleet_generation
        assert responses[2].served_generation is None

    def test_workers_announce_their_tenants(
        self, make_tenant_factory, make_factory
    ):
        with RemoteReplicaSet(
            make_factory(),
            num_replicas=1,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            tenant_factory=make_tenant_factory(),
        ) as remote_set:
            [replica] = remote_set.active_replicas()
            assert replica.hello["tenants"] == ["irs", "zoo"]


class TestTenantPlacement:
    def test_placed_tenants_only_reach_their_slots(
        self, make_tenant_factory, make_factory, remote_contexts
    ):
        history, objective, user = remote_contexts[0]
        with RemoteReplicaSet(
            make_factory(),
            num_replicas=2,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            tenant_factory=make_tenant_factory(),
            tenant_placement={"irs": (0,), "zoo": (1,)},
        ) as remote_set:
            futures = []
            for _ in range(6):
                futures.append(
                    remote_set.serve(
                        NextStepRequest(
                            history=history,
                            objective=objective,
                            user_index=user,
                            tenant="irs",
                        )
                    )
                )
            for future in futures:
                future.result()
            by_slot = {
                replica.index: replica.stats()["completed"]
                for replica in remote_set.active_replicas()
            }
            # Every irs request landed on slot 0; its neighbour saw none.
            assert by_slot[0] == 6
            assert by_slot[1] == 0
            stats = remote_set.stats()
            assert stats["tenants"]["irs"]["placement"] == [0]
            assert stats["tenants"]["irs"]["served"] == 6
            assert stats["tenants"]["zoo"]["served"] == 0

    def test_invalid_placement_is_rejected(self, make_factory, make_tenant_factory):
        from repro.utils.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="outside the fleet"):
            RemoteReplicaSet(
                make_factory(),
                num_replicas=2,
                heartbeat_interval=HEARTBEAT_INTERVAL,
                tenant_factory=make_tenant_factory(),
                tenant_placement={"irs": (5,)},
            )


class TestPlacedFleetRefit:
    def test_refit_rebuilds_every_placed_worker_in_place(
        self, make_tenant_factory, make_factory, remote_contexts
    ):
        history, objective, user = remote_contexts[0]

        def ask(remote_set, tenant):
            return remote_set.serve(
                NextStepRequest(
                    history=history, objective=objective, user_index=user, tenant=tenant
                )
            ).result()

        with RemoteReplicaSet(
            make_factory(),
            num_replicas=2,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            tenant_factory=make_tenant_factory(),
            tenant_placement={"irs": (0,), "zoo": (1,)},
        ) as remote_set:
            pids = [replica.worker.pid for replica in remote_set.active_replicas()]
            before = {tenant: ask(remote_set, tenant) for tenant in ("irs", "zoo")}
            report = remote_set.refit()
            # The fleet flipped as one; each placed tenant still lands on its
            # own slot, now answered by the tenant models its worker rebuilt.
            after = {tenant: ask(remote_set, tenant) for tenant in ("irs", "zoo")}
            stats = remote_set.stats()
            loops = [replica.loop_stats() for replica in remote_set.active_replicas()]
        assert [artifact["name"] for artifact in report["artifacts"]]
        assert report["num_replicas"] == 2
        assert [replica["pid"] for replica in stats["replicas"]] == pids
        assert {replica["generation"] for replica in stats["replicas"]} == {2}
        assert [loop["generation"] for loop in loops] == [2, 2]
        assert {tenant: r.replica_index for tenant, r in after.items()} == {"irs": 0, "zoo": 1}
        assert after["irs"].answer == before["irs"].answer
        assert after["irs"].served_generation == 2
        assert before["irs"].served_generation == 1
        # The tenant counters keep counting across every worker's flip.
        assert stats["tenants"]["irs"]["served"] == stats["tenants"]["zoo"]["served"] == 2

    def test_a_refit_reforks_a_dead_slot_so_its_placed_tenant_serves_again(
        self, make_factory, make_tenant_factory, remote_contexts
    ):
        """A tenant placed only on a slot whose worker died has nowhere to
        go until the slot has a worker again: the next refit forks one there
        before it prepares, and the fleet serves that tenant at the new
        generation from the fresh worker."""
        history, objective, user = remote_contexts[0]
        request = NextStepRequest(
            history=history, objective=objective, user_index=user, tenant="irs"
        )
        with RemoteReplicaSet(
            make_factory(),
            num_replicas=2,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            tenant_factory=make_tenant_factory(),
            tenant_placement={"irs": [0]},
        ) as remote_set:
            before = remote_set.serve(request).result(timeout=30)
            victim = remote_set.active_replicas()[0]
            os.kill(victim.worker.pid, signal.SIGKILL)
            deadline = time.perf_counter() + 30.0
            while not victim.dead and time.perf_counter() < deadline:
                time.sleep(0.005)
            assert victim.dead
            with pytest.raises(ServingError, match="no healthy replica"):
                remote_set.serve(request)
            report = remote_set.refit()
            after = [remote_set.serve(request).result(timeout=30) for _ in range(3)]
            stats = remote_set.stats()
        assert report["num_replicas"] == 2
        assert before.served_generation == 1
        assert [response.served_generation for response in after] == [2, 2, 2]
        assert {response.replica_index for response in after} == {0}
        assert after[0].answer == before.answer
        fresh = stats["replicas"][0]
        assert fresh["pid"] != victim.worker.pid
        assert (fresh["healthy"], fresh["dead"], fresh["generation"]) == (True, False, 2)

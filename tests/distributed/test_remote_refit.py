"""The versioned-artifact refit across the transport.

The serving loop's refit contract (``tests/replica/test_refit_race.py``)
at the process boundary: train off-path, publish ``(name, generation)`` artifacts, ship
and checksum-verify them on every standby worker, flip atomically, retire
the old fleet drain-dry with zero admitted requests dropped — also under
open-loop traffic.
"""

from __future__ import annotations

import pytest

from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.distributed import RemoteReplicaSet
from repro.replica import run_replicated_open_loop
from repro.serve.request import ServeRequest
from repro.utils.exceptions import ServingError

from tests.distributed.conftest import _IRN_KWARGS, HEARTBEAT_INTERVAL, MAX_LENGTH


class TestRemoteRefit:
    def test_refit_ships_artifacts_and_flips_generation(
        self, make_factory, remote_contexts
    ):
        reference = make_factory()()
        expected = [
            reference.plan_path(history, objective, user_index=user)
            for history, objective, user in remote_contexts
        ]
        with RemoteReplicaSet(
            make_factory(), num_replicas=2, heartbeat_interval=HEARTBEAT_INTERVAL
        ) as remote_set:
            before = [
                remote_set.enqueue(
                    ServeRequest.create("plan_paths", history, objective, user_index=user)
                )
                for history, objective, user in remote_contexts
            ]
            report = remote_set.refit()
            after = [
                remote_set.enqueue(
                    ServeRequest.create("plan_paths", history, objective, user_index=user)
                )
                for history, objective, user in remote_contexts
            ]
            # Zero drops: every future from both sides of the flip resolves.
            answers_before = [future.result(timeout=30) for future in before]
            answers_after = [future.result(timeout=30) for future in after]
            stats = remote_set.stats()

        assert answers_before == expected
        # The deterministic factory makes generation 2 bit-identical to 1,
        # so parity across the flip is exact (what a real redeploy of the
        # same config must guarantee).
        assert answers_after == expected
        assert report["generation_from"] == 1
        assert report["generation_to"] == 2
        assert report["num_replicas"] == 2
        assert report["train_seconds"] >= 0.0
        assert report["flip_seconds"] < 1.0
        assert [a["name"] for a in report["artifacts"]] == ["model_weights"]
        assert all(a["generation"] == 2 for a in report["artifacts"])
        assert stats["generation"] == 2
        assert stats["retired_replicas"] == 2
        assert stats["refits"] == [report]

    def test_refit_to_different_weights_answers_like_those_weights(
        self, tiny_split, remote_contexts
    ):
        """Generation 2 trained from another seed: after the flip the fleet
        answers exactly like an in-process planner over generation-2 weights.

        The test above cannot see a stale compiled inference program
        (its generation 2 is bit-identical to 1).  Here every planner the
        factory hands out has already planned — so the standby workers are
        forked holding a compiled program, and the authoritative wire copy
        is then loaded *under* it by ``Module.load_state_dict``, which does
        not bump ``fit_generation``.
        """

        def planner_for(seed: int) -> BeamSearchPlanner:
            irn = IRN(**{**_IRN_KWARGS, "seed": seed}).fit(tiny_split)
            planner = BeamSearchPlanner(irn, max_length=MAX_LENGTH).fit(tiny_split)
            planner.plan_path(*remote_contexts[0][:2], user_index=remote_contexts[0][2])
            planner.invalidate_caches()
            return planner

        seeds = iter((0, 1))
        expected = {
            seed: [
                planner_for(seed).plan_path(history, objective, user_index=user)
                for history, objective, user in remote_contexts
            ]
            for seed in (0, 1)
        }
        assert expected[0] != expected[1]  # the generations really differ

        def ask(remote_set):
            futures = [
                remote_set.enqueue(
                    ServeRequest.create("plan_paths", history, objective, user_index=user)
                )
                for history, objective, user in remote_contexts
            ]
            return [future.result(timeout=30) for future in futures]

        with RemoteReplicaSet(
            lambda: planner_for(next(seeds)),
            num_replicas=2,
            heartbeat_interval=HEARTBEAT_INTERVAL,
        ) as remote_set:
            assert ask(remote_set) == expected[0]
            report = remote_set.refit()
            assert ask(remote_set) == expected[1]
        assert report["generation_to"] == 2
        assert [a["name"] for a in report["artifacts"]] == ["model_weights"]

    def test_refit_versions_generator_state_for_retrieval_planners(
        self, make_factory, remote_contexts
    ):
        from repro.retrieval.cooccurrence import CooccurrenceNeighborGenerator

        factory = make_factory(
            candidate_generator=CooccurrenceNeighborGenerator(num_candidates=8)
        )
        reference = factory()
        expected = [
            reference.plan_path(history, objective, user_index=user)
            for history, objective, user in remote_contexts[:4]
        ]
        with RemoteReplicaSet(
            factory, num_replicas=2, heartbeat_interval=HEARTBEAT_INTERVAL
        ) as remote_set:
            report = remote_set.refit()
            answers = [
                remote_set.enqueue(
                    ServeRequest.create("plan_paths", history, objective, user_index=user)
                )
                .result(timeout=30)
                for history, objective, user in remote_contexts[:4]
            ]
            registry_names = [
                (meta["name"], meta["generation"])
                for meta in remote_set.registry.history()
            ]
        assert answers == expected
        assert [a["name"] for a in report["artifacts"]] == [
            "model_weights",
            "generator_state",
        ]
        # Both generations' artifacts stay addressable after the flip.
        assert registry_names == [
            ("model_weights", 1),
            ("generator_state", 1),
            ("model_weights", 2),
            ("generator_state", 2),
        ]

    def test_served_generation_is_monotone_across_the_flip(
        self, make_factory, remote_contexts
    ):
        history, objective, user = remote_contexts[0]
        with RemoteReplicaSet(
            make_factory(), num_replicas=2, heartbeat_interval=HEARTBEAT_INTERVAL
        ) as remote_set:
            first = remote_set.enqueue(
                ServeRequest.create("plan_paths", history, objective, user_index=user)
            )
            first.result(timeout=30)
            remote_set.refit()
            request = ServeRequest.create(
                "plan_paths", history, objective, user_index=user
            )
            remote_set.enqueue(request).result(timeout=30)
        assert request.served_generation == 2

    def test_open_loop_traffic_never_pauses_across_a_refit(self, make_factory, remote_contexts):
        """``tests/replica/test_refit_race.py``'s no-pause contract over the
        wire: nothing errored, nothing rejected under ``block``, one
        generation step — and resident steps still answered in the parent."""
        with RemoteReplicaSet(
            make_factory(), num_replicas=2, heartbeat_interval=HEARTBEAT_INTERVAL
        ) as remote_set:
            report = run_replicated_open_loop(
                remote_set,
                remote_contexts,
                arrival_rate=200.0,
                num_requests=120,
                max_length=MAX_LENGTH,
                refit_at=0.0,
                refit=remote_set.refit,
            )
            transport = remote_set.stats()["transport"]
        assert report["errored_requests"] == report["rejected_requests"] == 0
        assert report["no_pause"] is True
        assert report["refit"]["generation_to"] == report["refit"]["generation_from"] + 1
        assert transport["parent_answered"] > 0

    def test_refit_after_close_raises(self, make_factory):
        remote_set = RemoteReplicaSet(
            make_factory(), num_replicas=1, heartbeat_interval=HEARTBEAT_INTERVAL
        )
        remote_set.close()
        with pytest.raises(ServingError, match="closed"):
            remote_set.refit()

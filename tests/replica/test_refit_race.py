"""Hot-refit correctness: atomic generation flips under live traffic.

The satellite contract of the replication PR: requests enqueued during the
flip window all answer from exactly one generation — no torn micro-batch
mixes generations; no admitted request is ever dropped or errored by a refit; per serving
context the answering generation is monotone in submission order.
"""

from __future__ import annotations

import threading

import pytest

from repro.replica import ReplicaSet, run_replicated_open_loop
from repro.utils.exceptions import ServingError, StaleGenerationError

MAX_LENGTH = 5  # keep in sync with tests/replica/conftest.py


def _drain(requests):
    """Resolve every future loudly; returns the envelopes."""
    for request in requests:
        request.future.result()
    return requests


def _submit_round(replica_set, contexts):
    from repro.serve.request import ServeRequest

    requests = []
    for history, objective, user in contexts:
        request = ServeRequest.create("next_step", history, objective, user_index=user)
        replica_set.enqueue(request)
        requests.append(request)
    return requests


class TestRefitRace:
    def test_flip_window_requests_answer_from_exactly_one_generation(
        self, fresh_factory, replica_contexts
    ):
        with ReplicaSet(fresh_factory(), num_replicas=2) as replica_set:
            # Phase 1: pre-refit traffic is all generation 1.
            before = _drain(_submit_round(replica_set, replica_contexts))
            assert {r.served_generation for r in before} == {1}

            # Phase 2: keep submitting while the refit trains and flips.
            during: list = []
            refit_report: dict = {}

            def run_refit():
                refit_report.update(replica_set.refit())

            refitter = threading.Thread(target=run_refit)
            refitter.start()
            # Bounded pressure: keep the flip window busy without letting a
            # slow CI box accumulate an unbounded backlog (the block policy
            # already throttles producers at the queue bound).
            while refitter.is_alive() and len(during) < 1800:
                during.extend(_submit_round(replica_set, replica_contexts))
            refitter.join()
            _drain(during)

            # Phase 3: post-refit traffic is all generation 2.
            after = _drain(_submit_round(replica_set, replica_contexts))
            assert {r.served_generation for r in after} == {2}

        # Every admitted request resolved with an answer at a generation.
        everything = before + during + after
        assert all(r.future.done() for r in everything)
        assert all(r.served_generation in (1, 2) for r in everything)

        # No torn micro-batch: group by the drain's batch tag — each batch
        # was answered at exactly one generation, by exactly one replica.
        batches: "dict[int, set]" = {}
        owners: "dict[int, set]" = {}
        for request in everything:
            batches.setdefault(request.batch_tag, set()).add(request.served_generation)
            owners.setdefault(request.batch_tag, set()).add(request.replica_index)
        assert all(len(generations) == 1 for generations in batches.values())
        assert all(len(replicas) == 1 for replicas in owners.values())

        # Per serving context, the answering generation is monotone in
        # submission order: once a context sees the new model it never
        # falls back to the old one.
        per_context: "dict[tuple, list[int]]" = {}
        for request in everything:
            per_context.setdefault(request.routing_key(), []).append(
                request.served_generation
            )
        for generations in per_context.values():
            assert generations == sorted(generations)

        assert refit_report["generation_from"] == 1
        assert refit_report["generation_to"] == 2
        assert replica_set.fit_generation == 2

    @pytest.mark.parametrize(
        "num_replicas,dispatch_policy",
        [(1, "least_loaded"), (2, "least_loaded"), (2, "round_robin"), (3, "round_robin")],
    )
    def test_open_loop_traffic_never_pauses_across_a_refit(
        self, fresh_factory, replica_contexts, num_replicas, dispatch_policy
    ):
        """The report ``serve-sim --refit-at`` publishes: no admitted request
        errored, none rejected under the block policy (``no_pause``), and the
        refit stepped exactly one generation forward — at any fleet size and
        dispatch policy."""
        with ReplicaSet(
            fresh_factory(), num_replicas=num_replicas, dispatch_policy=dispatch_policy
        ) as replica_set:
            report = run_replicated_open_loop(
                replica_set,
                replica_contexts,
                arrival_rate=200.0,
                num_requests=120,
                max_length=MAX_LENGTH,
                refit_at=0.0,
            )
        assert report["admission"]["policy"] == "block"
        assert report["errored_requests"] == report["rejected_requests"] == 0
        assert report["no_pause"] is True
        refit = report["refit"]
        assert refit["generation_to"] == refit["generation_from"] + 1
        assert report["admitted_requests"] == sum(report["generations_served"].values())

    def test_refit_retires_old_replicas_and_reports(self, fresh_factory, replica_contexts):
        with ReplicaSet(fresh_factory(), num_replicas=2) as replica_set:
            old_replicas = replica_set.active_replicas()
            _drain(_submit_round(replica_set, replica_contexts))
            report = replica_set.refit()
            # Old loops are closed (drained dry), new ones serve.
            assert all(replica.loop.queue.closed for replica in old_replicas)
            new_replicas = replica_set.active_replicas()
            assert {r.generation for r in new_replicas} == {2}
            assert not (set(id(r) for r in new_replicas) & set(id(r) for r in old_replicas))
            after = _drain(_submit_round(replica_set, replica_contexts))
            assert {r.served_generation for r in after} == {2}
            stats = replica_set.stats()
        assert report["train_seconds"] >= 0
        assert report["flip_seconds"] < 0.5  # the flip is pointer swaps, not training
        assert report["num_replicas"] == 2
        assert stats["retired_replicas"] == 2
        assert len(stats["refits"]) == 1
        assert stats["refits"][0]["generation_to"] == 2
        # The old generation collapsed into counter snapshots — its models
        # are gone from the live set, but its work still counts fleet-wide.
        archived = replica_set.archived_stats()
        assert len(archived) == 2
        assert sum(snapshot["loop"]["served"] for snapshot in archived) == report[
            "retired_served"
        ]
        assert len(stats["replicas"]) == 2  # live (new-generation) replicas only
        assert stats["served"] >= report["retired_served"] + len(replica_contexts)
        assert stats["admission"]["admitted"] >= stats["served"]

    def test_second_concurrent_refit_rejected(self, fresh_factory):
        with ReplicaSet(fresh_factory(), num_replicas=1) as replica_set:
            coordinator = replica_set.refit_coordinator
            coordinator._refit_lock.acquire()  # simulate an in-progress refit
            try:
                with pytest.raises(ServingError, match="already in progress"):
                    replica_set.refit()
                assert coordinator.refitting
            finally:
                coordinator._refit_lock.release()
            assert not coordinator.refitting

    def test_refit_on_closed_set_rejected(self, fresh_factory):
        replica_set = ReplicaSet(fresh_factory(), num_replicas=1)
        replica_set.start()
        replica_set.close()
        with pytest.raises(ServingError, match="closed"):
            replica_set.refit()

    def test_successive_refits_keep_bumping_the_generation(
        self, fresh_factory, replica_contexts
    ):
        with ReplicaSet(fresh_factory(), num_replicas=1) as replica_set:
            assert replica_set.fit_generation == 1
            replica_set.refit()
            replica_set.refit()
            assert replica_set.fit_generation == 3
            after = _drain(_submit_round(replica_set, replica_contexts))
            assert {r.served_generation for r in after} == {3}
            assert [r["generation_to"] for r in replica_set.stats()["refits"]] == [2, 3]


class TestGenerationPinning:
    def test_pinned_planner_rejects_in_place_retrain(self, fresh_factory, tiny_split):
        """The protocol violation the pin exists for: retraining a serving
        replica's backbone in place raises instead of serving mixed
        generations or silently invalidating."""
        planner = fresh_factory()()
        pinned = planner.pin_generation()
        assert pinned == planner.backbone.fit_generation
        assert planner.serving_generation == pinned
        planner.backbone.fit(tiny_split)  # in-place retrain under the pin
        with pytest.raises(StaleGenerationError, match="pinned"):
            planner.next_step([1, 2], 3, [])

    def test_pin_carries_the_replica_sets_generation_tag(self, fresh_factory):
        planner = fresh_factory()()
        planner.pin_generation(serving_generation=7)
        assert planner.serving_generation == 7
        # Enforcement still keys on the backbone's own fit_generation.
        assert planner._pinned_generation == planner.backbone.fit_generation

    def test_unpinned_planner_still_invalidates_silently(self, fresh_factory, tiny_split):
        """The pre-replication behaviour is unchanged for unpinned planners:
        a backbone retrain invalidates caches and replans, no error."""
        planner = fresh_factory()()
        first = planner.next_step([1, 2], 3, [])
        planner.backbone.fit(tiny_split)
        again = planner.next_step([1, 2], 3, [])
        assert again == first  # deterministic retrain -> identical weights

    @staticmethod
    def _retrain_mid_plan(planner, monkeypatch, bump: bool = True) -> None:
        """Make the backbone's ``fit_generation`` move inside the planning
        call (the race a fused plan must not hand back half of)."""
        plan_beam = planner._plan_beam

        def retrained(*args):
            if bump:
                planner.backbone._fit_generation += 1
            return plan_beam(*args)

        monkeypatch.setattr(planner, "_plan_beam", retrained)

    def test_generation_guard_detects_mid_plan_retrain(
        self, fresh_factory, replica_contexts, monkeypatch
    ):
        """The planner's torn-batch check: a generation changing while a
        fused batch plans raises StaleGenerationError and memoises nothing."""
        planner = fresh_factory()()
        self._retrain_mid_plan(planner, monkeypatch)
        histories, objectives, users = zip(*replica_contexts)
        with pytest.raises(StaleGenerationError, match="generation changed"):
            planner.plan_paths_batch(histories, objectives, users)
        assert len(planner.plan_cache) == 0

    def test_generation_guard_single_plan_path(self, fresh_factory, monkeypatch):
        """A batch of one (``plan_path`` / ``next_step``) is guarded too, and
        a generation that holds plans as before."""
        planner = fresh_factory()()
        expected = planner.plan_path([1, 2], 3)
        planner.invalidate_caches()
        self._retrain_mid_plan(planner, monkeypatch, bump=False)
        assert planner.plan_path([1, 2], 3) == expected
        planner.invalidate_caches()
        self._retrain_mid_plan(planner, monkeypatch)
        with pytest.raises(StaleGenerationError, match="generation changed"):
            planner.plan_path([1, 2], 3)


class TestCloseRefitRace:
    def test_flip_refused_when_set_closes_during_training(self, fresh_factory):
        """close() racing the training phase must not let the flip install a
        live standby set into a closed ReplicaSet (leaked drain threads)."""
        import threading as _threading

        base_factory = fresh_factory()
        replica_set_box: dict = {}
        calls = {"count": 0}

        def closing_factory():
            calls["count"] += 1
            if calls["count"] == 2:  # the refit's standby build: close mid-train
                replica_set_box["set"].close()
            return base_factory()

        replica_set = ReplicaSet(closing_factory, num_replicas=1)
        replica_set_box["set"] = replica_set
        replica_set.start()
        before = _threading.active_count()
        with pytest.raises(ServingError, match="closed"):
            replica_set.refit()
        # No generation landed, no refit recorded, no drain thread leaked.
        assert replica_set.fit_generation == 1
        assert replica_set.stats()["refits"] == []
        assert _threading.active_count() <= before

    def test_close_after_flip_covers_the_new_generation(self, fresh_factory):
        replica_set = ReplicaSet(fresh_factory(), num_replicas=1)
        replica_set.start()
        replica_set.refit()
        new_replicas = replica_set.active_replicas()
        replica_set.close()
        assert all(replica.loop.queue.closed for replica in new_replicas)

"""Fixtures for the in-process multi-tenant suite.

The tenants are one fitted backbone's worth of models: a beam planner
(the IRS tenant) and the Markov recommender (the zoo/control tenant); the
item knowledge graph is the model no adapter serves.  Planners are built
per test — serving mutates their caches — while the backbone, recommender
and graph are session-scoped read-only.
"""

from __future__ import annotations

import pytest

from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.evaluation.protocol import sample_objectives
from repro.kg.graph import ItemKnowledgeGraph

MAX_LENGTH = 5


def control_step(recommender, history, user):
    """What a recommender tenant answers a ``next_step``: the best unseen
    item, objective ignored (the A/B control arm)."""
    ranked = recommender.top_k(history, 1, user_index=user, exclude=history)
    return int(ranked[0]) if ranked else None


@pytest.fixture(scope="session")
def tenant_irn(tiny_split):
    return IRN(
        embedding_dim=16,
        user_dim=4,
        num_heads=2,
        num_layers=1,
        epochs=1,
        batch_size=32,
        max_sequence_length=50,
        seed=0,
    ).fit(tiny_split)


@pytest.fixture(scope="session")
def tenant_graph(tiny_corpus):
    return ItemKnowledgeGraph().build(tiny_corpus)


@pytest.fixture(scope="session")
def tenant_contexts(tiny_split):
    instances = sample_objectives(
        tiny_split, min_objective_interactions=2, max_instances=9
    )
    return [(list(inst.history), inst.objective, inst.user_index) for inst in instances]


@pytest.fixture(scope="session")
def tenant_instances(tiny_split):
    return sample_objectives(tiny_split, min_objective_interactions=2, max_instances=6)


@pytest.fixture()
def make_planner(tenant_irn, tiny_split):
    """Factory for fresh planners sharing the session backbone."""

    def build(**kwargs):
        kwargs.setdefault("max_length", MAX_LENGTH)
        return BeamSearchPlanner(tenant_irn, **kwargs).fit(tiny_split)

    return build

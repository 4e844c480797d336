"""Ablation experiments for the design choices called out in DESIGN.md.

Each function takes a shared :class:`~repro.experiments.pipeline.ExperimentPipeline`
and returns flat table rows, mirroring the style of
:mod:`repro.experiments.tables`:

* :func:`ablation_embedding_init` — random vs. item2vec-initialised item
  embeddings (§III-D1 motivates pre-trained initialisation).
* :func:`ablation_padding_scheme` — pre- vs. post-padding of the training
  windows (§III-D5 argues for pre-padding so the objective sits at a fixed
  position).
* :func:`ablation_decoding` — greedy Algorithm 1 vs. beam-search planning on
  the *same* trained IRN (the greedy-gets-stuck limitation discussed for
  Rec2Inf in §III-C applies to any stepwise decoder).
"""

from __future__ import annotations

from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.experiments.pipeline import ExperimentPipeline
from repro.utils.logging import get_logger

__all__ = [
    "ablation_embedding_init",
    "ablation_padding_scheme",
    "ablation_decoding",
]

_LOGGER = get_logger("experiments.ablations")


def _irn_variant(pipeline: ExperimentPipeline, **overrides) -> IRN:
    """Build and fit an IRN sharing the pipeline's configuration, with overrides."""
    config = pipeline.config
    parameters = dict(
        embedding_dim=config.embedding_dim,
        user_dim=config.irn_user_dim,
        num_heads=config.irn_heads,
        num_layers=config.irn_layers,
        objective_weight=config.irn_objective_weight,
        objective_logit_scale=config.irn_objective_logit_scale,
        item2vec_init=config.item2vec_init,
        epochs=config.irn_epochs,
        learning_rate=config.irn_learning_rate,
        max_sequence_length=config.max_sequence_length,
        seed=config.seed,
    )
    parameters.update(overrides)
    model = IRN(**parameters)
    return model.fit(pipeline.split)


def _evaluate(pipeline: ExperimentPipeline, variant_name: str, recommender) -> dict[str, object]:
    protocol = pipeline.protocol()
    result = protocol.evaluate(recommender, name=variant_name)
    row: dict[str, object] = {"dataset": pipeline.split.corpus.name, "variant": variant_name}
    row.update({key: value for key, value in result.as_row().items() if key != "framework"})
    return row


# --------------------------------------------------------------------------- #
def ablation_embedding_init(pipeline: ExperimentPipeline) -> list[dict[str, object]]:
    """Compare random item-embedding initialisation against item2vec pre-training."""
    rows = []
    _LOGGER.info("embedding-init ablation: training IRN with random initialisation")
    random_init = _irn_variant(pipeline, item2vec_init=False)
    rows.append(_evaluate(pipeline, "random init", random_init))

    _LOGGER.info("embedding-init ablation: training IRN with item2vec initialisation")
    pretrained = (
        pipeline.irn()
        if pipeline.config.item2vec_init
        else _irn_variant(pipeline, item2vec_init=True)
    )
    rows.append(_evaluate(pipeline, "item2vec init", pretrained))
    return rows


def ablation_padding_scheme(pipeline: ExperimentPipeline) -> list[dict[str, object]]:
    """Compare the paper's pre-padding against post-padding of training windows.

    With post-padding the objective item no longer sits at the fixed final
    column of the window, so the PIM's objective column points at padding for
    short sequences — the model effectively loses part of the objective
    signal during training, which is exactly the paper's argument for
    pre-padding (§III-D5).
    """
    rows = []
    _LOGGER.info("padding ablation: evaluating the pre-padded IRN")
    rows.append(_evaluate(pipeline, "pre-padding", pipeline.irn()))

    _LOGGER.info("padding ablation: training IRN with post-padding")
    post = _irn_variant(pipeline, padding_scheme="post")
    rows.append(_evaluate(pipeline, "post-padding", post))
    return rows


def ablation_decoding(
    pipeline: ExperimentPipeline, beam_width: int = 4, branch_factor: int = 4
) -> list[dict[str, object]]:
    """Compare greedy Algorithm 1 decoding with beam-search planning.

    Both variants use the *same* trained IRN; only the path decoder differs,
    so the comparison isolates the effect of long-range planning at inference
    time.
    """
    irn = pipeline.irn()
    rows = [_evaluate(pipeline, "greedy (Algorithm 1)", irn)]

    planner = BeamSearchPlanner(
        irn, beam_width=beam_width, branch_factor=branch_factor
    ).fit(pipeline.split)
    rows.append(_evaluate(pipeline, f"beam search (width {beam_width})", planner))
    return rows

"""The experiment pipeline: lazily builds and caches every trained component.

Training the NumPy models is the expensive part of regenerating the paper's
tables, and several tables/figures share the same trained models (the
evaluator, the baselines, IRN).  :class:`ExperimentPipeline` builds each of
them once per configuration and hands them to the table/figure functions.
"""

from __future__ import annotations


from repro.core.base import InfluentialRecommender
from repro.core.irn import IRN
from repro.core.pf2inf import Pf2Inf
from repro.core.pim import MaskType
from repro.core.rec2inf import Rec2Inf
from repro.core.vanilla import VanillaInfluential
from repro.data.splitting import DatasetSplit
from repro.evaluation.evaluator import EvaluatorSelection, IRSEvaluator, select_evaluator
from repro.evaluation.protocol import IRSEvaluationProtocol
from repro.experiments.config import ExperimentConfig
from repro.models.base import SequentialRecommender
from repro.models.bert4rec import Bert4Rec
from repro.models.bpr import BPR
from repro.models.caser import Caser
from repro.models.gru4rec import GRU4Rec
from repro.models.markov import MarkovChainRecommender
from repro.models.pop import Popularity
from repro.models.sasrec import SASRec
from repro.models.transrec import TransRec
from repro.utils.logging import get_logger

__all__ = ["ExperimentPipeline"]

_LOGGER = get_logger("experiments.pipeline")


class ExperimentPipeline:
    """Builds and caches the split, evaluator, baselines, IRN and protocol."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self._split: DatasetSplit | None = None
        self._evaluator_selection: EvaluatorSelection | None = None
        self._baselines: dict[str, SequentialRecommender] | None = None
        self._irns: dict[tuple[MaskType, float], IRN] = {}
        self._protocols: dict[int, IRSEvaluationProtocol] = {}

    # ------------------------------------------------------------------ #
    # Data
    # ------------------------------------------------------------------ #
    @property
    def split(self) -> DatasetSplit:
        """The (cached) train/validation/test split."""
        if self._split is None:
            self._split = self.config.load_split()
        return self._split

    # ------------------------------------------------------------------ #
    # Evaluator (Table II)
    # ------------------------------------------------------------------ #
    def _evaluator_candidates(self) -> dict[str, SequentialRecommender]:
        config = self.config
        if config.use_markov_evaluator:
            return {"Markov": MarkovChainRecommender()}
        common = dict(
            embedding_dim=config.embedding_dim,
            epochs=config.evaluator_epochs,
            max_sequence_length=config.max_sequence_length,
            seed=config.seed,
        )
        return {
            "GRU4Rec": GRU4Rec(hidden_size=config.embedding_dim, **common),
            "Caser": Caser(**common),
            "SASRec": SASRec(**common),
            "Bert4Rec": Bert4Rec(**common),
        }

    @property
    def evaluator_selection(self) -> EvaluatorSelection:
        """Fit the evaluator candidates and select the best one (Table II)."""
        if self._evaluator_selection is None:
            _LOGGER.info("training IRS evaluator candidates for %s", self.config.dataset)
            self._evaluator_selection = select_evaluator(self._evaluator_candidates(), self.split)
        return self._evaluator_selection

    @property
    def evaluator(self) -> IRSEvaluator:
        """The selected IRS evaluator."""
        return self.evaluator_selection.evaluator

    # ------------------------------------------------------------------ #
    # Baseline recommenders (Rec2Inf backbones / vanilla baselines)
    # ------------------------------------------------------------------ #
    def _baseline_factories(self) -> dict[str, SequentialRecommender]:
        config = self.config
        if config.light_baselines:
            return {
                "POP": Popularity(),
                "Markov": MarkovChainRecommender(),
                "BPR": BPR(embedding_dim=config.embedding_dim, epochs=2, seed=config.seed),
            }
        common = dict(
            embedding_dim=config.embedding_dim,
            epochs=config.baseline_epochs,
            max_sequence_length=config.max_sequence_length,
            seed=config.seed,
        )
        return {
            "POP": Popularity(),
            "BPR": BPR(
                embedding_dim=config.embedding_dim,
                epochs=config.baseline_epochs,
                seed=config.seed,
            ),
            "TransRec": TransRec(
                embedding_dim=config.embedding_dim,
                epochs=config.baseline_epochs,
                seed=config.seed,
            ),
            "GRU4Rec": GRU4Rec(hidden_size=config.embedding_dim, **common),
            "Caser": Caser(**common),
            "SASRec": SASRec(**common),
        }

    @property
    def baselines(self) -> dict[str, SequentialRecommender]:
        """All fitted baseline recommenders, keyed by their table name."""
        if self._baselines is None:
            self._baselines = {}
            for name, model in self._baseline_factories().items():
                _LOGGER.info("fitting baseline %s", name)
                self._baselines[name] = model.fit(self.split)
        return self._baselines

    # ------------------------------------------------------------------ #
    # IRS frameworks
    # ------------------------------------------------------------------ #
    def irn(
        self,
        mask_type: MaskType = MaskType.PERSONALIZED,
        objective_weight: float | None = None,
    ) -> IRN:
        """A fitted IRN with the given PIM variant (cached per variant)."""
        config = self.config
        weight = config.irn_objective_weight if objective_weight is None else objective_weight
        key = (MaskType(mask_type), float(weight))
        if key not in self._irns:
            _LOGGER.info("training IRN (mask_type=%s, w_t=%.2f)", MaskType(mask_type).name, weight)
            model = IRN(
                embedding_dim=config.embedding_dim,
                user_dim=config.irn_user_dim,
                num_heads=config.irn_heads,
                num_layers=config.irn_layers,
                objective_weight=weight,
                objective_logit_scale=config.irn_objective_logit_scale,
                mask_type=MaskType(mask_type),
                item2vec_init=config.item2vec_init,
                epochs=config.irn_epochs,
                learning_rate=config.irn_learning_rate,
                max_sequence_length=config.max_sequence_length,
                seed=config.seed,
            )
            self._irns[key] = model.fit(self.split)
        return self._irns[key]

    def pf2inf(self, method: str = "dijkstra") -> Pf2Inf:
        """A fitted path-finding framework."""
        return Pf2Inf(method=method).fit(self.split)

    def rec2inf(self, backbone_name: str, candidate_k: int | None = None) -> Rec2Inf:
        """The Rec2Inf adaptation of one fitted baseline."""
        backbone = self.baselines[backbone_name]
        adapted = Rec2Inf(
            backbone,
            candidate_k=candidate_k or self.config.candidate_k,
            fit_backbone=False,
        )
        return adapted.fit(self.split)

    def vanilla(self, backbone_name: str) -> VanillaInfluential:
        """The vanilla (objective-agnostic) adaptation of one fitted baseline."""
        adapted = VanillaInfluential(self.baselines[backbone_name], fit_backbone=False)
        return adapted.fit(self.split)

    def frameworks_for_comparison(self) -> dict[str, InfluentialRecommender]:
        """Every framework of Table III, keyed by its row label."""
        frameworks: dict[str, InfluentialRecommender] = {
            "Pf2Inf Dijkstra": self.pf2inf("dijkstra"),
            "Pf2Inf MST": self.pf2inf("mst"),
        }
        for name in self.baselines:
            frameworks[f"Vanilla {name}"] = self.vanilla(name)
        for name in self.baselines:
            frameworks[f"Rec2Inf {name}"] = self.rec2inf(name)
        frameworks["IRN"] = self.irn()
        return frameworks

    # ------------------------------------------------------------------ #
    # Protocol
    # ------------------------------------------------------------------ #
    def protocol(self, max_length: int | None = None) -> IRSEvaluationProtocol:
        """The IRS evaluation protocol for a given maximum path length ``M``."""
        length = max_length or self.config.max_path_length
        if length not in self._protocols:
            self._protocols[length] = IRSEvaluationProtocol(
                self.split,
                self.evaluator,
                max_length=length,
                min_objective_interactions=self.config.min_objective_interactions,
                max_instances=self.config.max_eval_instances,
                history_window=self.config.history_window,
                rollout_chunk_size=self.config.rollout_chunk_size,
                num_workers=self.config.num_workers,
                seed=self.config.seed,
            )
        return self._protocols[length]

    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, object]:
        """A small description of the pipeline state (for logging / examples)."""
        stats = self.split.corpus.statistics()
        return {
            "dataset": stats.name,
            "users": stats.num_users,
            "items": stats.num_items,
            "interactions": stats.num_interactions,
            "train_sequences": len(self.split.train),
            "test_instances": len(self.split.test),
            "seed": self.config.seed,
        }

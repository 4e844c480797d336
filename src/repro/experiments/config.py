"""Experiment configuration.

An :class:`ExperimentConfig` fixes one dataset (MovieLens- or Lastfm-like),
its scale, the splitting parameters (``l_min`` / ``l_max`` of §IV-A2), the
IRS protocol parameters (maximum path length ``M``, candidate-set size ``k``)
and the per-model training budgets.  Three presets are provided:

* :meth:`ExperimentConfig.default` — the "full" reproduction scale used by
  ``examples/`` and the benchmark harness (minutes of NumPy training).
* :meth:`ExperimentConfig.fast` — a seconds-scale profile for unit and
  integration tests (tiny corpus, Markov evaluator, 1-2 epochs).
* :meth:`ExperimentConfig.paper` — the hyperparameters reported in Table VI
  of the paper, for reference and for users with the real datasets and a
  faster backend.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.data.interactions import InteractionDataset, SequenceCorpus
from repro.data.lastfm import load_lastfm, synthetic_lastfm
from repro.data.movielens import load_movielens_1m, synthetic_movielens
from repro.data.preprocessing import build_corpus
from repro.data.splitting import DatasetSplit, split_corpus
from repro.utils.exceptions import ConfigurationError

__all__ = ["ExperimentConfig", "PAPER_HYPERPARAMETERS"]


#: Table VI of the paper: hyperparameter ranges and per-dataset optima.
PAPER_HYPERPARAMETERS: list[dict[str, object]] = [
    {"name": "l_max", "range": "[30, 40, 50, 60, 70, 80]", "lastfm": 50, "movielens-1m": 60},
    {"name": "l_min", "range": "-", "lastfm": 20, "movielens-1m": 20},
    {"name": "batch_size", "range": "{64, 128, 256, 512}", "lastfm": 128, "movielens-1m": 128},
    {"name": "lr", "range": "[1e-4, 1e-2]", "lastfm": 8e-3, "movielens-1m": 3e-3},
    {"name": "d", "range": "{10, 20, 30, 40}", "lastfm": 40, "movielens-1m": 30},
    {"name": "d_prime", "range": "{4, 6, 8, 10, 12}", "lastfm": 10, "movielens-1m": 10},
    {"name": "L", "range": "{4, 5, 6, 7, 8}", "lastfm": 5, "movielens-1m": 6},
    {"name": "w_t", "range": "{0, 0.25, 0.5, 0.75, 1}", "lastfm": 1, "movielens-1m": 1},
    {"name": "h", "range": "{1, 2, 3, 4, 5, 6, 7, 8}", "lastfm": 4, "movielens-1m": 6},
]


@dataclass
class ExperimentConfig:
    """All knobs of one experimental setup."""

    # Dataset ----------------------------------------------------------------
    dataset: str = "movielens"
    #: multiplier on the synthetic corpus size (users / items)
    scale: float = 1.0
    #: path to a real MovieLens-1M / Lastfm dump; when set, the synthetic
    #: generator is bypassed and the original files are loaded
    data_directory: str | None = None
    min_interactions: int = 5
    seed: int = 0

    # Splitting (§IV-A2) -----------------------------------------------------
    l_min: int = 12
    l_max: int = 30
    validation_fraction: float = 0.1

    # IRS protocol (§IV-B) ---------------------------------------------------
    max_path_length: int = 20
    candidate_k: int = 15
    min_objective_interactions: int = 5
    max_eval_instances: int | None = 80
    history_window: int = 40

    # Evaluation execution ---------------------------------------------------
    #: instances per batched Algorithm-1 rollout call (bounds the fused
    #: logits tensor); protocol-level knob surfaced on the CLI
    rollout_chunk_size: int = 64
    #: threads the evaluation protocol and next-item ranking partition
    #: instances across (None means 1)
    num_workers: int | None = None

    # Model budgets ----------------------------------------------------------
    embedding_dim: int = 32
    evaluator_epochs: int = 10
    baseline_epochs: int = 6
    irn_epochs: int = 15
    irn_layers: int = 2
    irn_heads: int = 2
    irn_user_dim: int = 8
    irn_objective_weight: float = 1.0
    irn_objective_logit_scale: float = 4.5
    irn_learning_rate: float = 3e-3
    item2vec_init: bool = True
    max_sequence_length: int = 32
    #: use the cheap Markov evaluator instead of training BERT4Rec (tests)
    use_markov_evaluator: bool = False
    #: restrict the baseline set to the cheap models (tests)
    light_baselines: bool = False

    def __post_init__(self) -> None:
        if self.dataset not in {"movielens", "lastfm"}:
            raise ConfigurationError(
                f"dataset must be 'movielens' or 'lastfm', got '{self.dataset}'"
            )
        if self.scale <= 0:
            raise ConfigurationError("scale must be positive")
        if self.max_path_length <= 0:
            raise ConfigurationError("max_path_length must be positive")
        if not isinstance(self.rollout_chunk_size, int) or self.rollout_chunk_size <= 0:
            raise ConfigurationError(
                f"rollout_chunk_size must be a positive integer, "
                f"got {self.rollout_chunk_size!r}"
            )
        # Resolve (and thereby validate) the thread count eagerly so a bad
        # --num-workers fails at config time, not mid-experiment.
        from repro.config import resolve_num_workers

        self.num_workers = resolve_num_workers(self.num_workers)

    # ------------------------------------------------------------------ #
    # Presets
    # ------------------------------------------------------------------ #
    @classmethod
    def default(cls, dataset: str = "movielens", seed: int = 0) -> "ExperimentConfig":
        """The standard reproduction profile (NumPy-minutes scale)."""
        return cls(dataset=dataset, seed=seed)

    @classmethod
    def fast(cls, dataset: str = "movielens", seed: int = 0) -> "ExperimentConfig":
        """A seconds-scale profile for tests and smoke runs."""
        return cls(
            dataset=dataset,
            seed=seed,
            scale=0.35,
            l_min=8,
            l_max=20,
            max_path_length=10,
            candidate_k=10,
            max_eval_instances=25,
            history_window=25,
            embedding_dim=16,
            evaluator_epochs=2,
            baseline_epochs=2,
            irn_epochs=3,
            irn_layers=1,
            irn_user_dim=4,
            max_sequence_length=22,
            item2vec_init=False,
            use_markov_evaluator=True,
            light_baselines=True,
        )

    @classmethod
    def paper(cls, dataset: str = "movielens") -> "ExperimentConfig":
        """The Table VI hyperparameters (for use with the real datasets)."""
        if dataset == "lastfm":
            return cls(
                dataset="lastfm",
                l_min=20,
                l_max=50,
                candidate_k=50,
                max_eval_instances=None,
                embedding_dim=40,
                irn_layers=5,
                irn_heads=4,
                irn_user_dim=10,
                irn_learning_rate=8e-3,
                irn_epochs=100,
                evaluator_epochs=100,
                baseline_epochs=100,
                max_sequence_length=50,
                history_window=50,
            )
        return cls(
            dataset="movielens",
            l_min=20,
            l_max=60,
            candidate_k=50,
            max_eval_instances=None,
            embedding_dim=30,
            irn_layers=6,
            irn_heads=6,
            irn_user_dim=10,
            irn_learning_rate=3e-3,
            irn_epochs=100,
            evaluator_epochs=100,
            baseline_epochs=100,
            max_sequence_length=60,
            history_window=60,
        )

    def with_dataset(self, dataset: str) -> "ExperimentConfig":
        """Return a copy of this config targeting another dataset."""
        return replace(self, dataset=dataset)

    # ------------------------------------------------------------------ #
    # Data loading
    # ------------------------------------------------------------------ #
    def load_dataset(self) -> InteractionDataset:
        """Load the raw interaction log (real files if configured, else synthetic)."""
        if self.data_directory is not None:
            if self.dataset == "movielens":
                return load_movielens_1m(self.data_directory)
            return load_lastfm(self.data_directory)
        if self.dataset == "movielens":
            return synthetic_movielens(scale=self.scale, seed=self.seed)
        return synthetic_lastfm(scale=self.scale, seed=self.seed)

    def build_corpus(self) -> SequenceCorpus:
        """Load and preprocess the dataset into a sequence corpus."""
        dataset = self.load_dataset()
        merge = self.dataset == "lastfm"
        return build_corpus(
            dataset, min_interactions=self.min_interactions, merge_consecutive=merge
        )

    def load_split(self) -> DatasetSplit:
        """Full pipeline: load, preprocess and split the configured dataset."""
        corpus = self.build_corpus()
        return split_corpus(
            corpus,
            l_min=self.l_min,
            l_max=self.l_max,
            validation_fraction=self.validation_fraction,
            seed=self.seed,
        )

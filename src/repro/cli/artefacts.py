"""The paper-artefact commands: one table, name -> title, function, formatter."""

from __future__ import annotations

import argparse
from dataclasses import replace
from typing import Callable, NamedTuple

from repro.experiments import ablations, extensions, figures, tables
from repro.experiments.config import ExperimentConfig
from repro.experiments.pipeline import ExperimentPipeline
from repro.experiments.reporting import format_series, format_table
from repro.utils.exceptions import ConfigurationError

__all__ = ["ARTEFACTS", "PAPER_ARTEFACTS", "run_artefact"]


def _table1(pipeline: ExperimentPipeline) -> list:
    config = pipeline.config
    other = "lastfm" if config.dataset == "movielens" else "movielens"
    return tables.table1_dataset_statistics([config, config.with_dataset(other)])


def _format_curves(curves: dict, title: str) -> str:
    series = {name: list(values.values()) for name, values in curves.items()}
    return format_series(series, x_label="length index", title=title)


def _format_histogram(data: dict, title: str) -> str:
    edges = data["histogram_edges"]
    rows = [
        {"bin_left": round(left, 3), "bin_right": round(right, 3), "count": count}
        for left, right, count in zip(edges[:-1], edges[1:], data["histogram_counts"])
    ]
    summary = f"mean={data['mean']:.3f} std={data['std']:.3f}"
    if "correlation_with_ground_truth" in data:
        summary += f" corr(ground truth)={data['correlation_with_ground_truth']:.3f}"
    return format_table(rows, title=f"{title} ({summary})")


def _each(formatter):
    """Format a ``{name: result}`` dict as one ``formatter`` block per name."""

    def format_each(results: dict, title: str) -> str:
        return "\n\n".join(
            formatter(result, title=f"{title} [{name}]") for name, result in results.items()
        )

    return format_each


class Artefact(NamedTuple):
    title: str
    function: Callable  # (pipeline) -> result
    formatter: Callable = format_table  # (result, title=...) -> str

    def render(self, pipeline: ExperimentPipeline) -> str:
        return self.formatter(self.function(pipeline), title=self.title)


ARTEFACTS = {
    "table1": Artefact("Table I - dataset statistics", _table1),
    "table2": Artefact("Table II - IRS evaluator selection", tables.table2_evaluator_selection),
    "table3": Artefact("Table III - main comparison (M=20)", tables.table3_main_comparison),
    "table4": Artefact("Table IV - next-item performance", tables.table4_next_item),
    "table5": Artefact("Table V - PIM mask ablation", tables.table5_mask_ablation),
    "table6": Artefact("Table VI - hyperparameters", tables.table6_hyperparameters),
    "table7": Artefact("Table VII - case study", tables.table7_case_study),
    "figure6": Artefact(
        "Figure 6 - SR_M vs path length", figures.figure6_success_vs_length, _format_curves
    ),
    "figure7": Artefact(
        "Figure 7 - aggressiveness degree", figures.figure7_aggressiveness, _each(format_table)
    ),
    "figure8": Artefact(
        "Figure 8 - impressionability distribution",
        figures.figure8_impressionability_distribution,
        _format_histogram,
    ),
    "figure9": Artefact(
        "Figure 9 - stepwise evolution", figures.figure9_stepwise_evolution, _each(format_series)
    ),
    "ablation-embedding": Artefact(
        "Ablation - item-embedding initialisation", ablations.ablation_embedding_init
    ),
    "ablation-padding": Artefact(
        "Ablation - pre vs post padding", ablations.ablation_padding_scheme
    ),
    "ablation-decoding": Artefact(
        "Ablation - greedy vs beam-search decoding", ablations.ablation_decoding
    ),
    "ext-interactive": Artefact(
        "Extension - interactive (accept/reject) simulation",
        extensions.extension_interactive_comparison,
    ),
    "ext-kg": Artefact(
        "Extension - knowledge-graph path finding", extensions.extension_kg_comparison
    ),
    "ext-category": Artefact(
        "Extension - category objectives", extensions.extension_category_objectives
    ),
    "ext-quality": Artefact(
        "Extension - path quality report", extensions.extension_path_quality_report
    ),
}

#: What ``all`` regenerates: every table and figure of the paper (the
#: ablations and extensions are run individually).
PAPER_ARTEFACTS = tuple(name for name in ARTEFACTS if name.startswith(("table", "figure")))


def _make_config(args: argparse.Namespace, knobs: dict) -> ExperimentConfig:
    if args.profile not in ("default", "fast"):
        raise ConfigurationError(
            f"unknown profile {args.profile!r} for paper artefacts: choose "
            "'default' or 'fast' (the bench profiles 'smoke'/'scale' apply "
            "to the bench and serving commands only)"
        )
    preset = ExperimentConfig.fast if args.profile == "fast" else ExperimentConfig.default
    overrides = {"scale": args.scale, "data_directory": args.data_directory, **knobs}
    return replace(
        preset(dataset=args.dataset, seed=args.seed),
        **{name: value for name, value in overrides.items() if value is not None},
    )


def run_artefact(args: argparse.Namespace, knobs: dict) -> int:
    """Regenerate ``args.artefact`` (or every table and figure for ``all``)."""
    pipeline = ExperimentPipeline(_make_config(args, knobs))
    names = PAPER_ARTEFACTS if args.artefact == "all" else (args.artefact,)
    report = "\n\n".join(ARTEFACTS[name].render(pipeline) for name in names)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 0

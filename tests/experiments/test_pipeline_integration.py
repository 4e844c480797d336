"""Integration tests: the fast-profile pipeline drives every table and figure.

These are the heaviest tests in the suite (a few seconds each thanks to the
session-scoped pipeline); they verify that the experiment harness runs end to
end and produces structurally valid artefacts, not that the numbers match the
paper (the ordering assertions in ``benchmarks/test_table*.py`` and
``benchmarks/test_figure*.py`` are for that).
"""

import numpy as np

from repro.core.pim import MaskType
from repro.experiments import figures, tables
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_table


class TestPipelineComponents:
    def test_summary_fields(self, fast_pipeline):
        summary = fast_pipeline.summary()
        assert summary["users"] > 0 and summary["items"] > 0
        assert summary["train_sequences"] > 0

    def test_split_cached(self, fast_pipeline):
        assert fast_pipeline.split is fast_pipeline.split

    def test_evaluator_selection(self, fast_pipeline):
        selection = fast_pipeline.evaluator_selection
        assert selection.best_name() in selection.scores
        assert fast_pipeline.evaluator.name == selection.best_name()

    def test_baselines_fitted_once(self, fast_pipeline):
        baselines = fast_pipeline.baselines
        assert baselines is fast_pipeline.baselines
        assert all(model.corpus is not None for model in baselines.values())

    def test_irn_cached_per_mask_type(self, fast_pipeline):
        irn_a = fast_pipeline.irn(mask_type=MaskType.PERSONALIZED)
        irn_b = fast_pipeline.irn(mask_type=MaskType.PERSONALIZED)
        assert irn_a is irn_b

    def test_frameworks_for_comparison_cover_all_groups(self, fast_pipeline):
        frameworks = fast_pipeline.frameworks_for_comparison()
        labels = set(frameworks)
        assert "IRN" in labels
        assert any(label.startswith("Pf2Inf") for label in labels)
        assert any(label.startswith("Vanilla") for label in labels)
        assert any(label.startswith("Rec2Inf") for label in labels)


class TestTables:
    def test_table1(self):
        config = ExperimentConfig.fast("movielens")
        config.scale = 0.2
        rows = tables.table1_dataset_statistics([config, config.with_dataset("lastfm")])
        assert len(rows) == 2
        assert all(row["users"] > 0 for row in rows)

    def test_table2(self, fast_pipeline):
        rows = tables.table2_evaluator_selection(fast_pipeline)
        assert sum(row["selected"] for row in rows) == 1

    def test_table3_structure(self, fast_pipeline):
        rows = tables.table3_main_comparison(fast_pipeline)
        frameworks = {row["framework"] for row in rows}
        assert "IRN" in frameworks
        max_length = fast_pipeline.config.max_path_length
        for row in rows:
            assert 0.0 <= row[f"SR{max_length}"] <= 1.0
        # renders without crashing
        assert "IRN" in format_table(rows)

    def test_table4_groups(self, fast_pipeline):
        rows = tables.table4_next_item(fast_pipeline)
        groups = {row["group"] for row in rows}
        assert groups == {"Next-item RS", "IRS"}
        assert any(row["method"] == "IRN" for row in rows)

    def test_table5_has_three_mask_types(self, fast_pipeline):
        rows = tables.table5_mask_ablation(fast_pipeline)
        assert len(rows) == 3

    def test_table6_includes_repro_column(self, fast_pipeline):
        rows = tables.table6_hyperparameters(fast_pipeline)
        assert all("this_repro" in row for row in rows)
        assert tables.table6_hyperparameters(None)

    def test_table7_case_study_rows(self, fast_pipeline):
        rows = tables.table7_case_study(fast_pipeline)
        assert rows[0]["role"].startswith("history")
        assert len(rows) >= 2


class TestFigures:
    def test_figure6_monotone_in_length(self, fast_pipeline):
        curves = figures.figure6_success_vs_length(fast_pipeline, lengths=(3, 8))
        assert "IRN" in curves
        for series in curves.values():
            assert series[3] <= series[8] + 1e-9

    def test_figure7_structure(self, fast_pipeline):
        sweep = figures.figure7_aggressiveness(
            fast_pipeline, rec2inf_levels=(3, 10), irn_levels=(0.0, 1.0)
        )
        assert len(sweep) == 2
        for rows in sweep.values():
            assert len(rows) == 2

    def test_figure8_distribution(self, fast_pipeline):
        data = figures.figure8_impressionability_distribution(fast_pipeline, bins=5)
        assert len(data["factors"]) == fast_pipeline.split.corpus.num_users
        assert sum(data["histogram_counts"]) == len(data["factors"])
        assert np.isfinite(data["mean"])

    def test_figure9_series(self, fast_pipeline):
        evolution = figures.figure9_stepwise_evolution(fast_pipeline)
        assert "IRN" in evolution
        for series in evolution.values():
            assert len(series["objective"]) == len(series["item"])

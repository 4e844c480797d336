"""Ablation bench: random vs. item2vec item-embedding initialisation (§III-D1).

The paper motivates initialising the token embeddings from item2vec ("better
initial weights ... can significantly improve the ultimate model
performance").  DESIGN.md lists this as a design choice worth ablating: the
bench trains the same IRN twice — random vs. pre-trained initialisation — and
reports the Table III metrics for both.

At this corpus scale the gap is small, so the assertions only require the
pre-trained variant to stay competitive (no large regression on SR or
smoothness); the measured rows are printed by the test itself.
"""

from repro.experiments import ablations
from repro.experiments.reporting import format_table

from benchmarks.conftest import print_report


def test_ablation_embedding_init(benchmark, pipeline, fast_mode):
    max_length = pipeline.config.max_path_length
    sr, ppl = f"SR{max_length}", "log(PPL)"

    rows = benchmark.pedantic(
        ablations.ablation_embedding_init, args=(pipeline,), rounds=1, iterations=1
    )

    print_report("Ablation - item-embedding initialisation", format_table(rows))
    assert [row["variant"] for row in rows] == ["random init", "item2vec init"]
    by_variant = {row["variant"]: row for row in rows}

    if fast_mode:
        return

    # Pre-training must not hurt: the item2vec-initialised IRN stays within
    # noise of the random one on reach and smoothness (and usually wins).
    assert by_variant["item2vec init"][sr] >= by_variant["random init"][sr] - 0.1
    assert by_variant["item2vec init"][ppl] <= by_variant["random init"][ppl] + 0.3

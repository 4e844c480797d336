"""Benchmark: regenerate Table III (main comparison, M = 20).

Paper reference (Table III): IRN clearly leads on SR20 / IoI20 / IoR20 on
both datasets (e.g. SR20 = 0.259 on MovieLens-1M vs. 0.073 for the best
Rec2Inf baseline), Rec2Inf adaptations beat their vanilla counterparts on
those metrics, the vanilla baselines almost never reach the objective, and
Pf2Inf reaches it sometimes but with clearly worse (higher) perplexity.

On the synthetic corpora the absolute numbers differ (the test prints them);
the assertions below encode the ordering claims that transfer:

* Rec2Inf lifts SR / IoI / IoR over vanilla for the same backbones.
* IRN beats every vanilla baseline on SR and IoR.
* IRN is competitive with the best Rec2Inf baseline (within a factor) while
  being *smoother* (lower log PPL) than that baseline.
* Pf2Inf pays for its reach with the worst perplexity of all frameworks.
"""

import numpy as np

from repro.experiments import tables
from repro.experiments.reporting import format_table

from benchmarks.conftest import print_report


def _column(rows, prefix):
    return {row["framework"]: row for row in rows if row["framework"].startswith(prefix)}


def test_table3_main_comparison(benchmark, pipeline, fast_mode):
    max_length = pipeline.config.max_path_length
    sr, ioi, ior, ppl = f"SR{max_length}", f"IoI{max_length}", f"IoR{max_length}", "log(PPL)"

    rows = benchmark.pedantic(tables.table3_main_comparison, args=(pipeline,), rounds=1, iterations=1)

    print_report("Table III - main comparison", format_table(rows))
    vanilla = _column(rows, "Vanilla")
    rec2inf = _column(rows, "Rec2Inf")
    pf2inf = _column(rows, "Pf2Inf")
    irn = next(row for row in rows if row["framework"] == "IRN")

    assert vanilla and rec2inf and pf2inf

    # Rec2Inf adaptation raises the influence metrics over the vanilla models.
    mean_vanilla_sr = np.mean([row[sr] for row in vanilla.values()])
    mean_rec2inf_sr = np.mean([row[sr] for row in rec2inf.values()])
    assert mean_rec2inf_sr >= mean_vanilla_sr

    if fast_mode:
        return  # the smoke profile only checks that the harness runs end to end

    mean_vanilla_ioi = np.mean([row[ioi] for row in vanilla.values()])
    mean_rec2inf_ioi = np.mean([row[ioi] for row in rec2inf.values()])
    assert mean_rec2inf_ioi >= mean_vanilla_ioi

    # IRN dominates the vanilla baselines on the influence metrics.
    assert irn[sr] > max(row[sr] for row in vanilla.values())
    assert irn[ior] > max(row[ior] for row in vanilla.values())
    assert irn[ioi] > np.mean([row[ioi] for row in vanilla.values()])

    # IRN is competitive with the strongest Rec2Inf adaptation on reach while
    # staying on the smooth side of the adapted baselines (the paper's
    # SR-vs-PPL trade-off claim: IRN gets near-best PPL while influencing).
    best_rec2inf = max(rec2inf.values(), key=lambda row: row[sr])
    assert irn[sr] >= 0.6 * best_rec2inf[sr]
    assert irn[ior] >= 0.8 * best_rec2inf[ior]
    assert irn[ppl] <= np.median([row[ppl] for row in rec2inf.values()]) + 0.05

    # Path-finding reaches the objective at the cost of the worst smoothness.
    assert max(row[ppl] for row in pf2inf.values()) >= irn[ppl]
    assert max(row[ppl] for row in pf2inf.values()) >= max(row[ppl] for row in rec2inf.values()) - 0.3

"""Compare two sets of benchmark runs, metric by metric, noise-aware.

    python3 benchmarks/e2e/compare.py A.json B.json [--json ROWS.json]

``A.json`` / ``B.json`` are what ``run.py --json`` writes: a list of run
reports (any mix of workloads; several runs per workload).  For every
``workload/metric`` present in both sets the table gives each set's
median and quartiles, the ratio B/A with its base, the bound from
``BENCHMARK.json`` and a verdict:

* ``worse`` / ``better`` — B's median differs from A's by more than the
  bound (worse) or by more than A's own interquartile range (better);
* ``same`` — neither;
* ``unresolved`` — a set's interquartile range is wider than the bound,
  so the sets cannot resolve a change of that size (unless every run of
  one set beats every run of the other).

A set whose host calibration (``host.calib_ms_q1``) differs from the
other's by more than 10 % is flagged ``host drifted``: the two sets did
not see the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
HOST_DRIFT = 0.10


def load_table() -> dict:
    """``metric -> (better, bound or None)`` from ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    table = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    table.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return table


def collect(path: str) -> dict:
    """``(workload, metric) -> [value per run]`` of one set."""
    with open(path) as handle:
        runs = json.load(handle)
    values: dict = {}
    for run in runs:
        row = dict(run["metrics"])
        row.update(run.get("diagnosis") or {})
        row.update(run.get("per_layer") or {})
        for metric, value in row.items():
            values.setdefault((run["workload"], metric), []).append(float(value))
    return values


def summary(values) -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better: str, bound: "float | None") -> str:
    a_q1, a_med, a_q3 = summary(a)
    b_q1, b_med, b_q3 = summary(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b_med - a_med)  # > 0: B is worse, in the metric's unit
    a_iqr = a_q3 - a_q1
    if bound is not None:
        spread = max(
            a_iqr / abs(a_med) if a_med else 0.0, (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
        )
        if spread > bound:
            # The sets cannot resolve a change the size of the bound, unless
            # every run of B reads better than every run of A.
            every_b_better = max(sign * y for y in b) < min(sign * x for x in a)
            return "better" if every_b_better else "unresolved"
        if worse_by > bound * abs(a_med):
            return "worse"
    elif worse_by > a_iqr > 0:
        return "worse"
    if -worse_by > a_iqr > 0:
        return "better"
    return "same"


def compare(path_a: str, path_b: str) -> "list[dict]":
    table = load_table()
    set_a, set_b = collect(path_a), collect(path_b)
    rows = []
    for key in sorted(set(set_a) & set(set_b)):
        workload, metric = key
        if metric not in table:
            continue
        better, bound = table[metric]
        a, b = set_a[key], set_b[key]
        a_q1, a_med, a_q3 = summary(a)
        b_q1, b_med, b_q3 = summary(b)
        rows.append({
            "workload": workload, "metric": metric, "better": better, "bound": bound,
            "a_runs": len(a), "a_median": a_med, "a_q1": a_q1, "a_q3": a_q3,
            "b_runs": len(b), "b_median": b_med, "b_q1": b_q1, "b_q3": b_q3,
            "ratio_b_over_a": b_med / a_med if a_med else None,
            "relative_difference": abs(b_med - a_med) / abs(a_med) if a_med else 0.0,
            "verdict": verdict(a, b, better, bound),
        })
    return rows


def host_drift(rows) -> "list[str]":
    drifted = []
    for row in rows:
        if row["metric"] == "host.calib_ms_q1" and row["relative_difference"] > HOST_DRIFT:
            drifted.append(
                f"{row['workload']}: host drifted (calibration {row['a_median']:.2f} ms "
                f"vs {row['b_median']:.2f} ms)"
            )
    return drifted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--json", dest="json_out", default=None, help="also write the rows here")
    parser.add_argument("--all", action="store_true", help="per-layer rows too, not only gated ones")
    args = parser.parse_args(argv)
    rows = compare(args.a, args.b)
    print(f"{'workload/metric':<42}{'A median [q1, q3]':>34}{'B median [q1, q3]':>34}"
          f"{'B/A':>8}{'bound':>7}  verdict")
    for row in rows:
        if row["bound"] is None and not args.all:
            continue
        ratio = "-" if row["ratio_b_over_a"] is None else f"{row['ratio_b_over_a']:.3f}"
        bound = "-" if row["bound"] is None else f"{row['bound']:.2f}"
        print(
            f"{row['workload'] + '/' + row['metric']:<42}"
            f"{row['a_median']:>12.5g} [{row['a_q1']:.5g}, {row['a_q3']:.5g}]".ljust(76)
            + f"{row['b_median']:>12.5g} [{row['b_q1']:.5g}, {row['b_q3']:.5g}]".ljust(34)
            + f"{ratio:>8}{bound:>7}  {row['verdict']}"
        )
    print(f"ratios are B/A: base = A = {args.a} ({rows[0]['a_runs'] if rows else 0} runs/workload)")
    for line in host_drift(rows):
        print(line)
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(rows, handle, indent=1)
    return 1 if any(r["verdict"] == "worse" and r["bound"] is not None for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

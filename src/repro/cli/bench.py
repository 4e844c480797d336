"""The ``bench`` command (also ``python -m repro.perf.bench``)."""

from __future__ import annotations

import argparse
import sys

from repro.perf.bench import (
    format_summary,
    profile_benchmarks,
    resolve_profile,
    resolve_sections,
    run_benchmarks,
)

__all__ = ["run_bench"]


def _resolve_bench_profile(value: str) -> str:
    """Map ``--profile`` onto a bench profile (``fast`` = ``smoke``);
    ``ConfigurationError`` lists the known names."""
    return resolve_profile("smoke" if value == "fast" else value)


def run_bench(args: argparse.Namespace, knobs: dict) -> int:
    """Run the contract sections, print the work counts and the gate's verdict.

    ``knobs`` is empty: the corpus is the fixed-seed synthetic one and the
    ``sharded_evaluation`` section sweeps its own fixed 1/2/4 thread grid.
    """
    # Everything that can be wrong is checked before the model trains:
    # section typos, unknown profiles, an unwritable report path.
    sections = args.sections.split(",") if args.sections else None
    resolve_sections(sections)
    profile = _resolve_bench_profile(args.profile)
    output = args.output or "BENCH_path_planning.json"
    with open(output, "a", encoding="utf-8"):
        pass

    def run() -> dict:
        return run_benchmarks(profile=profile, output=output, sections=sections)

    if args.cprofile:
        report, stats_path = profile_benchmarks(run, output)
        print(f"cProfile stats written to {stats_path}", file=sys.stderr)
    else:
        report = run()
    print(format_summary(report))
    print(f"report written to {output}")
    return 0

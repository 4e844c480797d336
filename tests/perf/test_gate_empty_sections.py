"""The gate never passes a section that recorded nothing.

Kept apart from ``test_gate.py`` (whose report shapes are pinned): one
parametrised case per bench section, so a section added to
:data:`~repro.perf.bench.BENCH_SECTIONS` without a gate check fails here.
"""

from __future__ import annotations

import pytest

from repro.perf.bench import BENCH_SECTIONS
from repro.perf.gate import collect_violations


@pytest.mark.parametrize("section", BENCH_SECTIONS)
def test_an_empty_section_is_a_violation_naming_it(section):
    violations = collect_violations({section: {}})
    assert any(violation.startswith(f"{section}:") for violation in violations)

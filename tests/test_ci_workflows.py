"""The CI definition must at least parse: a workflow GitHub cannot load
runs nothing and reports nothing (ROADMAP 5a — ``ci.yml`` sat unparseable
behind an unquoted ``numpy: `` in a step name)."""

from __future__ import annotations

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")  # PyYAML: not a dependency of the package

WORKFLOWS = sorted((Path(__file__).resolve().parents[1] / ".github" / "workflows").iterdir())


def test_the_repository_defines_a_workflow():
    assert WORKFLOWS


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda path: path.name)
def test_workflow_parses_and_every_job_has_steps(path):
    document = yaml.safe_load(path.read_text())
    assert document["jobs"], f"{path.name} defines no job"
    for name, job in document["jobs"].items():
        assert job.get("steps"), f"{path.name}: job {name!r} has no steps"

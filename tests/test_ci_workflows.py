"""The CI definition must parse, and may only use knobs and flags that exist.

A workflow GitHub cannot load runs nothing and reports nothing (``ci.yml``
once sat unparseable behind an unquoted ``numpy: `` in a step name).  And a
workflow that sets a deleted ``REPRO_*`` variable, passes a deleted flag or
runs a deleted module fails only in a CI run — so all three are checked
here, in the tier-1 suite.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, resolve_args
from repro.config import CONFIG_FIELDS

yaml = pytest.importorskip("yaml")  # PyYAML: not a dependency of the package

ROOT = Path(__file__).resolve().parents[1]
WORKFLOWS = sorted((ROOT / ".github" / "workflows").iterdir())

#: ``REPRO_*`` variables read outside the ``repro.config`` table (its header
#: says why each owner reads its own).
NON_TABLE_ENV = {"REPRO_LOG_LEVEL"}

#: A ``repro.cli`` line must name its command (``--help`` probes are not runs).
CLI_INVOCATION = re.compile(r"python -m repro\.cli ([a-z][^\n]*)")
MODULE_INVOCATION = re.compile(r"python -m ([A-Za-z_][\w.]*)")
SHELL_OPERATORS = {">", ">>", "2>", "|", "||", "&&", ";", "&"}


def _load(path: Path) -> dict:
    return yaml.safe_load(path.read_text())


def _walk(node):
    yield node
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    for child in children:
        yield from _walk(child)


def _scripts(document: dict) -> "list[tuple[str, dict]]":
    """Every ``run`` script of the workflow (continuation lines joined), with
    the ``REPRO_*`` variables its step sets."""
    return [
        (
            node["run"].replace("\\\n", " "),
            {
                name: str(value)
                for name, value in (node.get("env") or {}).items()
                if name.startswith("REPRO_")
            },
        )
        for node in _walk(document)
        if isinstance(node, dict) and isinstance(node.get("run"), str)
    ]


def _invocations(document: dict) -> "list[tuple[list[str], dict]]":
    """Every ``repro-irs`` argv the workflow's ``run`` scripts invoke, with
    the ``REPRO_*`` variables its step sets."""
    invocations = []
    for script, step_env in _scripts(document):
        for rest in CLI_INVOCATION.findall(script):
            argv = []
            for token in shlex.split(rest):
                if token in SHELL_OPERATORS:
                    break
                argv.append(token)
            invocations.append((argv, step_env))
    return invocations


def _command_lines(document: dict) -> "list[list[str]]":
    return [argv for argv, _ in _invocations(document)]


INVOCATIONS = [
    pytest.param(argv, step_env, id=f"{path.stem}-{index}-{argv[0]}")
    for path in WORKFLOWS
    for index, (argv, step_env) in enumerate(_invocations(_load(path)))
]


def test_the_repository_defines_a_workflow():
    assert WORKFLOWS


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda path: path.name)
def test_workflow_parses_and_every_job_has_steps(path):
    document = _load(path)
    assert document["jobs"], f"{path.name} defines no job"
    for name, job in document["jobs"].items():
        assert job.get("steps"), f"{path.name}: job {name!r} has no steps"


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda path: path.name)
def test_every_repro_variable_a_workflow_sets_is_read(path):
    read = {row.env_var for row in CONFIG_FIELDS.values() if row.from_env} | NON_TABLE_ENV
    set_by_workflow = {
        name
        for node in _walk(_load(path))
        if isinstance(node, dict) and isinstance(node.get("env"), dict)
        for name in node["env"]
        if name.startswith("REPRO_")
    }
    assert set_by_workflow <= read, f"{path.name} sets {sorted(set_by_workflow - read)}"


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda path: path.name)
def test_every_cli_command_line_in_a_workflow_parses(path):
    argvs = _command_lines(_load(path))
    parser = build_parser()
    for argv in argvs:
        parser.parse_args(argv)


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda path: path.name)
def test_every_module_a_workflow_runs_exists(path, monkeypatch):
    """A ``python -m <module>`` step naming a deleted module fails only in CI."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    modules = {
        module
        for script, _ in _scripts(_load(path))
        for module in MODULE_INVOCATION.findall(script)
    }
    assert modules, f"{path.name} runs no python module"

    def exists(module: str) -> bool:
        try:  # a dotted name imports its parents, and a missing parent raises
            return importlib.util.find_spec(module) is not None
        except ModuleNotFoundError:
            return False

    missing = sorted(module for module in modules if not exists(module))
    assert not missing, f"{path.name} runs {missing}, which do not exist"


@pytest.mark.parametrize("argv,step_env", INVOCATIONS)
def test_every_workflow_command_line_resolves_through_the_table(argv, step_env, monkeypatch):
    """Parsing is not enough: each knob's value must pass its table row's
    validation, and ``serve-sim``'s cross-flag rules, under the step's own
    environment — as ``main`` resolves them before anything trains."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    for name, value in step_env.items():
        monkeypatch.setenv(name, value)
    args = build_parser().parse_args(argv)
    resolve_args(args, args.artefact)


def test_the_command_line_scan_finds_the_ci_invocations():
    argvs = _command_lines(_load(next(p for p in WORKFLOWS if p.name == "ci.yml")))
    commands = {argv[0] for argv in argvs}
    assert {"serve-sim", "trace", "metrics"} <= commands
    # continuation lines are part of the command they continue
    assert any("--trace-sample-rate" in argv for argv in argvs)


def test_the_parser_step_builds_every_subcommand():
    """The lint job's parser step reads its command list from ``build_parser()``
    rather than a hand-kept list, and that list is every subcommand the
    parser registers."""
    lint = _load(next(p for p in WORKFLOWS if p.name == "ci.yml"))["jobs"]["lint"]
    (step,) = [
        step for step in lint["steps"] if step.get("name", "").startswith("Build every subcommand")
    ]
    (lister,) = re.findall(r'commands=\$\(python -c "([^"]+)"\)', step["run"])
    assert 'for command in $commands; do' in step["run"]
    assert 'python -m repro.cli "$command" --help' in step["run"]
    listed = io.StringIO()
    with contextlib.redirect_stdout(listed):
        exec(lister, {})
    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert listed.getvalue().split() == list(subparsers.choices)


def test_the_contracts_job_runs_the_perf_budgets():
    """The interpreter, training and serving budgets (``benchmarks/perf``)
    gate only through CI's contracts job: a step there must run ``pytest -m perf`` over
    that directory, and every budget module must carry the ``perf`` mark,
    or ``-m perf`` deselects it without a word."""
    contracts = _load(next(p for p in WORKFLOWS if p.name == "ci.yml"))["jobs"]["contracts"]
    argvs = [
        shlex.split(rest)
        for step in contracts["steps"]
        if isinstance(step.get("run"), str)
        for rest in re.findall(r"python -m pytest ([^\n]*)", step["run"])
    ]
    assert any(
        "benchmarks/perf" in argv and ["-m", "perf"] in [argv[i : i + 2] for i in range(len(argv))]
        for argv in argvs
    ), argvs
    budgets = sorted((ROOT / "benchmarks" / "perf").glob("test_*.py"))
    assert {path.name for path in budgets} >= {
        "test_interpreter_budget.py",
        "test_training_budget.py",
        "test_serving_budget.py",
    }
    for path in budgets:
        assert "pytestmark = pytest.mark.perf" in path.read_text(), path.name

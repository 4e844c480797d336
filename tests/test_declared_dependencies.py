"""Every third-party module the package imports is a declared dependency.

A module ``src/repro`` imports but ``pyproject.toml`` does not declare
imports on a developer machine that happens to have it and fails at import
on a clean runner (``networkx``, once).  CI installs the package from
``pyproject.toml``, so what is declared there is what a runner has.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def _distribution(requirement: str) -> str:
    """``"numpy>=1.24; python_version>'3'"`` -> ``"numpy"``."""
    return re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower()


def _declared() -> "set[str]":
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {_distribution(requirement) for requirement in project["dependencies"]}


def _top_level_imports(path: Path) -> "set[str]":
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def _third_party_imports() -> "set[str]":
    imported = set().union(*(_top_level_imports(path) for path in PACKAGE.rglob("*.py")))
    return imported - set(sys.stdlib_module_names) - {"repro"}


def test_every_third_party_import_is_a_declared_dependency():
    third_party = _third_party_imports()
    assert "numpy" in third_party  # the walk sees the package's imports
    assert sorted(third_party - _declared()) == []


"""Every third-party module the package imports is a declared dependency.

A module ``src/repro`` imports but ``pyproject.toml`` does not declare
imports on a developer machine that happens to have it and fails at import
on a clean runner (``networkx``, once).  CI installs the package from
``pyproject.toml``, so what is declared there is what a runner has.  A
declared graph library is still imported only where the graph baselines
use it, so no serving process carries it.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def _distribution(requirement: str) -> str:
    """``"numpy>=1.24; python_version>'3'"`` -> ``"numpy"``."""
    return re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower()


def _declared() -> "set[str]":
    tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11
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



def test_serving_processes_load_no_graph_library():
    """networkx costs a process about 14 MB of RSS, and every forked fleet
    worker inherits what its parent imported; only Pf2Inf and the
    knowledge-graph extension use it, and they import it where they do."""
    code = (
        "import sys\n"
        "import repro.serve, repro.distributed, repro.core.beam\n"
        "print('networkx' in sys.modules)\n"
        "from repro.core.item_graph import build_item_graph\n"
        "build_item_graph([(1, 2, 3)])\n"
        "print('networkx' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.stdout.split() == ["False", "True"]

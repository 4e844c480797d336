"""README "Contracts" maps every contract bit to the tier-1 test that holds it.

Each bit — a parity, zero-drop, no-pause or deadline bit, or an exact work
count — is a named test; the table is how a reader finds it.  A test id the
table cites must name a test that exists, so renaming or deleting one fails
here instead of leaving the map pointing at nothing.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SECTION = re.compile(r"\*\*Contracts: tier-1 tests\.\*\*(.*?)\n## ", re.DOTALL)
ROW = re.compile(r"^\| (?!Contract bit|---)(.+?) \| (.+) \|$", re.MULTILINE)
CITE = re.compile(r"`(tests/[^`]*)`")
#: a whole test (every parametrized case of it) or a whole test class
TEST_ID = re.compile(r"(tests/[\w/]+\.py)::(\w+(?:::\w+)?)")


def _rows() -> "list[tuple[str, list[str]]]":
    """``(bit, [cited test id, ...])`` per table row."""
    section = SECTION.search((ROOT / "README.md").read_text())
    assert section, 'README has no "Contracts: tier-1 tests." section'
    return [(bit, CITE.findall(cell)) for bit, cell in ROW.findall(section.group(1))]


ROWS = _rows()
CITED = sorted({test_id for _, ids in ROWS for test_id in ids})


def test_every_bit_cites_a_test():
    # one row per bit family the contract report once carried
    assert len(ROWS) >= 27
    for bit, ids in ROWS:
        assert ids, f"the contract bit {bit!r} cites no test id"


@pytest.mark.parametrize("test_id", CITED, ids=lambda test_id: test_id.split("/")[-1])
def test_every_cited_test_exists(test_id):
    match = TEST_ID.fullmatch(test_id)
    assert match, f"{test_id} is not a <file>::[<Class>::]<test> id"
    path, name = match.groups()
    scope = ast.parse((ROOT / path).read_text()).body
    for part in name.split("::"):
        node = next(
            (
                child
                for child in scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and child.name == part
            ),
            None,
        )
        assert node is not None, f"{path} has no {name}"
        scope = node.body
    prefix = "Test" if isinstance(node, ast.ClassDef) else "test_"
    assert node.name.startswith(prefix), f"{test_id} is not collected as a test"

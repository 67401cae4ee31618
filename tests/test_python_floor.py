"""The package and its tests parse as the oldest Python that pyproject.toml
declares. This checks syntax only: a call to a newer standard-library
function still passes."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(
    int(part)
    for part in re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$',
        (ROOT / "pyproject.toml").read_text(),
        re.MULTILINE,
    ).groups()
)
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)

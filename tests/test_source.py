"""Rules that the package source keeps, checked over every module of ``src/qrouter``."""

from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qrouter"
MAX_LINE = 100


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_line_is_longer_than_the_limit(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [(i, len(line)) for i, line in enumerate(lines, 1) if len(line) > MAX_LINE]
    assert long == [], f"{path.name}: (line, length) over {MAX_LINE} characters"

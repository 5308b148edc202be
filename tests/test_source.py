"""Rules that the package source keeps, checked over every module of ``src/qrouter``."""

import ast
import re
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qrouter"
MAX_LINE = 100


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_line_is_longer_than_the_limit(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [(i, len(line)) for i, line in enumerate(lines, 1) if len(line) > MAX_LINE]
    assert long == [], f"{path.name}: (line, length) over {MAX_LINE} characters"


@pytest.mark.parametrize(
    "path", [p for p in sorted(SOURCE.glob("*.py")) if p.name != "cli.py"], ids=lambda p: p.name
)
def test_only_the_cli_opens_files(path):
    """``cli`` reads and writes every file; the other modules take and return text."""
    calls = re.findall(r"\bopen\(", path.read_text(encoding="utf-8"))
    assert calls == [], f"{path.name} calls open("


@pytest.mark.parametrize(
    "path", [p for p in sorted(SOURCE.glob("*.py")) if p.name != "cli.py"], ids=lambda p: p.name
)
def test_only_the_cli_imports_json(path):
    """``cli`` decodes every input file; the other modules take decoded objects."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    modules = [a.name for node in nodes if isinstance(node, ast.Import) for a in node.names]
    modules += [node.module for node in nodes if isinstance(node, ast.ImportFrom)]
    assert "json" not in {m.split(".")[0] for m in modules if m}, f"{path.name} imports json"

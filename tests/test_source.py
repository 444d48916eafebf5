"""Rules the package source keeps."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cuflinks"


def test_no_assert_statements_in_the_package():
    """python -O strips assert statements, so no check may be one."""
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text("utf-8"),
                                            str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []

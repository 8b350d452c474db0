import ast
from pathlib import Path

import cmtrace


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so every check in the package
    # raises explicitly instead
    pkg = Path(cmtrace.__file__).resolve().parent
    found = [
        f"{path.relative_to(pkg)}:{node.lineno}"
        for path in sorted(pkg.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

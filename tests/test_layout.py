"""Reference oracles live in the tests, not in the product.

Every scalar ``*_reference`` twin of a vectorized routine belongs in
``tests/oracles/``, and nothing under ``src/repro`` may import from
``tests``. The check reads each module's syntax tree, so docstrings
that name an oracle do not trip it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

MODULES = sorted(PACKAGE.rglob("*.py"))


def _offences(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.endswith("_reference"):
                yield f"line {node.lineno}: defines {node.name}()"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tests":
                    yield f"line {node.lineno}: imports {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "tests":
                yield f"line {node.lineno}: imports from {node.module}"


def test_no_reference_twin_or_test_import():
    assert len(MODULES) > 50
    found = [
        f"{path.relative_to(PACKAGE)} {offence}"
        for path in MODULES
        for offence in _offences(path)
    ]
    assert found == []

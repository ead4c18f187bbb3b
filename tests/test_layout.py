"""Layout rules of ``src/repro``, checked on each module's syntax tree
(so docstrings that name a rule's subject do not trip it).

* Reference oracles live in the tests, not in the product: every
  scalar ``*_reference`` twin of a vectorized routine belongs in
  ``tests/oracles/``, and nothing under ``src/repro`` may import from
  ``tests``.
* The public surface is loaded lazily: a package ``__init__`` is its
  docstring, ``__all__`` and a :func:`repro._lazy.lazy_exports` table,
  with no other import; and no module imports ``repro.api`` or a name
  of the top-level package (other than ``__version__``), because
  either would load modules through the facade. Internal code imports
  module to module.
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


def _module_name(path):
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_module(path, node):
    """The absolute module an ``ImportFrom`` reads from."""
    if node.level == 0:
        return node.module
    anchor = _module_name(path).split(".")
    if path.name != "__init__.py":
        anchor = anchor[:-1]
    anchor = anchor[: len(anchor) - (node.level - 1)]
    return ".".join(anchor + ([node.module] if node.module else []))


def _init_offences(path):
    """What a package ``__init__`` holds besides its lazy table."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for i, node in enumerate(tree.body):
        if i == 0 and isinstance(node, ast.Expr):
            continue  # the docstring
        if isinstance(node, ast.ImportFrom):
            if (
                _imported_module(path, node) == "repro._lazy"
                and [a.name for a in node.names] == ["lazy_exports"]
            ):
                continue
            yield f"line {node.lineno}: eager import from {node.module}"
        elif isinstance(node, ast.Assign):
            targets = ast.unparse(node.targets[0])
            if targets in ("__all__", "__version__", "(__getattr__, __dir__)"):
                continue
            yield f"line {node.lineno}: assigns {targets}"
        else:
            yield f"line {node.lineno}: {type(node).__name__} statement"


def _facade_offences(path):
    """Imports of ``repro.api`` or of names of the top-level package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("repro", "repro.api"):
                    yield f"line {node.lineno}: imports {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            source = _imported_module(path, node)
            names = [a.name for a in node.names]
            if source == "repro.api" or (source == "repro" and "api" in names):
                yield f"line {node.lineno}: imports repro.api"
            elif source == "repro" and set(names) - {"__version__", "api"}:
                yield f"line {node.lineno}: imports {names} from repro"


def test_package_inits_are_lazy_tables():
    inits = [path for path in MODULES if path.name == "__init__.py"]
    assert len(inits) == 18
    found = [
        f"{path.relative_to(PACKAGE)} {offence}"
        for path in inits
        for offence in _init_offences(path)
    ]
    assert found == []


def test_no_module_imports_the_facade():
    found = [
        f"{path.relative_to(PACKAGE)} {offence}"
        for path in MODULES
        for offence in _facade_offences(path)
    ]
    assert found == []

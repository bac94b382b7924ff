"""Every name a package module imports is used, unless its line says ``# noqa: F401``.

A stdlib stand-in for pyflakes' F401 over src/npde (``__init__`` re-exports
by design). A ``# noqa: F401`` marks a binding kept on purpose, such as the
``pad`` names the benchmark tracer rebinds.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "npde"


def _unused_imports(path: Path) -> list[str]:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [entry for path in modules for entry in _unused_imports(path)] == []

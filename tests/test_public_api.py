"""The package exports only what the program itself, a demo or the bench reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tracefluct"


def _exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _used_names() -> set[str]:
    """Every name read, attribute taken or string spelled out in the package's
    modules (``__init__.py`` aside), the demos and the bench.  A ``def`` or
    ``class`` line names its symbol without reading it, so it does not count."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)  # the bench binds its traced functions by name
    return used


def test_every_export_has_a_reader_outside_the_tests():
    used = _used_names()
    assert [name for name in _exports() if name not in used] == []

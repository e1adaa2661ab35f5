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


def _package_reads(tree: ast.Module, in_bench: bool) -> set[str]:
    """Names one file reads from the package: a loaded name, an attribute
    of the package module (``tf.x`` after ``import tracefluct as tf``), a
    name imported from the package or one of its modules, or -- under
    ``bench/`` only, where the tracer binds functions by name -- a string."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "tracefluct"}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "tracefluct"):
            used.update(alias.name for alias in node.names)
        elif in_bench and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def _used_names() -> set[str]:
    """Every name the package's modules (``__init__.py`` aside), the demos and
    the bench read from the package.  A ``def`` or ``class`` line names its
    symbol without reading it, and a method or a string of the same spelling
    is not the exported name, so neither counts."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    bench = sorted((ROOT / "bench").rglob("*.py"))
    used = set()
    for path in files + bench:
        used |= _package_reads(ast.parse(path.read_text()), path in bench)
    return used


def test_every_export_has_a_reader_outside_the_tests():
    used = _used_names()
    assert [name for name in _exports() if name not in used] == []

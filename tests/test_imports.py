"""Every module of the package, its tests and its tools reads what it imports.

A module is parsed with ``ast``; an imported name that no expression of the
module reads is a fault.  Names listed in the module's ``__all__`` count as
read, and an import whose line carries ``noqa: F401`` is exempt (a name
kept for another module to read).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for d in ("src/ballpack", "tests", "tools") for p in (ROOT / d).glob("*.py")
)


def _exported(tree: ast.Module) -> set:
    """The strings of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def unused_imports(path: Path) -> list:
    """(line, name) of each name the module imports and never reads."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa: F401" in lines[alias.lineno - 1] or alias.name == "*":
                    continue
                imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= _exported(tree)
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unused_imports(path) == []

"""Every module of the package and of the tests reads each name it imports.

Names listed in a module's __all__ count as read, since that is how the
package's __init__ re-exports them; from __future__ imports are directives,
not names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "superadd").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({alias.asname or alias.name.split(".")[0]: node.lineno
                             for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__"
                                                  for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert _unused_imports(path) == []

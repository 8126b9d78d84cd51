"""Every module of the package and of the tests reads each name it imports,
and the package itself reads each of its private top-level functions,
classes and assigned names.

Names listed in a module's __all__ count as read, since that is how the
package's __init__ re-exports them; from __future__ imports are directives,
not names.  A private helper that only the tests call does not belong in the
package.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "superadd").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


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


def test_every_private_definition_is_read_by_the_package():
    defined, read = {}, set()
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            else:  # the names an assignment binds; other statements bind none here
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name} line {node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [f"{name} ({where})" for name, where in sorted(defined.items()) if name not in read]
    assert unread == []

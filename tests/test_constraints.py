"""The package's standing constraints: stdlib-only imports, no floats."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "gemkit"


def test_imports_are_stdlib_only_and_no_floats():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                modules = []
            for module in modules:
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names, (path.name, module)
            assert not (
                isinstance(node, ast.Constant) and isinstance(node.value, float)
            ), (path.name, node.lineno)
            assert not (
                isinstance(node, ast.Name) and node.id == "float"
            ), (path.name, node.lineno)


def test_every_imported_name_is_read():
    """Each name a module imports is read somewhere in that module, so a
    simplification cannot leave a dead import behind.  A dotted
    `import a.b` binds `a`; `from __future__` binds nothing."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread = sorted(set(imported) - read)
        assert not unread, (path.name, [(n, imported[n]) for n in unread])

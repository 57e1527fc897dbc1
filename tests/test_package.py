"""The package surface: what ``from coabelian import *`` binds, and no module
keeping an import it never uses."""

import ast
from pathlib import Path

import coabelian


def test_star_import_binds_every_public_name_once():
    namespace = {}
    exec("from coabelian import *", namespace)  # a stale __all__ entry raises here
    names = coabelian.__all__
    assert len(set(names)) == len(names)
    assert all(namespace[name] is getattr(coabelian, name) for name in names)


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(Path(coabelian.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}  # bound name -> line of its import
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []
